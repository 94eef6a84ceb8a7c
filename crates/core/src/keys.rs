//! The metric keys riot-core records, minted once per run.

use crate::observe::PROBE_ROWS;
use riot_sim::{MetricKey, Metrics};

/// Every metric key riot-core writes or reads: interned once in the run's
/// recorder by [`MetricKeys::mint`] and handed by copy to the device
/// groups, the edges and the cloud. No process interns a name, and each
/// name riot-core records is spelled here (or, for the three latency
/// metrics, in the stream probes' row names) and nowhere else.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MetricKeys {
    // Written by devices.
    pub(crate) device_control_timeout: MetricKey,
    pub(crate) device_failover: MetricKey,
    pub(crate) device_ml3_fallback: MetricKey,
    pub(crate) device_control_latency_ms: MetricKey,
    pub(crate) device_component_restarted: MetricKey,
    // Written by edges.
    pub(crate) edge_ingest_denied: MetricKey,
    pub(crate) edge_ingest_latency_ms: MetricKey,
    pub(crate) edge_restarted: MetricKey,
    // Written by the cloud.
    pub(crate) cloud_ingest_denied: MetricKey,
    pub(crate) cloud_ingest_latency_ms: MetricKey,
    /// Written by whichever edge or cloud hosts a MAPE loop.
    pub(crate) mape_restart_sent: MetricKey,
    // The kernel's message counters, read into the result.
    pub(crate) sim_msg_sent: MetricKey,
    pub(crate) sim_msg_dropped: MetricKey,
}

impl MetricKeys {
    /// Interns every name in `metrics`. Idempotent: minting again returns
    /// the same keys.
    pub(crate) fn mint(metrics: &mut Metrics) -> Self {
        let [device_control_latency_ms, edge_ingest_latency_ms, cloud_ingest_latency_ms] =
            PROBE_ROWS.map(|name| metrics.intern(name));
        MetricKeys {
            device_control_timeout: metrics.intern("device.control.timeout"),
            device_failover: metrics.intern("device.failover"),
            device_ml3_fallback: metrics.intern("device.ml3_fallback"),
            device_control_latency_ms,
            device_component_restarted: metrics.intern("device.component.restarted"),
            edge_ingest_denied: metrics.intern("edge.ingest.denied"),
            edge_ingest_latency_ms,
            edge_restarted: metrics.intern("edge.restarted"),
            cloud_ingest_denied: metrics.intern("cloud.ingest.denied"),
            cloud_ingest_latency_ms,
            mape_restart_sent: metrics.intern("mape.restart_sent"),
            sim_msg_sent: metrics.intern("sim.msg.sent"),
            sim_msg_dropped: metrics.intern("sim.msg.dropped"),
        }
    }

    /// The keys of the three latency probes, in [`PROBE_ROWS`] order.
    pub(crate) fn probes(&self) -> [MetricKey; 3] {
        [
            self.device_control_latency_ms,
            self.edge_ingest_latency_ms,
            self.cloud_ingest_latency_ms,
        ]
    }
}
