//! What a run reports: [`ScenarioResult`], the end-of-run harvest that
//! fills it (`finish`) and the field list of its JSON rendering.

#[cfg(doc)]
use super::ScenarioSpec;
use super::{Scenario, ACTIVITY_OP, FLOWS_OP};
use crate::observe::{
    monitor_outcomes, MonitorOutcome, StreamQuantiles, StreamStats, StreamSummary, ACTIVITY_ROW,
    FLOWS_ROW, PROBE_ROWS,
};
use crate::resilience::{time_weighted_mean_raw, ResilienceReport};
use riot_model::MaturityLevel;
use riot_sim::{HistogramSummary, RingTrace, SimEvent, SimTime, StreamPipeline, ToJson};
use std::collections::BTreeMap;

/// The outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Maturity level run.
    pub level: MaturityLevel,
    /// Seed used.
    pub seed: u64,
    /// Number of devices.
    pub devices: usize,
    /// Number of edges.
    pub edges: usize,
    /// Run length in virtual seconds.
    pub duration_s: f64,
    /// The resilience report.
    pub report: ResilienceReport,
    /// Device failovers performed (ML4).
    pub failovers: u64,
    /// Component restarts completed.
    pub restarts: u64,
    /// Restart commands issued by MAPE loops.
    pub restart_commands: u64,
    /// Records denied at policy-checked ingestion.
    pub ingest_denied: u64,
    /// Messages submitted to the medium.
    pub messages_sent: u64,
    /// Messages dropped (loss, partitions, dead nodes).
    pub messages_dropped: u64,
    /// Control round-trip latency summary.
    pub control_latency: Option<HistogramSummary>,
    /// Simulator events processed.
    pub events_processed: u64,
    /// The sampled all-requirements-satisfied indicator, as
    /// `(seconds, 0/1)` — the trace runtime monitors consume.
    pub sat_all_series: Vec<(f64, f64)>,
    /// The sampled satisfied-fraction series, as `(seconds, fraction)`.
    pub satfrac_series: Vec<(f64, f64)>,
    /// Outcomes of the online monitors from [`ScenarioSpec::monitors`], in
    /// spec order. Excluded from the JSON rendering so existing result
    /// files stay byte-identical; experiment binaries report the fields
    /// they care about explicitly.
    pub monitors: Vec<MonitorOutcome>,
    /// The last-N kernel events, oldest first, when
    /// [`ScenarioSpec::trace_tail`] was set: the forensic ring's contents,
    /// moved out unrendered — [`ScenarioResult::trace_tail_lines`] is their
    /// text form, produced when asked for. Excluded from the JSON
    /// rendering: a debugging/forensics artifact, not a result.
    pub trace_tail: Vec<SimEvent>,
    /// One bounded-memory summary row per stream operator when
    /// [`ScenarioSpec::streams`] is on (latency probes first, then flows,
    /// then activity). Excluded from the JSON rendering so existing result files
    /// stay byte-identical; consumers that want the rows serialize them
    /// explicitly (the `riot` CLI's `--stream-summary` does).
    pub streams: Vec<StreamSummary>,
    /// Time-weighted means of the sampled telemetry over the disruption
    /// window, keyed by telemetry name (`"freshness_s"`, `"coverage"`, ...),
    /// in each metric's natural scale.
    pub telemetry_means: BTreeMap<String, f64>,
}

riot_sim::impl_to_json_struct!(ScenarioResult {
    name,
    level,
    seed,
    devices,
    edges,
    duration_s,
    report,
    failovers,
    restarts,
    restart_commands,
    ingest_denied,
    messages_sent,
    messages_dropped,
    control_latency,
    events_processed,
    sat_all_series,
    satfrac_series,
    telemetry_means
});

impl ScenarioResult {
    /// The resilience R of the all-requirements indicator.
    pub fn overall_resilience(&self) -> f64 {
        self.report.overall_resilience
    }

    /// Resilience of one named requirement.
    pub fn requirement_resilience(&self, name: &str) -> Option<f64> {
        self.report.requirements.get(name).map(|o| o.resilience)
    }

    /// The online-monitor outcomes whose property failed to hold at end of
    /// run — the campaign-oracle view of a run (see
    /// [`MonitorOutcome::failed`]): definite violations plus unmet pending
    /// obligations, in [`ScenarioSpec::monitors`] order.
    pub fn failed_monitors(&self) -> impl Iterator<Item = &MonitorOutcome> {
        self.monitors.iter().filter(|m| m.failed())
    }

    /// [`ScenarioResult::trace_tail`] as compact JSON lines, one per event,
    /// oldest first — rendered here, on demand: a run that nobody asks for
    /// its tail never pays for the text.
    pub fn trace_tail_lines(&self) -> Vec<String> {
        self.trace_tail
            .iter()
            .map(|e| e.to_json().render())
            .collect()
    }
}

impl Scenario {
    /// Harvests one [`StreamSummary`] row per stream operator, in operator
    /// order (latency probes, then flows, then activity); no rows when the
    /// pipeline is off.
    fn stream_summaries(&self) -> Vec<StreamSummary> {
        let Some(s) = &self.streams else {
            return Vec::new();
        };
        let Some(pipeline) = self.sim.observer::<StreamPipeline>(s.pipeline) else {
            return Vec::new();
        };
        let mut rows = Vec::with_capacity(ACTIVITY_OP + 1);
        for (op, name) in PROBE_ROWS.iter().enumerate() {
            let Some(probe) = pipeline.measure_probe(op) else {
                continue;
            };
            let stats = probe.stats();
            let sketch = probe.sketch();
            rows.push(StreamSummary {
                name: (*name).to_owned(),
                count: stats.count(),
                stats: (stats.count() > 0).then(|| StreamStats {
                    mean: stats.mean(),
                    stddev: stats.stddev(),
                    min: stats.min(),
                    max: stats.max(),
                }),
                quantiles: (sketch.count() > 0).then(|| StreamQuantiles {
                    p50: sketch.p50(),
                    p95: sketch.p95(),
                    p99: sketch.p99(),
                    alpha: sketch.alpha(),
                }),
                flows: Vec::new(),
            });
        }
        if let Some(flow) = pipeline.flow_accounting(FLOWS_OP) {
            let counts = flow.counts();
            rows.push(StreamSummary {
                name: FLOWS_ROW.to_owned(),
                count: counts.total(),
                stats: None,
                quantiles: None,
                flows: s
                    .flow_names
                    .iter()
                    .map(|(key, label)| ((*label).to_owned(), counts.count(*key)))
                    .collect(),
            });
        }
        if let Some(tracker) = pipeline.activity_tracker(ACTIVITY_OP) {
            rows.push(StreamSummary {
                name: ACTIVITY_ROW.to_owned(),
                count: tracker.transitions(),
                stats: None,
                quantiles: None,
                flows: vec![("up".to_owned(), tracker.up_count() as u64)],
            });
        }
        rows
    }

    /// Consumes the scenario into its result: counters, the resilience
    /// report over the sample log, monitor outcomes, the ring's tail and the
    /// stream rows.
    pub(super) fn finish(mut self) -> ScenarioResult {
        let spec = self.spec.clone();
        let end = SimTime::ZERO + spec.duration;
        let split = SimTime::ZERO + spec.warmup;
        let failovers = self.sim.metrics().counter("device.failover");
        let restarts = self.sim.metrics().counter("device.component.restarted");
        let restart_commands = self.sim.metrics().counter("mape.restart_sent");
        let ingest_denied = self.sim.metrics().counter("edge.ingest.denied")
            + self.sim.metrics().counter("cloud.ingest.denied");
        let msgs_sent = self.sim.metrics().counter("sim.msg.sent");
        let msgs_dropped = self.sim.metrics().counter("sim.msg.dropped");
        let latency = self
            .sim
            .metrics_mut()
            .summarize("device.control.latency_ms");
        let report = ResilienceReport::from_log(&self.log, SimTime::ZERO, split, end);
        let in_secs = |series: &[(SimTime, f64)]| -> Vec<(f64, f64)> {
            series.iter().map(|(t, v)| (t.as_secs_f64(), *v)).collect()
        };
        let sat_all_series = in_secs(&self.log.all);
        let satfrac_series = in_secs(&self.log.satfrac);
        // A column that never got a point has no mean and no entry.
        let telemetry_means: BTreeMap<String, f64> = self
            .log
            .telemetry()
            .into_iter()
            .filter_map(|(name, series)| {
                Some((name.to_owned(), time_weighted_mean_raw(series, split, end)?))
            })
            .collect();
        let monitors = monitor_outcomes(&self.monitors);
        let trace_tail: Vec<SimEvent> = self
            .ring_idx
            .and_then(|i| self.sim.observer_mut::<RingTrace>(i))
            .map(RingTrace::take_tail)
            .unwrap_or_default();
        let streams = self.stream_summaries();
        ScenarioResult {
            name: spec.name.clone(),
            level: spec.level,
            seed: spec.seed,
            devices: spec.device_count(),
            edges: spec.edges,
            duration_s: spec.duration.as_secs_f64(),
            report,
            failovers,
            restarts,
            restart_commands,
            ingest_denied,
            messages_sent: msgs_sent,
            messages_dropped: msgs_dropped,
            control_latency: latency,
            events_processed: self.sim.events_processed(),
            sat_all_series,
            satfrac_series,
            monitors,
            trace_tail,
            streams,
            telemetry_means,
        }
    }
}
