//! The rescan oracle: the sampler as it was before the node-state slab —
//! one O(devices) pass over the process table and the stores per tick —
//! kept as the reference `incremental_sampling_equals_full_rescan_on_every_level`
//! compares the slab fold against. Its run loop is its own, independent of
//! the production loop it checks.

#![cfg(test)]

use super::run::NEVER_SEEN_STALENESS_S;
use super::{DeviceInfo, Scenario, ScenarioResult, ScenarioSpec, ACTIVITY_OP};
use crate::cloud::CloudProcess;
use crate::config::ReplicationMode;
use crate::device::DeviceProcess;
use crate::edge::EdgeProcess;
use crate::msg::Msg;
use crate::state::SampleFold;
use riot_net::Hierarchy;
use riot_sim::{ProcessId, Sim, SimTime, StreamPipeline};

impl Scenario {
    /// Staleness of `info`'s key at its consuming store, for the rescan
    /// oracle. An associated function over disjoint borrows: [`Self::rescan`]
    /// holds `&self.devices` while probing `self.sim`.
    fn consumer_staleness(
        sim: &Sim<Msg>,
        hierarchy: &Hierarchy,
        replication: ReplicationMode,
        edges: usize,
        info: &DeviceInfo,
        now: SimTime,
    ) -> f64 {
        match replication {
            ReplicationMode::None => NEVER_SEEN_STALENESS_S,
            ReplicationMode::CloudOnly | ReplicationMode::EdgeToCloud => sim
                .process::<CloudProcess>(hierarchy.cloud)
                .and_then(|c| c.store().staleness_secs_key(info.key, now))
                .unwrap_or(NEVER_SEEN_STALENESS_S),
            ReplicationMode::EdgeMesh => {
                let consumer = hierarchy.edges[(info.edge_index + 1) % edges];
                sim.process::<EdgeProcess>(consumer)
                    .and_then(|e| e.store().staleness_secs_key(info.key, now))
                    .unwrap_or(NEVER_SEEN_STALENESS_S)
            }
        }
    }

    /// Whether a device is currently up, for the rescan oracle. When the
    /// stream pipeline is on this reads its liveness mirror, with the
    /// kernel's own table as the fallback. The two agree by construction
    /// (the tracker replays the same `ProcessDown`/`ProcessUp` events the
    /// kernel emitted).
    fn device_is_up(&self, id: ProcessId) -> bool {
        let tracker = self.streams.as_ref().and_then(|s| {
            self.sim
                .observer::<StreamPipeline>(s.pipeline)?
                .activity_tracker(ACTIVITY_OP)
        });
        match tracker {
            Some(tracker) => tracker.is_up(id),
            None => self.sim.is_up(id),
        }
    }

    /// The rescan oracle: [`Self::build`] and [`Self::run`] with every
    /// device detached from the slab and each sample gathered by
    /// [`Self::rescan`] instead of the slab fold. The liveness mirror and
    /// the store probes stay registered and write rows nothing reads.
    pub(super) fn run_rescan_oracle(spec: ScenarioSpec) -> ScenarioResult {
        let mut scenario = Scenario::build(spec);
        for info in &scenario.devices {
            scenario
                .sim
                .process_mut::<DeviceProcess>(info.id)
                .expect("device process")
                .detach_slab();
        }
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + scenario.spec.duration;
        while t < end {
            t = (t + scenario.spec.sample_every).min(end);
            scenario.sim.run_until(t);
            let fold = scenario.rescan(t);
            scenario.publish_sample(t, &fold);
        }
        scenario.finish()
    }

    /// The oracle's gather: one O(devices) pass over the device index —
    /// control-loop window, coverage, and consumer-store freshness
    /// together, read from the process table and the stores. Keeping the
    /// staleness accumulation in device-index order pins the floating-point
    /// sum — and therefore the recorded freshness series — bit-for-bit;
    /// the slab fold replays the identical addition sequence (its slot
    /// order *is* device-index order), which is what lets the oracle test
    /// demand byte-identical results.
    fn rescan(&mut self, now: SimTime) -> SampleFold {
        let mut window = crate::device::DeviceWindow::default();
        let mut covered = 0usize;
        let mut staleness_sum = 0.0;
        let mut staleness_n = 0usize;
        let arch = self.spec.architecture();
        let fresh_horizon = arch.sense_period * 3;
        for info in &self.devices {
            let up = self.device_is_up(info.id);
            let dev = self
                .sim
                .process_mut::<DeviceProcess>(info.id)
                .expect("device process");
            let w = dev.take_window();
            window.control_ok += w.control_ok;
            window.control_timeout += w.control_timeout;
            window.latency_sum_ms += w.latency_sum_ms;
            window.latency_count += w.latency_count;
            let reporting = dev
                .last_reading_at()
                .map(|at| now.saturating_since(at) <= fresh_horizon)
                .unwrap_or(false);
            if up && dev.component_state().provides_service() && reporting {
                covered += 1;
            }
            // Freshness at the consuming store (operational keys only;
            // governed architectures rightfully keep personal keys home).
            if !info.personal {
                staleness_sum += Self::consumer_staleness(
                    &self.sim,
                    &self.hierarchy,
                    arch.replication,
                    self.spec.edges,
                    info,
                    now,
                )
                .min(NEVER_SEEN_STALENESS_S);
                staleness_n += 1;
            }
        }
        SampleFold {
            window,
            covered,
            staleness_sum,
            staleness_n,
        }
    }
}
