//! The rescan oracle: the sampler as it was before the node-state slab —
//! one O(devices) pass over the process table and the stores per tick —
//! kept as the reference `incremental_sampling_equals_full_rescan_on_every_level`
//! compares the slab fold and the freshness scan against. Its run loop is
//! its own, independent of the production loop it checks.

#![cfg(test)]

use super::run::NEVER_SEEN_STALENESS_S;
use super::world::{Node, ScenarioSim};
use super::{DeviceInfo, Scenario, ScenarioResult, ScenarioSpec, ACTIVITY_OP};
use crate::config::ReplicationMode;
use crate::state::{NodeSlab, SampleFold};
use riot_net::Hierarchy;
use riot_sim::{ProcessId, SimTime, StreamPipeline};

impl Scenario {
    /// Staleness of `info`'s key at its consuming store, for the rescan
    /// oracle. An associated function over disjoint borrows: [`Self::rescan`]
    /// holds `&self.devices` while probing `self.sim`.
    fn consumer_staleness(
        sim: &ScenarioSim,
        hierarchy: &Hierarchy,
        replication: ReplicationMode,
        edges: usize,
        info: &DeviceInfo,
        now: SimTime,
    ) -> f64 {
        match replication {
            ReplicationMode::None => NEVER_SEEN_STALENESS_S,
            ReplicationMode::CloudOnly | ReplicationMode::EdgeToCloud => {
                match sim.node(hierarchy.cloud) {
                    Some(Node::Cloud(c)) => c.store().staleness_secs_key(info.key, now),
                    _ => None,
                }
                .unwrap_or(NEVER_SEEN_STALENESS_S)
            }
            ReplicationMode::EdgeMesh => {
                let consumer = hierarchy.edges[(info.edge_index + 1) % edges];
                match sim.node(consumer) {
                    Some(Node::Edge(e)) => e.store().staleness_secs_key(info.key, now),
                    _ => None,
                }
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
    /// device moved to a slab of the oracle's own and each sample gathered
    /// by [`Self::rescan`] instead of the slab fold and the freshness scan.
    /// The liveness mirror stays on the scenario's slab and writes rows
    /// nothing reads.
    pub(super) fn run_rescan_oracle(spec: ScenarioSpec) -> ScenarioResult {
        let mut scenario = Scenario::build(spec);
        let rows = NodeSlab::unsensed(crate::config::SENSE_PERIOD * 3, scenario.devices.len());
        for (slot, info) in scenario.devices.iter().enumerate() {
            let Some(Node::Device(dev)) = scenario.sim.node_mut(info.id) else {
                panic!("device process");
            };
            dev.attach_slab(rows.clone(), slot as u32);
        }
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + scenario.spec.duration;
        while t < end {
            t = (t + scenario.spec.sample_every).min(end);
            scenario.sim.run_until(t);
            let (fold, staleness_sum, staleness_n) = scenario.rescan(t, &rows);
            scenario.publish_sample(t, &fold, staleness_sum, staleness_n);
        }
        scenario.finish()
    }

    /// The oracle's gather: one O(devices) pass over the device index —
    /// control-loop window, coverage, and consumer-store freshness
    /// together, read from the raw fields of the oracle's slab `rows`, the
    /// process table and the stores. Keeping the
    /// staleness accumulation in device-index order pins the floating-point
    /// sum — and therefore the recorded freshness series — bit-for-bit;
    /// the shipped freshness scan and the slab's window drain replay the
    /// identical addition sequences (both walk device-index order), which
    /// is what lets the oracle test demand byte-identical results.
    fn rescan(&mut self, now: SimTime, rows: &NodeSlab) -> (SampleFold, f64, usize) {
        let mut window = crate::device::DeviceWindow::default();
        let mut covered = 0usize;
        let mut staleness_sum = 0.0;
        let mut staleness_n = 0usize;
        let replication = self.spec.architecture().replication;
        let fresh_horizon = crate::config::SENSE_PERIOD * 3;
        for (slot, info) in self.devices.iter().enumerate() {
            let up = self.device_is_up(info.id);
            let Some(Node::Device(dev)) = self.sim.node(info.id) else {
                panic!("device process");
            };
            let (w, last_sense) = rows.take_raw_row(slot as u32);
            window.control_ok += w.control_ok;
            window.control_timeout += w.control_timeout;
            window.latency_sum_ms += w.latency_sum_ms;
            window.latency_count += w.latency_count;
            let reporting = last_sense
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
                    replication,
                    self.spec.edges,
                    info,
                    now,
                )
                .min(NEVER_SEEN_STALENESS_S);
                staleness_n += 1;
            }
        }
        (SampleFold { window, covered }, staleness_sum, staleness_n)
    }
}
