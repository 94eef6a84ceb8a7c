//! The rescan oracle: the sampler as it was before the node-state slab —
//! one O(devices) pass over the process table and the stores per tick —
//! kept as the reference `incremental_sampling_equals_full_rescan_on_every_level`
//! compares the slab fold and the freshness scan against. Its run loop is
//! its own, independent of the production loop it checks.

#![cfg(test)]

use super::run::NEVER_SEEN_STALENESS_S;
use super::world::Node;
use super::{DeviceInfo, Scenario, ScenarioResult, ScenarioSpec};
use crate::config::ReplicationMode;
use crate::state::{NodeSlab, SampleFold};
use riot_data::Sensitivity;
use riot_sim::{ProcessId, SimTime};

impl Scenario {
    /// Staleness of `info`'s key at its consuming store, for the rescan
    /// oracle.
    fn consumer_staleness(
        &self,
        replication: ReplicationMode,
        info: &DeviceInfo,
        now: SimTime,
    ) -> f64 {
        let (sim, hierarchy) = (&self.sim, &self.hierarchy);
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
                let consumer = hierarchy.edges[(info.edge_index + 1) % self.spec.edges];
                match sim.node(consumer) {
                    Some(Node::Edge(e)) => e.store().staleness_secs_key(info.key, now),
                    _ => None,
                }
                .unwrap_or(NEVER_SEEN_STALENESS_S)
            }
        }
    }

    /// The rescan oracle: [`Self::build`] and [`Self::run`] with a slab of
    /// the oracle's own in the world and each sample gathered by
    /// [`Self::rescan`] instead of the slab fold and the freshness scan.
    pub(super) fn run_rescan_oracle(spec: ScenarioSpec) -> ScenarioResult {
        let mut scenario = Scenario::build(spec);
        let n = scenario.spec.device_count();
        *scenario.sim.shared_mut() = NodeSlab::unsensed(crate::config::SENSE_PERIOD * 3, n);
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + scenario.spec.duration;
        while t < end {
            t = (t + scenario.spec.sample_every).min(end);
            scenario.sim.run_until(t);
            let (fold, staleness_sum, staleness_n) = scenario.rescan(t);
            scenario.publish_sample(t, &fold, staleness_sum, staleness_n);
        }
        scenario.finish()
    }

    /// The oracle's gather: one O(devices) pass over the device index —
    /// control-loop window, coverage, and consumer-store freshness
    /// together, read from the raw fields of the oracle's slab rows, the
    /// kernel's liveness table, the process table and the stores. Keeping the
    /// staleness accumulation in device-index order pins the floating-point
    /// sum — and therefore the recorded freshness series — bit-for-bit;
    /// the shipped freshness scan and the slab's window drain replay the
    /// identical addition sequences (both walk device-index order), which
    /// is what lets the oracle test demand byte-identical results.
    fn rescan(&mut self, now: SimTime) -> (SampleFold, f64, usize) {
        let mut window = crate::device::DeviceWindow::default();
        let mut covered = 0usize;
        let mut staleness_sum = 0.0;
        let mut staleness_n = 0usize;
        let replication = self.spec.architecture().replication;
        let fresh_horizon = crate::config::SENSE_PERIOD * 3;
        // Each device's facts from the hierarchy and the device itself, not
        // from the layout `Scenario::devices` derives them by.
        let placed = self.hierarchy.devices.iter().enumerate();
        let ids = placed.flat_map(|(e, devs)| devs.iter().map(move |&id| (e, id)));
        let ids: Vec<(usize, ProcessId)> = ids.collect();
        for (slot, (edge_index, id)) in ids.into_iter().enumerate() {
            let (w, last_sense) = self.sim.shared_mut().take_raw_row(slot as u32);
            let up = self.sim.is_up(id);
            let Some(Node::Device(dev)) = self.sim.node(id) else {
                panic!("device process");
            };
            let info = DeviceInfo {
                id,
                edge_index,
                key: dev.data_key(),
                personal: dev.sensitivity() == Sensitivity::Personal,
            };
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
                staleness_sum += self
                    .consumer_staleness(replication, &info, now)
                    .min(NEVER_SEEN_STALENESS_S);
                staleness_n += 1;
            }
        }
        (SampleFold { window, covered }, staleness_sum, staleness_n)
    }
}
