//! Running a built scenario: the run loop, and the sample tick that turns
//! the node-state slab and the consuming stores into verdicts,
//! [`SampleLog`] points, a monitor step and a trace note.

use super::world::Node;
use super::{Scenario, ScenarioResult};
use crate::observe::{SAT_LABEL, VALUATION_ATOMS};
#[cfg(doc)]
use crate::resilience::SampleLog;
use crate::state::SampleFold;
use riot_data::ReplicatedStore;
use riot_formal::{OnlineMonitor, Valuation};
use riot_model::{GoalModel, Requirement, RequirementKind, Telemetry, Verdict};
use riot_sim::{EventMask, SimTime};
use std::fmt::Write as _;

/// Staleness value reported when a consumer has never seen a key (treated
/// as "infinitely stale").
pub(super) const NEVER_SEEN_STALENESS_S: f64 = 1.0e6;

/// One sample tick's telemetry valuation, a fixed field per series.
/// Requirements and the goal model read it through the [`Telemetry`] trait:
/// each requirement reads the field of its [`RequirementKind`].
struct SampleTelemetry {
    /// `ctl.availability`, when any control round completed this window.
    availability: Option<f64>,
    /// `ctl.latency_ms`, when any control round completed this window.
    latency_ms: Option<f64>,
    /// `coverage` — fraction of devices up, serving and reporting.
    coverage: f64,
    /// `freshness_s`, when any operational key has a consuming store.
    freshness_s: Option<f64>,
    /// `privacy.violations` across all stores.
    privacy_violations: f64,
}

impl Telemetry for SampleTelemetry {
    fn value(&self, req: &Requirement) -> Option<f64> {
        match req.kind {
            RequirementKind::Availability => self.availability,
            RequirementKind::Latency => self.latency_ms,
            RequirementKind::Coverage => Some(self.coverage),
            RequirementKind::Freshness => self.freshness_s,
            RequirementKind::Privacy => Some(self.privacy_violations),
            RequirementKind::Custom => None,
        }
    }
}

impl Scenario {
    /// Runs to completion, sampling requirements, and reports.
    pub fn run(mut self) -> ScenarioResult {
        let end = SimTime::ZERO + self.spec.duration;
        self.advance_to(end);
        self.finish()
    }

    /// Runs the simulation to `until` (at most the run's end), taking every
    /// sample tick due on the way: each multiple of `sample_every`, and the
    /// end itself. Stopping between ticks and resuming leaves the run where
    /// one call would: the kernel processes the same events in the same
    /// order, and a tick is taken once, when the run first reaches it.
    pub(super) fn advance_to(&mut self, until: SimTime) {
        let end = SimTime::ZERO + self.spec.duration;
        while self.sampled_to < end {
            let tick = (self.sampled_to + self.spec.sample_every).min(end);
            if tick > until {
                break;
            }
            self.sim.run_until(tick);
            self.sample(tick);
            self.sampled_to = tick;
        }
        if self.sampled_to < until {
            self.sim.run_until(until);
        }
    }

    /// One resilience sample tick. Declared a hot root in
    /// `lint-hotpaths.toml`: nothing reachable from here may allocate
    /// (rule A1) beyond the [`SampleLog`] columns' own
    /// growth, which the fixed-field [`SampleTelemetry`] valuation exists to
    /// guarantee. Calls into other crates use qualified-call syntax so the
    /// lint's call graph gets precise edges (DESIGN.md §10).
    fn sample(&mut self, now: SimTime) {
        // O(changed): fold the node-state slab's flat arrays, which the
        // world holds. Devices pushed their deltas as they happened.
        let fold = self.sim.shared_mut().sample_fold(now);
        let (staleness_sum, staleness_n) = self.freshness(now);
        self.publish_sample(now, &fold, staleness_sum, staleness_n);
    }

    /// Freshness at the consuming stores: the sum of each operational
    /// (non-personal) device's staleness at its home edge's consumer,
    /// capped at [`NEVER_SEEN_STALENESS_S`], and how many devices
    /// contributed (every operational one). The terms age with `now`, so this is a scan in
    /// device-index order, the order that pins the floating-point sum.
    fn freshness(&self, now: SimTime) -> (f64, usize) {
        let c = NEVER_SEEN_STALENESS_S;
        let n = self.operational;
        // With no replication every term is the never-seen constant, and
        // the scan's repeated addition equals one multiplication *exactly*:
        // with the constant a non-negative integer and the total below
        // 2^53, every partial sum `k·c` is an exactly-representable
        // integer, so each addition is exact. (Both hold for 1.0e6 at any
        // feasible device count; the guard falls through to the scan
        // otherwise.)
        let exact_batch = c >= 0.0 && c.fract() == 0.0 && c * (n as f64) < 9.0e15;
        if self.consumer_of_edge.is_empty() && exact_batch {
            return (c * n as f64, n);
        }
        let mut sum = 0.0;
        for info in self.devices().filter(|info| !info.personal) {
            let store = match self
                .consumer_of_edge
                .get(info.edge_index)
                .and_then(|&id| self.sim.node(id))
            {
                Some(Node::Cloud(cloud)) => Some(cloud.store()),
                Some(Node::Edge(edge)) => Some(edge.store()),
                _ => None,
            };
            let staleness = store
                .and_then(|store| ReplicatedStore::staleness_secs_key(store, info.key, now))
                .unwrap_or(c);
            sum += staleness.min(c);
        }
        (sum, n)
    }

    /// The tail of a sample tick: privacy audit, telemetry valuation,
    /// verdicts, one point per [`SampleLog`] column, the
    /// monitor step and the trace note. The `#[cfg(test)]` rescan oracle
    /// feeds its own gather through here, so its result can only differ
    /// from the shipped sampler's if the gathered numbers do.
    pub(super) fn publish_sample(
        &mut self,
        now: SimTime,
        fold: &SampleFold,
        staleness_sum: f64,
        staleness_n: usize,
    ) {
        let window = &fold.window;
        let covered = fold.covered;
        // -- Privacy audit across all stores.
        let mut violations = 0usize;
        if let Some(Node::Cloud(c)) = self.sim.node(self.hierarchy.cloud) {
            violations += c.store().privacy_violations(&self.registry);
        }
        for &e in &self.hierarchy.edges {
            if let Some(Node::Edge(edge)) = self.sim.node(e) {
                violations += edge.store().privacy_violations(&self.registry);
            }
        }

        // -- Telemetry valuation and verdicts, allocation-free.
        let telemetry = SampleTelemetry {
            availability: window.availability(),
            latency_ms: window.mean_latency_ms(),
            coverage: covered as f64 / self.spec.device_count().max(1) as f64,
            freshness_s: (staleness_n > 0).then(|| staleness_sum / staleness_n as f64),
            privacy_violations: violations as f64,
        };

        let goal_eval = GoalModel::evaluate(&self.goals, &self.requirements, &telemetry);
        let goal_sat = goal_eval.root == Verdict::Satisfied;
        let indicator = |sat: bool| if sat { 1.0 } else { 0.0 };
        let log = &mut self.log;
        log.goal.push((now, indicator(goal_sat)));
        let mut all_sat = true;
        let mut sat_count = 0usize;
        let mut req_count = 0usize;
        // Verdict bitmask in requirement (id) order, for the valuation
        // below — REQUIREMENT_NAMES is far below 32 entries.
        let mut sat_bits = 0u32;
        for (i, (req, column)) in self
            .requirements
            .iter()
            .zip(&mut log.requirements)
            .enumerate()
        {
            let sat = Requirement::evaluate(req, &telemetry) == Verdict::Satisfied;
            all_sat &= sat;
            sat_count += sat as usize;
            if sat {
                sat_bits |= 1u32.checked_shl(i as u32).unwrap_or(0);
            }
            req_count += 1;
            column.push((now, indicator(sat)));
        }
        log.all.push((now, indicator(all_sat)));
        log.satfrac
            .push((now, sat_count as f64 / req_count.max(1) as f64));
        log.coverage.push((now, telemetry.coverage));
        if let Some(avail) = telemetry.availability {
            log.availability.push((now, avail));
        }
        if let Some(lat) = telemetry.latency_ms {
            log.latency_ms.push((now, lat));
        }
        if let Some(fresh) = telemetry.freshness_s {
            log.freshness_s.push((now, fresh));
        }
        log.privacy_violations
            .push((now, telemetry.privacy_violations));

        // -- The valuation, bit i = VALUATION_ATOMS[i]: `all`, `goal`, then
        // the requirements in canonical order. The monitor bank takes it as
        // data, so a violation is timestamped at this sample; an empty bank
        // steps nothing.
        let bits = u64::from(all_sat) | (u64::from(goal_sat) << 1) | (u64::from(sat_bits) << 2);
        OnlineMonitor::step_valuation(&mut self.monitors, now, Valuation::from_bits(bits));

        // -- The same valuation as a trace line on the bus, in the same
        // token order (crate::observe). Skipped entirely when no observer
        // reads notes.
        if self.sim.wants(EventMask::NOTE) {
            let mut note = String::with_capacity(96);
            note.push_str(SAT_LABEL);
            for (i, name) in VALUATION_ATOMS.iter().enumerate() {
                let bit = bits.checked_shr(i as u32).unwrap_or(0) & 1;
                let _ = write!(note, " {name}={bit}");
            }
            self.sim.annotate(note);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::SampleTelemetry;
    use crate::resilience::{standard_requirements, Thresholds};
    use riot_model::{Requirement, Verdict};

    /// Each standard requirement reads the column of its own kind: moving
    /// one column across its threshold flips that requirement's verdict and
    /// no other.
    #[test]
    fn each_standard_requirement_reads_its_own_column() {
        let t = Thresholds::default();
        let reqs = standard_requirements(t);
        let verdicts = |telemetry: &SampleTelemetry| -> Vec<Verdict> {
            reqs.iter()
                .map(|r| Requirement::evaluate(r, telemetry))
                .collect()
        };
        let healthy = SampleTelemetry {
            availability: Some(1.0),
            latency_ms: Some(t.latency_ms / 2.0),
            coverage: 1.0,
            freshness_s: Some(t.freshness_s / 2.0),
            privacy_violations: 0.0,
        };
        assert_eq!(verdicts(&healthy), [Verdict::Satisfied; 5]);
        // One column past its threshold each, in requirement id order.
        let broken = [
            SampleTelemetry {
                latency_ms: Some(t.latency_ms * 2.0),
                ..healthy
            },
            SampleTelemetry {
                availability: Some(t.availability / 2.0),
                ..healthy
            },
            SampleTelemetry {
                coverage: t.coverage / 2.0,
                ..healthy
            },
            SampleTelemetry {
                freshness_s: Some(t.freshness_s * 2.0),
                ..healthy
            },
            SampleTelemetry {
                privacy_violations: 1.0,
                ..healthy
            },
        ];
        for (moved, telemetry) in broken.iter().enumerate() {
            let want: Vec<Verdict> = (0..reqs.len())
                .map(|i| {
                    if i == moved {
                        Verdict::Violated
                    } else {
                        Verdict::Satisfied
                    }
                })
                .collect();
            assert_eq!(verdicts(telemetry), want, "column {moved} moved");
        }
    }
}
