//! Running a built scenario: the run loop, and the sample tick that turns
//! the node-state slab into verdicts, [`SampleLog`]
//! points, a monitor step and a trace note.

use super::{Scenario, ScenarioResult};
use crate::cloud::CloudProcess;
use crate::edge::EdgeProcess;
use crate::observe::{SAT_LABEL, VALUATION_ATOMS};
#[cfg(doc)]
use crate::resilience::SampleLog;
use crate::state::SampleFold;
use riot_formal::{OnlineMonitor, Valuation};
use riot_model::{GoalModel, Requirement, Telemetry, Verdict};
use riot_sim::{EventMask, SimTime};
use std::fmt::Write as _;

/// Staleness value reported when a consumer has never seen a key (treated
/// as "infinitely stale").
pub(super) const NEVER_SEEN_STALENESS_S: f64 = 1.0e6;

/// One sample tick's telemetry valuation, a fixed field per series.
/// Requirements and the goal model read it through the [`Telemetry`] trait
/// by metric name.
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
    fn value(&self, metric: &str) -> Option<f64> {
        match metric {
            "ctl.availability" => self.availability,
            "ctl.latency_ms" => self.latency_ms,
            "coverage" => Some(self.coverage),
            "freshness_s" => self.freshness_s,
            "privacy.violations" => Some(self.privacy_violations),
            _ => None,
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
        // O(changed): fold the node-state slab's flat arrays. Devices
        // pushed their deltas as they happened; nothing here touches the
        // process table or the stores.
        let fold = self.slab.sample_fold(now, NEVER_SEEN_STALENESS_S);
        self.publish_sample(now, &fold);
    }

    /// The tail of a sample tick: privacy audit, telemetry valuation,
    /// verdicts, one point per [`SampleLog`] column, the
    /// monitor step and the trace note. The `#[cfg(test)]` rescan oracle
    /// feeds its own [`SampleFold`] through here, so its result can only
    /// differ from the slab's if the gathered numbers do.
    pub(super) fn publish_sample(&mut self, now: SimTime, fold: &SampleFold) {
        let window = &fold.window;
        let covered = fold.covered;
        let staleness_sum = fold.staleness_sum;
        let staleness_n = fold.staleness_n;
        // -- Privacy audit across all stores.
        let mut violations = 0usize;
        if let Some(c) = self.sim.process::<CloudProcess>(self.hierarchy.cloud) {
            violations += c.store().privacy_violations(&self.registry);
        }
        for &e in &self.hierarchy.edges {
            if let Some(edge) = self.sim.process::<EdgeProcess>(e) {
                violations += edge.store().privacy_violations(&self.registry);
            }
        }

        // -- Telemetry valuation and verdicts, allocation-free.
        let telemetry = SampleTelemetry {
            availability: window.availability(),
            latency_ms: window.mean_latency_ms(),
            coverage: covered as f64 / self.devices.len().max(1) as f64,
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
