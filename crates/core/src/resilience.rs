//! Resilience metrics: quantifying "persistence of requirement
//! satisfaction when facing change".
//!
//! The scenario runner samples each requirement's verdict into a 0/1 time
//! series — one column of the run's [`SampleLog`]. This module turns those
//! columns into the numbers the experiments report:
//!
//! * **baseline satisfaction** — time-weighted satisfaction before the
//!   first disruption (does the architecture even work in calm weather?);
//! * **resilience R** — time-weighted satisfaction over the disruption
//!   window (the paper's definition, made measurable);
//! * **MTTR** — mean time from a violation onset to re-satisfaction, with
//!   never-recovered outages censored at the window end;
//! * **outage statistics** — count and longest outage.

use riot_model::{
    GoalModel, Predicate, Requirement, RequirementId, RequirementKind, RequirementSet,
};
use riot_sim::SimTime;
use std::collections::BTreeMap;

/// Thresholds for the standard scenario requirement set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Mean control round-trip must stay below this (ms).
    pub latency_ms: f64,
    /// Control success fraction must stay above this.
    pub availability: f64,
    /// Fraction of devices actively reporting must stay above this.
    pub coverage: f64,
    /// Mean consumer-side staleness must stay below this (s).
    pub freshness_s: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            latency_ms: 250.0,
            availability: 0.85,
            coverage: 0.8,
            freshness_s: 15.0,
        }
    }
}

/// The five standard scenario requirements (the paper's recurring concerns:
/// latency, availability, coverage, timeliness/freshness, privacy), wired
/// to the telemetry keys the runner publishes.
pub fn standard_requirements(t: Thresholds) -> RequirementSet {
    vec![
        Requirement::new(
            RequirementId(0),
            "control loop reacts in time",
            RequirementKind::Latency,
            "ctl.latency_ms",
            Predicate::AtMost(t.latency_ms),
        ),
        Requirement::new(
            RequirementId(1),
            "control plane available",
            RequirementKind::Availability,
            "ctl.availability",
            Predicate::AtLeast(t.availability),
        ),
        Requirement::new(
            RequirementId(2),
            "sensing coverage maintained",
            RequirementKind::Coverage,
            "coverage",
            Predicate::AtLeast(t.coverage),
        ),
        Requirement::new(
            RequirementId(3),
            "shared data stays fresh",
            RequirementKind::Freshness,
            "freshness_s",
            Predicate::AtMost(t.freshness_s),
        ),
        Requirement::new(
            RequirementId(4),
            "no privacy violations at rest",
            RequirementKind::Privacy,
            "privacy.violations",
            Predicate::Zero,
        ),
    ]
    .into_iter()
    .collect()
}

/// Short reporting names for the standard requirements, in id order.
pub const REQUIREMENT_NAMES: [&str; 5] = [
    "latency",
    "availability",
    "coverage",
    "freshness",
    "privacy",
];

/// The reporting key of the goal-model series (see
/// [`standard_goal_model`]).
pub const GOAL_NAME: &str = "acceptable";

/// The standard goal model (§IV-B: "goal modeling and validation"): a
/// *degraded-mode acceptability* criterion, deliberately weaker than the
/// all-requirements conjunction —
///
/// ```text
/// acceptable service  =  core ∧ quality ∧ compliance
///   core       = availability ∧ coverage         (the system does its job)
///   quality    = latency ∨ freshness             (at least one QoS facet holds)
///   compliance = privacy                         (non-negotiable)
/// ```
///
/// The OR makes the tree informative: an architecture may fail one QoS
/// facet (e.g. ML1's freshness — silos share nothing) yet still deliver
/// acceptable degraded service, which the strict conjunction cannot
/// express. Leaves reference the ids of [`standard_requirements`].
pub fn standard_goal_model() -> GoalModel {
    let mut goals = GoalModel::new();
    let latency = goals.leaf("control reacts in time", RequirementId(0));
    let availability = goals.leaf("control plane answers", RequirementId(1));
    let coverage = goals.leaf("sensing keeps coverage", RequirementId(2));
    let freshness = goals.leaf("shared data is fresh", RequirementId(3));
    let privacy = goals.leaf("no privacy violations", RequirementId(4));
    let core = goals.and("core service", vec![availability, coverage]);
    let quality = goals.or("quality (either QoS facet)", vec![latency, freshness]);
    let root = goals.and("acceptable service", vec![core, quality, privacy]);
    goals.set_root(root);
    goals
}

/// One sampled series: `(time, value)` points in time order.
pub type Series = Vec<(SimTime, f64)>;

/// Everything the scenario sampler records, one column per series and one
/// point per column per sample tick. This is the observation every result
/// is computed from: [`ResilienceReport::from_log`] integrates the
/// satisfaction columns, and the telemetry columns become
/// `ScenarioResult::telemetry_means`. It grows with run length by design —
/// `sat_all_series` and `satfrac_series` are part of the result.
#[derive(Debug, Clone, Default)]
pub struct SampleLog {
    /// 0/1: the goal-model root ([`GOAL_NAME`]) is satisfied.
    pub goal: Series,
    /// 0/1: every requirement is satisfied.
    pub all: Series,
    /// Fraction of the requirements that are satisfied.
    pub satfrac: Series,
    /// 0/1 per requirement, in [`REQUIREMENT_NAMES`] order.
    pub requirements: [Series; REQUIREMENT_NAMES.len()],
    /// `ctl.availability`; no point on a tick without a control round.
    pub availability: Series,
    /// `ctl.latency_ms`; no point on a tick without a completed round.
    pub latency_ms: Series,
    /// `coverage`.
    pub coverage: Series,
    /// `freshness_s`; no point while no operational key has a consumer.
    pub freshness_s: Series,
    /// `privacy.violations`.
    pub privacy_violations: Series,
}

impl SampleLog {
    /// The telemetry columns under the names the requirements read them
    /// by, in name order.
    pub fn telemetry(&self) -> [(&'static str, &[(SimTime, f64)]); 5] {
        [
            ("coverage", &self.coverage),
            ("ctl.availability", &self.availability),
            ("ctl.latency_ms", &self.latency_ms),
            ("freshness_s", &self.freshness_s),
            ("privacy.violations", &self.privacy_violations),
        ]
    }
}

/// The *resilience integral*: the time-weighted mean of a satisfaction
/// series over `[from, to]`, holding the last value between points and
/// clamping values to `[0, 1]` — the fraction of the window during which
/// the requirement held. The gap before the first point counts as that
/// first point's value. `None` when the series is empty or the window is
/// degenerate.
pub fn time_weighted_mean(points: &[(SimTime, f64)], from: SimTime, to: SimTime) -> Option<f64> {
    integrate(points, from, to, true)
}

/// Like [`time_weighted_mean`] but without clamping — for series carrying
/// physical quantities rather than satisfaction indicators.
pub fn time_weighted_mean_raw(
    points: &[(SimTime, f64)],
    from: SimTime,
    to: SimTime,
) -> Option<f64> {
    integrate(points, from, to, false)
}

fn integrate(pts: &[(SimTime, f64)], from: SimTime, to: SimTime, clamp: bool) -> Option<f64> {
    let first = pts.first()?;
    if to <= from {
        return None;
    }
    let bound = |v: f64| if clamp { v.clamp(0.0, 1.0) } else { v };
    let mut acc = 0.0;
    let mut cur_t = from;
    // Value in force at `from`: the last point at or before it.
    let mut cur_v = pts
        .iter()
        .take_while(|(t, _)| *t <= from)
        .last()
        .map_or(first.1, |(_, v)| *v);
    for (t, v) in pts.iter().filter(|(t, _)| *t > from && *t <= to) {
        acc += (*t - cur_t).as_secs_f64() * bound(cur_v);
        cur_t = *t;
        cur_v = *v;
    }
    acc += (to - cur_t).as_secs_f64() * bound(cur_v);
    Some(acc / (to - from).as_secs_f64())
}

/// Per-requirement outcome over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequirementOutcome {
    /// Time-weighted satisfaction before the disruption window.
    pub baseline: f64,
    /// Time-weighted satisfaction during the disruption window — the
    /// resilience R of this requirement.
    pub resilience: f64,
    /// Number of distinct outages in the disruption window.
    pub outages: u32,
    /// Mean time to recovery in seconds (never-recovered outages censored
    /// at the window end); `None` when there was no outage.
    pub mttr_s: Option<f64>,
    /// The longest single outage in seconds.
    pub max_outage_s: f64,
}

riot_sim::impl_to_json_struct!(RequirementOutcome {
    baseline,
    resilience,
    outages,
    mttr_s,
    max_outage_s
});

/// Extracts an outcome from a 0/1 satisfaction series.
///
/// `split` separates the baseline window `[start, split)` from the
/// disruption window `[split, end]`.
pub fn outcome_from_series(
    points: &[(SimTime, f64)],
    start: SimTime,
    split: SimTime,
    end: SimTime,
) -> RequirementOutcome {
    // An empty series, like an empty window, is vacuously satisfied.
    let weighted = |from: SimTime, to: SimTime| time_weighted_mean(points, from, to).unwrap_or(1.0);

    // Outage extraction over the disruption window.
    let mut outages: Vec<f64> = Vec::new();
    let mut down_since: Option<SimTime> = None;
    for (t, v) in points.iter().filter(|(t, _)| *t >= split && *t <= end) {
        let sat = *v >= 0.5;
        match (sat, down_since) {
            (false, None) => down_since = Some(*t),
            (true, Some(since)) => {
                outages.push((*t - since).as_secs_f64());
                down_since = None;
            }
            _ => {}
        }
    }
    if let Some(since) = down_since {
        outages.push((end - since).as_secs_f64()); // censored at window end
    }

    let mttr_s = if outages.is_empty() {
        None
    } else {
        Some(outages.iter().sum::<f64>() / outages.len() as f64)
    };
    RequirementOutcome {
        baseline: weighted(start, split),
        resilience: weighted(split, end),
        outages: outages.len() as u32,
        mttr_s,
        max_outage_s: outages.iter().copied().fold(0.0, f64::max),
    }
}

/// The full resilience report of one scenario run.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Outcome per requirement (keyed by short name), plus the goal-model
    /// root under [`GOAL_NAME`] when the runner sampled it.
    pub requirements: BTreeMap<String, RequirementOutcome>,
    /// Baseline of the all-requirements-satisfied indicator.
    pub overall_baseline: f64,
    /// Resilience of the all-requirements-satisfied indicator.
    pub overall_resilience: f64,
    /// Mean satisfied fraction during the disruption window.
    pub mean_satisfaction: f64,
}

riot_sim::impl_to_json_struct!(ResilienceReport {
    requirements,
    overall_baseline,
    overall_resilience,
    mean_satisfaction
});

impl ResilienceReport {
    /// Builds the report from the sampler's log: one outcome per
    /// requirement and one for the goal-model root under [`GOAL_NAME`].
    pub fn from_log(
        log: &SampleLog,
        start: SimTime,
        split: SimTime,
        end: SimTime,
    ) -> ResilienceReport {
        let columns = REQUIREMENT_NAMES
            .iter()
            .zip(&log.requirements)
            .chain([(&GOAL_NAME, &log.goal)]);
        let requirements = columns
            .map(|(name, series)| {
                (
                    name.to_string(),
                    outcome_from_series(series, start, split, end),
                )
            })
            .collect();
        let all_outcome = outcome_from_series(&log.all, start, split, end);
        ResilienceReport {
            requirements,
            overall_baseline: all_outcome.baseline,
            overall_resilience: all_outcome.resilience,
            mean_satisfaction: time_weighted_mean(&log.satfrac, split, end).unwrap_or(1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_sim::SimRng;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn goal_model_tolerates_one_qos_facet_failing() {
        use riot_model::Verdict;
        use std::collections::BTreeMap;
        let reqs = standard_requirements(Thresholds::default());
        let goals = standard_goal_model();
        let telemetry = |lat: f64, fresh: f64| -> BTreeMap<String, f64> {
            [
                ("ctl.latency_ms".to_owned(), lat),
                ("ctl.availability".to_owned(), 1.0),
                ("coverage".to_owned(), 1.0),
                ("freshness_s".to_owned(), fresh),
                ("privacy.violations".to_owned(), 0.0),
            ]
            .into_iter()
            .collect()
        };
        // Freshness fails, latency holds: still acceptable (the ML1 shape).
        assert_eq!(
            goals.evaluate(&reqs, &telemetry(10.0, 1e6)).root,
            Verdict::Satisfied
        );
        // Latency fails, freshness holds: still acceptable.
        assert_eq!(
            goals.evaluate(&reqs, &telemetry(1e6, 1.0)).root,
            Verdict::Satisfied
        );
        // Both QoS facets fail: not acceptable.
        assert_eq!(
            goals.evaluate(&reqs, &telemetry(1e6, 1e6)).root,
            Verdict::Violated
        );
        // Privacy failing is never acceptable.
        let mut t = telemetry(10.0, 1.0);
        t.insert("privacy.violations".into(), 3.0);
        assert_eq!(goals.evaluate(&reqs, &t).root, Verdict::Violated);
    }

    #[test]
    fn standard_requirements_cover_the_five_concerns() {
        let reqs = standard_requirements(Thresholds::default());
        assert_eq!(reqs.len(), 5);
        let kinds: Vec<RequirementKind> = reqs.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&RequirementKind::Latency));
        assert!(kinds.contains(&RequirementKind::Privacy));
        assert_eq!(REQUIREMENT_NAMES.len(), 5);
    }

    #[test]
    fn outcome_full_satisfaction() {
        let pts = vec![(t(0), 1.0), (t(10), 1.0), (t(20), 1.0)];
        let o = outcome_from_series(&pts, t(0), t(10), t(20));
        assert_eq!(o.baseline, 1.0);
        assert_eq!(o.resilience, 1.0);
        assert_eq!(o.outages, 0);
        assert_eq!(o.mttr_s, None);
        assert_eq!(o.max_outage_s, 0.0);
    }

    #[test]
    fn outcome_single_recovered_outage() {
        // Satisfied until 12, violated [12, 16), satisfied after.
        let mut pts = vec![(t(0), 1.0)];
        for s in 1..30 {
            let v = if (12..16).contains(&s) { 0.0 } else { 1.0 };
            pts.push((t(s), v));
        }
        let o = outcome_from_series(&pts, t(0), t(10), t(30));
        assert_eq!(o.baseline, 1.0);
        assert!(
            (o.resilience - 0.8).abs() < 1e-9,
            "4s of 20s violated: {}",
            o.resilience
        );
        assert_eq!(o.outages, 1);
        assert_eq!(o.mttr_s, Some(4.0));
        assert_eq!(o.max_outage_s, 4.0);
    }

    #[test]
    fn outcome_unrecovered_outage_is_censored() {
        let mut pts = vec![(t(0), 1.0)];
        for s in 1..=20 {
            pts.push((t(s), if s >= 15 { 0.0 } else { 1.0 }));
        }
        let o = outcome_from_series(&pts, t(0), t(10), t(20));
        assert_eq!(o.outages, 1);
        assert_eq!(o.mttr_s, Some(5.0), "censored at the window end");
        assert!((o.resilience - 0.5).abs() < 1e-9);
    }

    #[test]
    fn outcome_multiple_outages() {
        let mut pts = Vec::new();
        for s in 0..=30 {
            let v = if (10..12).contains(&s) || (20..23).contains(&s) {
                0.0
            } else {
                1.0
            };
            pts.push((t(s), v));
        }
        let o = outcome_from_series(&pts, t(0), t(5), t(30));
        assert_eq!(o.outages, 2);
        assert_eq!(o.mttr_s, Some(2.5));
        assert_eq!(o.max_outage_s, 3.0);
    }

    #[test]
    fn empty_series_is_vacuously_satisfied() {
        let o = outcome_from_series(&[], t(0), t(10), t(20));
        assert_eq!(o.baseline, 1.0);
        assert_eq!(o.resilience, 1.0);
        assert_eq!(o.outages, 0);
    }

    #[test]
    fn report_from_log_collects_all_series() {
        let mut log = SampleLog::default();
        let latency = REQUIREMENT_NAMES.iter().position(|n| *n == "latency");
        let latency = latency.expect("a standard requirement");
        for s in 0..=20 {
            let ok = !(10..15).contains(&s);
            log.requirements[latency].push((t(s), if ok { 1.0 } else { 0.0 }));
            log.all.push((t(s), if ok { 1.0 } else { 0.0 }));
            log.satfrac.push((t(s), if ok { 1.0 } else { 0.5 }));
        }
        let r = ResilienceReport::from_log(&log, t(0), t(5), t(20));
        assert_eq!(r.requirements["latency"].outages, 1);
        assert!(r.overall_resilience < 1.0);
        assert_eq!(r.overall_baseline, 1.0);
        assert!(r.mean_satisfaction < 1.0);
        // A column nobody sampled is vacuously satisfied, and every name is
        // reported.
        assert_eq!(r.requirements["privacy"].resilience, 1.0);
        assert_eq!(r.requirements.len(), REQUIREMENT_NAMES.len() + 1);
        assert!(r.requirements.contains_key(GOAL_NAME));
    }

    #[test]
    fn time_weighted_mean_step_function() {
        // satisfied [0, 4), violated [4, 8), satisfied [8, 10]
        let sat = [(t(0), 1.0), (t(4), 0.0), (t(8), 1.0)];
        let r = time_weighted_mean(&sat, t(0), t(10)).unwrap();
        assert!((r - 0.6).abs() < 1e-9, "got {r}");
    }

    #[test]
    fn time_weighted_mean_window_subset() {
        let sat = [(t(0), 1.0), (t(5), 0.0)];
        // Window [5, 10]: fully violated.
        assert_eq!(time_weighted_mean(&sat, t(5), t(10)), Some(0.0));
        // Degenerate window.
        assert!(time_weighted_mean(&sat, t(5), t(5)).is_none());
        // A series that never got a point.
        assert!(time_weighted_mean(&[], t(0), t(1)).is_none());
    }

    #[test]
    fn time_weighted_mean_clamps_values() {
        let s = [(t(0), 7.0)];
        assert_eq!(time_weighted_mean(&s, t(0), t(1)), Some(1.0));
        assert_eq!(time_weighted_mean_raw(&s, t(0), t(1)), Some(7.0));
    }

    const CASES: usize = 500;

    /// The satisfaction integral is always in [0, 1].
    #[test]
    fn satisfaction_integral_bounds() {
        let mut rng = SimRng::seed_from(0x5EED_0003);
        for _ in 0..CASES {
            let n = rng.range_u64(1, 50) as usize;
            let mut points: Vec<(SimTime, f64)> = (0..n)
                .map(|_| (t(rng.range_u64(0, 100)), rng.range_f64(0.0, 1.0)))
                .collect();
            let window_end = rng.range_u64(101, 200);
            points.sort_by_key(|(at, _)| *at);
            let r = time_weighted_mean(&points, t(0), t(window_end))
                .expect("series present, window nonempty");
            assert!((0.0..=1.0).contains(&r), "integral out of bounds: {r}");
        }
    }

    #[test]
    fn satisfaction_integral_of_constant_series() {
        let mut rng = SimRng::seed_from(0x5EED_0004);
        for _ in 0..CASES {
            let v = rng.range_f64(0.0, 1.0);
            let n = rng.range_u64(1, 20);
            let points: Vec<(SimTime, f64)> = (0..n).map(|i| (t(i), v)).collect();
            let r = time_weighted_mean(&points, t(0), t(n + 5)).expect("series present");
            assert!(
                (r - v).abs() < 1e-9,
                "constant series integrates to itself: {r} vs {v}"
            );
        }
    }
}
