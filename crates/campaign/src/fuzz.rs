//! The monitor-oracle scenario fuzzer: seeded campaigns run against a
//! deliberately weakened deployment, judged by online LTL monitors.
//!
//! The oracle is [`riot_core::ScenarioResult::failed_monitors`]: a
//! campaign *finds* something when a monitored property fails to hold at
//! end of run ([`Finding::Violated`]) or the run panics under the
//! harness's cell isolation ([`Finding::Crash`]). Case generation,
//! scheduling and execution all run through [`riot_harness::fuzz_grid`],
//! so a sweep is a pure function of `(space, plan)` and byte-identical
//! across worker counts.

use crate::gen::{generate, mutate_in_place, CampaignSpace};
use crate::program::{CampaignProgram, Expectation, ScenarioParams};
use riot_core::{MonitorSpec, Scenario};
use riot_formal::Verdict3;
use riot_harness::{fuzz_grid, FuzzPlan, FuzzReport, HarnessConfig};
use riot_sim::SimRng;

/// One thing a campaign run found.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// A monitored property failed to hold at end of run.
    Violated {
        /// Monitor name (from the program's `oracle` directives).
        monitor: String,
        /// The monitor's three-valued verdict (`Violated` for definite
        /// violations, `Inconclusive` for unmet pending obligations).
        verdict: Verdict3,
        /// Virtual time of the first definite violation, when there was
        /// one.
        first_violation_s: Option<f64>,
    },
    /// The run panicked (isolated by the harness cell).
    Crash {
        /// The panic payload.
        panic: String,
    },
}

impl Finding {
    /// The regression expectation this finding reduces to.
    pub fn expectation(&self) -> Expectation {
        match self {
            Finding::Violated { monitor, .. } => Expectation::Violated {
                monitor: monitor.clone(),
            },
            Finding::Crash { .. } => Expectation::Crash,
        }
    }

    /// `true` when this finding satisfies `expected`.
    pub fn matches(&self, expected: &Expectation) -> bool {
        match (self, expected) {
            (Finding::Violated { monitor, .. }, Expectation::Violated { monitor: want }) => {
                monitor == want
            }
            (Finding::Crash { .. }, Expectation::Crash) => true,
            _ => false,
        }
    }
}

/// The standard weakened fuzzing target: a small ML2 deployment whose only
/// MAPE loop is cloud-placed (severing the cloud leaves component faults
/// unrepaired), with a coverage safety oracle plus coverage/availability
/// recovery oracles — all three hold on an undisrupted run of this shape,
/// so every finding is caused by the campaign. This is where the committed
/// reproducers under `tests/campaigns/` come from.
pub fn weakened_space() -> CampaignSpace {
    let mut space = CampaignSpace::new(ScenarioParams::default());
    space
        .oracles
        .push(MonitorSpec::new("coverage_safe", "G coverage"));
    space.oracles.push(MonitorSpec::new(
        "coverage_recovers",
        "G (!coverage -> F coverage)",
    ));
    space.oracles.push(MonitorSpec::new(
        "availability_recovers",
        "G (!availability -> F availability)",
    ));
    space
}

/// The deterministic candidate program of one fuzz case: a generated
/// campaign plus `case_seed % 3` mutation steps (so the mutator is
/// exercised on a third of the corpus), named after the seed for
/// regeneration.
pub fn case_program(space: &CampaignSpace, case_seed: u64) -> CampaignProgram {
    let mut rng = SimRng::seed_from(case_seed);
    let mut campaign = generate(space, &mut rng);
    for _ in 0..(case_seed % 3) {
        mutate_in_place(&mut campaign, space, &mut rng);
    }
    let mut program = CampaignProgram::new(format!("fuzz-{case_seed:016x}"));
    program.scenario = space.scenario;
    program.oracles = space.oracles.clone();
    program.campaign = campaign;
    program
}

/// Runs a program to completion *in this thread* and returns its findings
/// (monitor failures only — a panic propagates; use [`run_isolated`] to
/// convert panics into [`Finding::Crash`]).
pub(crate) fn run_program(program: &CampaignProgram) -> Vec<Finding> {
    let result = Scenario::build(program.spec()).run();
    result
        .failed_monitors()
        .map(|m| Finding::Violated {
            monitor: m.name.clone(),
            verdict: m.verdict,
            first_violation_s: m.first_violation_s,
        })
        .collect()
}

/// Runs a program inside a single harness cell: a panic becomes a
/// [`Finding::Crash`] row instead of unwinding into the caller. This is
/// the execution mode the fuzzer and shrinker use for every candidate.
pub fn run_isolated(program: &CampaignProgram, config: &HarnessConfig) -> Vec<Finding> {
    use riot_harness::{Cell, Grid};
    let mut grid: Grid<Vec<Finding>> = Grid::new();
    let candidate = program.clone();
    let seed = program.scenario.seed;
    grid.cell(Cell::new(program.name.clone(), seed, move || {
        run_program(&candidate)
    }));
    let mut report = grid.run(&config.clone().quiet());
    match report.cells.remove(0).outcome {
        Ok(findings) => findings,
        Err(e) => vec![Finding::Crash { panic: e.panic }],
    }
}

/// Runs a seeded fuzz sweep over a campaign space: `plan.budget` candidate
/// programs, each generated from its case seed via [`case_program`],
/// executed on the worker pool and judged by the monitor oracles. Crashing
/// candidates become crash rows carrying the regenerated program.
pub fn fuzz_space(
    space: &CampaignSpace,
    plan: &FuzzPlan,
    config: &HarnessConfig,
) -> FuzzReport<CampaignProgram, Vec<Finding>> {
    let gen_space = space.clone();
    fuzz_grid(
        plan,
        config,
        move |case_seed| case_program(&gen_space, case_seed),
        |program: &CampaignProgram| {
            let findings = run_program(program);
            if findings.is_empty() {
                None
            } else {
                Some(findings)
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Campaign;
    use crate::vector::CampaignVector;

    /// The deliberate weakness, by hand: a permanent cloud blackout before
    /// a fault storm leaves ML2's cloud-placed MAPE blind, so the faulted
    /// devices stay dark and `G coverage` is definitely violated.
    fn blackout_storm() -> CampaignProgram {
        let space = weakened_space();
        let mut p = CampaignProgram::new("blackout-storm");
        p.scenario = space.scenario;
        p.oracles = space.oracles.clone();
        p.campaign = Campaign::new();
        p.campaign
            .push(CampaignVector::CloudBlackout { onset: 14, heal: 0 });
        p.campaign.push(CampaignVector::FaultStorm {
            onset: 20,
            spacing: 1,
            per_edge: 2,
            stride: 1,
            offset: 0,
        });
        p.expect.push(Expectation::Violated {
            monitor: "coverage_safe".to_owned(),
        });
        p
    }

    #[test]
    fn weakened_deployment_has_a_findable_violation() {
        let p = blackout_storm();
        let findings = run_program(&p);
        assert!(
            findings.iter().any(|f| matches!(
                f,
                Finding::Violated { monitor, verdict, first_violation_s: Some(t) }
                    if monitor == "coverage_safe" && *verdict == Verdict3::Violated && *t >= 20.0
            )),
            "blackout + storm must violate G coverage: {findings:?}"
        );
        assert!(findings.iter().all(|f| f.matches(&f.expectation())));
    }

    #[test]
    fn isolated_and_direct_runs_agree() {
        let p = blackout_storm();
        let direct = run_program(&p);
        let isolated = run_isolated(&p, &HarnessConfig::with_threads(1));
        assert_eq!(direct, isolated);
        assert!(!direct.is_empty());
    }

    #[test]
    fn case_programs_are_regenerable_and_seed_distinct() {
        let space = weakened_space();
        let a = case_program(&space, 0xfeed);
        let b = case_program(&space, 0xfeed);
        assert_eq!(a, b, "pure function of the case seed");
        let c = case_program(&space, 0xbeef);
        assert_ne!(a.campaign, c.campaign);
        assert_eq!(a.oracles.len(), 3);
        // Round-trips through the DSL like any other program.
        let back = CampaignProgram::parse(&a.render()).expect("parses");
        assert_eq!(back, a);
    }

    /// The vectors of the first ten case programs, which draw every kind.
    /// Pins `generate`'s draw order and, through `case_seed % 3`, that of
    /// `mutate_in_place`.
    #[test]
    fn case_programs_draw_as_pinned() {
        let space = weakened_space();
        let drawn: Vec<Vec<String>> = (0..10)
            .map(|seed| {
                let rendered = case_program(&space, seed).render();
                rendered
                    .lines()
                    .filter_map(|l| l.strip_prefix("vector "))
                    .map(str::to_owned)
                    .collect()
            })
            .collect();
        let pinned: [&[&str]; 10] = [
            &["split-brain onset=31 heal=7"],
            &["split-brain onset=36 heal=20"],
            &["fault-storm onset=27 spacing=5 per-edge=3 stride=1 offset=0"],
            &[
                "adversary onset=32 mode=flap factor=11 duration=8 links=2",
                "adversary onset=44 mode=delay factor=5 duration=24 links=2",
                "cascade onset=38 count=3 spacing=2 recover=10",
                "split-brain onset=38 heal=0",
            ],
            &["cloud-blackout onset=18 heal=12"],
            &[
                "mobility-burst onset=34 roamers=3 spacing=6",
                "cascade onset=36 count=2 spacing=6 recover=14",
                "cascade onset=41 count=2 spacing=3 recover=15",
            ],
            &["firmware-wave onset=22 batch=2 spacing=4 outage=27"],
            &[
                "adversary onset=21 mode=drop factor=14 duration=0 links=1",
                "firmware-wave onset=35 batch=3 spacing=8 outage=23",
                "cascade onset=22 count=3 spacing=1 recover=0",
                "fault-storm onset=30 spacing=4 per-edge=3 stride=3 offset=1",
            ],
            &["mobility-burst onset=42 roamers=1 spacing=2"],
            &[
                "mobility-burst onset=46 roamers=3 spacing=9",
                "jurisdiction-flip onset=28 edge=1",
                "cloud-blackout onset=42 heal=29",
            ],
        ];
        assert_eq!(drawn, pinned);
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        let space = weakened_space();
        let plan = FuzzPlan::new(7, 4);
        let serial = fuzz_space(&space, &plan, &HarnessConfig::with_threads(1).quiet());
        let parallel = fuzz_space(&space, &plan, &HarnessConfig::with_threads(4).quiet());
        assert_eq!(serial.executed(), 4);
        for (a, b) in serial.cases.iter().zip(parallel.cases.iter()) {
            assert_eq!(a.case, b.case);
            match (&a.outcome, &b.outcome) {
                (Ok(x), Ok(y)) => assert_eq!(x, y),
                (Err(x), Err(y)) => assert_eq!(x.panic, y.panic),
                _ => panic!("outcome kind diverged"),
            }
        }
    }
}
