//! E3 — Figure 2: verification of system models against resilience
//! properties.
//!
//! Figure 2 of the paper is the classical verification square: a facet of
//! the IoT system model is checked against a resilience property. This
//! experiment exercises all three verification modes the paper calls for
//! (§IV-B):
//!
//! 1. **Design-time CTL model checking** of recoverability (`AG EF up`) on
//!    explicit-state models from 10² to 10⁵ states (throughput reported);
//! 2. **Runtime LTL monitoring** of a live scenario's satisfaction trace;
//! 3. **Statistical model checking**: the probability that an ML4 system
//!    recovers coverage within 15 s of a component fault, with a Wilson
//!    interval, plus an SPRT threshold test.
//!
//! The CTL facet checks and the Bernoulli recovery trials run as
//! `riot-harness` grids (each cell seeds its own `SimRng`, so cells are
//! independent and the sweep parallelizes); SPRT consumes pre-computed
//! trial batches until it decides. Wall-clock throughput numbers appear
//! in the printed tables only — the JSON artifact carries none, keeping
//! it byte-identical across runs and thread counts.

use riot_bench::{banner, f3, sweep_config_from_args, write_json};
use riot_core::{MonitorSpec, Scenario, ScenarioSpec, Table};
use riot_formal::{
    estimate_probability, parse_ctl, parse_ltl, Atoms, CtlChecker, Dtmc, Kripke, Monitor, Sprt,
    SprtDecision, StateId, Valuation, Verdict3,
};
use riot_harness::{Cell, Grid, HarnessConfig};
use riot_model::{ComponentId, Disruption, DisruptionSchedule, MaturityLevel};
use riot_sim::{SimDuration, SimRng, SimTime};

struct CtlRow {
    states: usize,
    transitions: usize,
    recoverable_holds: bool,
    response_holds: bool,
}
riot_sim::impl_to_json_struct!(CtlRow {
    states,
    transitions,
    recoverable_holds,
    response_holds
});

struct Output {
    ctl: Vec<CtlRow>,
    monitor_verdict: String,
    monitor_steps: usize,
    recovery_probability: f64,
    recovery_lo: f64,
    recovery_hi: f64,
    sprt_decision: String,
    sprt_observations: usize,
    dtmc_availability: f64,
    dtmc_recover_10s: f64,
    online_verdict: String,
    online_steps: usize,
    online_matches_replay: bool,
    online_first_violation_s: Option<f64>,
}
riot_sim::impl_to_json_struct!(Output {
    ctl,
    monitor_verdict,
    monitor_steps,
    recovery_probability,
    recovery_lo,
    recovery_hi,
    sprt_decision,
    sprt_observations,
    dtmc_availability,
    dtmc_recover_10s,
    online_verdict,
    online_steps,
    online_matches_replay,
    online_first_violation_s
});

fn main() {
    banner(
        "E3",
        "Figure 2 (system model ⊨ resilience property)",
        "design-time checking scales to 10^5-state facets; runtime monitors verdict live traces; statistical MC bounds recovery probability",
    );
    let config = sweep_config_from_args();

    // ---- 1. Design-time CTL checking at increasing scale: one harness
    // cell per facet size, each with its own derived seed so the facets
    // are independent of execution order.
    println!("CTL model checking of resilience patterns on random model facets:\n");
    let mut table = Table::new(&[
        "states",
        "transitions",
        "AG EF p0 (recoverable)",
        "AG(p1 -> AF p2) (responds)",
        "time",
        "states/s",
    ]);
    let mut grid = Grid::new();
    for (i, states) in [100usize, 1_000, 10_000, 100_000].into_iter().enumerate() {
        let seed = 99 + i as u64;
        grid.cell(
            Cell::new(format!("e3/ctl/{states}"), seed, move || {
                // Properties are written in their textual syntax, as a
                // requirements document would hold them; atoms p0..p2
                // match the labeling of `Kripke::random(_, _, 3, _)`.
                let mut atoms = Atoms::new();
                let recoverable = parse_ctl("AG EF p0", &mut atoms).expect("well-formed");
                let responds = parse_ctl("AG (p1 -> AF p2)", &mut atoms).expect("well-formed");
                let mut rng = SimRng::seed_from(seed);
                let k = Kripke::random(states, 4, 3, &mut rng);
                let checker = CtlChecker::new(&k);
                CtlRow {
                    states,
                    transitions: k.transition_count(),
                    recoverable_holds: checker.holds_initially(&recoverable),
                    response_holds: checker.holds_initially(&responds),
                }
            })
            .param("states", states),
        );
    }
    let ctl_report = grid.run(&config);
    ctl_report.report_failures();
    for rec in &ctl_report.cells {
        if let Ok(row) = &rec.outcome {
            let elapsed = rec.wall.as_secs_f64();
            table.row(vec![
                row.states.to_string(),
                row.transitions.to_string(),
                row.recoverable_holds.to_string(),
                row.response_holds.to_string(),
                format!("{:.1}ms", elapsed * 1e3),
                format!("{:.0}", row.states as f64 / elapsed.max(1e-9)),
            ]);
        }
    }
    let ctl_rows: Vec<CtlRow> = ctl_report.into_values();
    println!("{}", table.render());

    // ---- 2. Runtime monitoring of a live scenario trace.
    println!("Runtime LTL monitor over a live ML4 scenario:\n");
    let mut atoms = Atoms::new();
    // The resilience property, in the textual syntax a requirements
    // document would carry: the system is never *permanently* broken.
    let phi = parse_ltl("G (!healthy -> F healthy)", &mut atoms).expect("well-formed");
    let healthy = atoms.lookup("healthy").expect("interned by the parser");
    let mut monitor = Monitor::new(phi);

    let mut spec = ScenarioSpec::new("monitored", MaturityLevel::Ml4, 5);
    spec.duration = SimDuration::from_secs(90);
    let fault_dev = spec.device_id(1, 2);
    spec.disruptions = DisruptionSchedule::new().at(
        SimTime::from_secs(40),
        Disruption::ComponentFault {
            node: fault_dev,
            component: ComponentId(fault_dev.0 as u32),
        },
    );
    // The same property also runs *online*, advanced per sample on the
    // observability bus while the scenario executes; the post-hoc replay
    // below stays as the correctness oracle it is compared against.
    spec.monitors = vec![MonitorSpec::new("recovers", "G (!all -> F all)")];
    let scenario = Scenario::build(spec);
    let result = scenario.run();
    // Feed the recorded sat.all series into the monitor as a trace.
    let trace: Vec<Valuation> = result
        .sat_all_series
        .iter()
        .map(|(_, v)| {
            let mut val = Valuation::EMPTY;
            val.set(healthy, *v >= 0.5);
            val
        })
        .collect();
    for s in &trace {
        monitor.step(*s);
    }
    let verdict = monitor.verdict();
    println!(
        "  property: G(!healthy -> F healthy)   verdict after {} samples: {:?} (finish: {})",
        monitor.steps(),
        verdict,
        monitor.finish()
    );
    assert_ne!(verdict, Verdict3::Violated, "the ML4 run recovered");

    // The online monitor watched the identical satisfaction stream live;
    // its verdict must agree with the post-hoc replay sample for sample.
    let online = result
        .monitors
        .iter()
        .find(|o| o.name == "recovers")
        .expect("online monitor outcome");
    assert_eq!(
        online.verdict, verdict,
        "online verdict must match the post-hoc replay"
    );
    assert_eq!(online.steps, monitor.steps(), "same number of samples");
    assert_eq!(online.holds_at_end, monitor.finish(), "same residual");
    println!(
        "  online:   {} after {} samples (holds at end: {}) — matches replay",
        online.verdict.name(),
        online.steps,
        online.holds_at_end
    );

    // ---- 2b. Probabilistic model checking: the quantitative side of
    // Figure 2 without sampling — a DTMC of the component under the E6
    // fault/repair rates.
    let mut chain = Dtmc::new(2);
    let (up, down) = (StateId(0), StateId(1));
    chain.set_transition(up, down, 0.01);
    chain.set_transition(up, up, 0.99);
    chain.set_transition(down, up, 0.2);
    chain.set_transition(down, down, 0.8);
    chain.validate().expect("stochastic");
    let pi = chain.stationary(50_000);
    let p_recover_10 = chain.reach_within(&[up], 10)[down.index()];
    println!(
        "\nDTMC (fail 0.01/s, repair 0.2/s): long-run availability = {:.4}, \
         P(recover <= 10s) = {:.4}",
        pi[up.index()],
        p_recover_10
    );

    // ---- 3. Statistical model checking of recovery probability. The 60
    // Wilson-interval trials are one grid; the estimator then replays the
    // pre-computed outcomes in trial order.
    println!("\nStatistical MC: P(coverage recovers within 15s of a component fault) at ML4:\n");
    let trials = trial_batch(&config, 0, 60, |i| i * 7 + 1);
    let est = estimate_probability(60, 0.95, |i| trials.get(i).copied().unwrap_or(false));
    println!(
        "  n={}  p̂={}  95% Wilson interval [{}, {}]",
        est.n,
        f3(est.mean),
        f3(est.lo),
        f3(est.hi)
    );
    // SPRT: is P(recovery) >= 0.9 (vs <= 0.6)? Trials are produced in
    // parallel batches and consumed sequentially until the test decides,
    // so the decision and observation count match a sequential run while
    // only one (usually) batch of simulations is actually executed.
    let mut sprt = Sprt::new(0.6, 0.9, 0.05, 0.05);
    let mut decision = SprtDecision::Undecided;
    let mut consumed = 0u64;
    const BATCH: u64 = 25;
    const MAX_TRIALS: u64 = 200;
    while decision == SprtDecision::Undecided && consumed < MAX_TRIALS {
        let batch = trial_batch(&config, consumed, BATCH.min(MAX_TRIALS - consumed), |i| {
            i * 13 + 5
        });
        for outcome in batch {
            decision = sprt.observe(outcome);
            consumed += 1;
            if decision != SprtDecision::Undecided {
                break;
            }
        }
    }
    println!(
        "  SPRT (H1: p>=0.9 vs H0: p<=0.6, α=β=0.05): {:?} after {} trials",
        decision,
        sprt.observations()
    );

    write_json(
        "e3_verification",
        &Output {
            ctl: ctl_rows,
            monitor_verdict: verdict.name().to_owned(),
            monitor_steps: monitor.steps(),
            recovery_probability: est.mean,
            recovery_lo: est.lo,
            recovery_hi: est.hi,
            sprt_decision: format!("{decision:?}"),
            sprt_observations: sprt.observations(),
            dtmc_availability: pi[up.index()],
            dtmc_recover_10s: p_recover_10,
            online_verdict: online.verdict.name().to_owned(),
            online_steps: online.steps,
            online_matches_replay: online.verdict == verdict && online.steps == monitor.steps(),
            online_first_violation_s: online.first_violation_s,
        },
    );
}

/// Runs Bernoulli recovery trials `start..start + count` as a harness
/// grid, returning outcomes in trial order. `seed_of` maps a trial index
/// to its scenario seed (the same mapping the sequential code used).
fn trial_batch(
    config: &HarnessConfig,
    start: u64,
    count: u64,
    seed_of: impl Fn(u64) -> u64,
) -> Vec<bool> {
    let mut grid = Grid::new();
    for i in start..start + count {
        let seed = seed_of(i);
        grid.cell(Cell::new(format!("e3/smc/t{i}"), seed, move || {
            recovery_trial(seed)
        }));
    }
    let report = grid.run(config);
    report.report_failures();
    report
        .cells
        .iter()
        .map(|rec| rec.outcome.as_ref().copied().unwrap_or(false))
        .collect()
}

/// One Bernoulli trial: a short ML4 run with a component fault; success if
/// coverage recovered within 15 s (MTTR below bound and not censored).
fn recovery_trial(seed: u64) -> bool {
    let mut spec = ScenarioSpec::new("smc", MaturityLevel::Ml4, seed);
    spec.edges = 2;
    spec.devices_per_edge = 4;
    spec.duration = SimDuration::from_secs(45);
    spec.warmup = SimDuration::from_secs(10);
    let dev = spec.device_id(0, 1);
    spec.disruptions = DisruptionSchedule::new().at(
        SimTime::from_secs(15),
        Disruption::ComponentFault {
            node: dev,
            component: ComponentId(dev.0 as u32),
        },
    );
    let result = Scenario::build(spec).run();
    let cov = &result.report.requirements["coverage"];
    match cov.mttr_s {
        Some(mttr) => mttr <= 15.0,
        None => true, // never even dipped below threshold
    }
}
