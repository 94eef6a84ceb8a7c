//! Tier-1 harness guarantees: merged output is byte-identical for any
//! worker count, and a panicking cell becomes a structured error row
//! without taking the rest of the grid down.

use riot_core::{Scenario, ScenarioResult, ScenarioSpec};
use riot_harness::{Cell, Grid, HarnessConfig};
use riot_model::MaturityLevel;
use riot_sim::ToJson;

fn config(threads: usize) -> HarnessConfig {
    HarnessConfig::from_env().quiet().threads(threads)
}

/// A small but real scenario grid: all four maturity levels, two seeds.
fn scenario_grid() -> Grid<ScenarioResult> {
    let mut grid = Grid::new();
    for level in MaturityLevel::ALL {
        for seed in [3u64, 4] {
            grid.cell(
                Cell::new(format!("t/{level}/s{seed}"), seed, move || {
                    let mut spec = ScenarioSpec::new(format!("t/{level}"), level, seed);
                    spec.edges = 2;
                    spec.devices_per_edge = 2;
                    spec.duration = riot_sim::SimDuration::from_secs(30);
                    spec.warmup = riot_sim::SimDuration::from_secs(5);
                    Scenario::build(spec).run()
                })
                .param("level", level),
            );
        }
    }
    grid
}

#[test]
fn merged_json_is_byte_identical_across_worker_counts() {
    let sequential = scenario_grid().run(&config(1));
    let parallel = scenario_grid().run(&config(4));
    assert_eq!(sequential.error_count(), 0);
    assert_eq!(parallel.error_count(), 0);
    assert_eq!(parallel.threads, 4.min(parallel.cells.len()));
    let a = sequential.to_json().render();
    let b = parallel.to_json().render();
    assert_eq!(a, b, "merged JSON must not depend on the worker count");
    // The merge is in grid order, not completion order.
    let ids: Vec<&str> = parallel.cells.iter().map(|rec| rec.id.as_str()).collect();
    assert_eq!(ids[0], "t/ML1/s3");
    assert_eq!(ids[7], "t/ML4/s4");
}

#[test]
fn panicking_cell_yields_error_row_and_the_rest_complete() {
    let mut grid = Grid::new();
    for i in 0..6u64 {
        grid.cell(Cell::new(format!("t/ok{i}"), i, move || i * 2));
    }
    grid.cell(Cell::new("t/boom", 99, || -> u64 {
        panic!("deliberate failure injected by the test")
    }));
    let report = grid.run(&config(4));

    assert_eq!(report.values().count(), 6);
    assert_eq!(report.error_count(), 1);
    let failed: Vec<_> = report.failed().collect();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].id, "t/boom");
    let err = failed[0].outcome.as_ref().unwrap_err();
    assert!(
        err.panic.contains("deliberate failure"),
        "panic payload should be captured: {err}"
    );
    // Healthy cells are unaffected and stay in grid order.
    let values: Vec<u64> = report.values().copied().collect();
    assert_eq!(values, vec![0, 2, 4, 6, 8, 10]);
    // The error row serializes as structured data, not a crash.
    let json = report.to_json().render();
    assert!(json.contains(r#""ok":false"#));
    assert!(json.contains("deliberate failure"));
}

#[test]
fn crashing_cell_ships_its_ring_trace_tail() {
    let mut grid = Grid::new();
    // A healthy cell that also runs a forensic ring must leave no residue
    // behind for a later crash on the same worker to pick up.
    grid.cell(Cell::new("t/clean", 1, || -> u64 {
        let mut sim: riot_sim::Sim<()> = riot_sim::SimBuilder::new(1).build();
        sim.add_observer(riot_sim::RingTrace::forensics(3));
        sim.annotate("healthy run");
        sim.run_to_completion();
        drop(sim);
        1
    }));
    grid.cell(Cell::new("t/crash", 2, || -> u64 {
        let mut sim: riot_sim::Sim<()> = riot_sim::SimBuilder::new(2).build();
        sim.add_observer(riot_sim::RingTrace::forensics(3));
        for i in 0..10 {
            sim.annotate(format!("step={i}"));
        }
        sim.run_to_completion();
        panic!("crash after annotating")
    }));
    // One worker forces both cells onto the same thread, exercising the
    // stale-forensics clearing between cells.
    let report = grid.run(&config(1));

    assert_eq!(report.values().count(), 1);
    let failed: Vec<_> = report.failed().collect();
    let err = failed[0].outcome.as_ref().unwrap_err();
    assert!(err.panic.contains("crash after annotating"));
    assert_eq!(
        err.trace_tail.len(),
        3,
        "the ring's capacity bounds the forensic tail: {err:?}"
    );
    assert!(
        err.trace_tail.iter().all(|line| line.contains("step=")),
        "tail lines carry the last events before the crash: {:?}",
        err.trace_tail
    );
    assert!(
        err.trace_tail.last().unwrap().contains("step=9"),
        "the newest event is last"
    );
    // The tail reaches the serialized report too.
    let json = report.to_json().render();
    assert!(json.contains(r#""trace_tail":["#), "{json}");
    // A tail-less error row omits the field entirely (see the panicking
    // grid test above), keeping old error rows byte-identical.
    let clean = riot_harness::CellError::message("plain");
    assert!(clean.trace_tail.is_empty());
}
