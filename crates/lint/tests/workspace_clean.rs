//! The tier-1 gate: linting the workspace itself must come back clean.
//! Any new HashMap iteration, ambient clock/entropy, unannotated panic
//! path in library code, or allocation/panic reachable from a declared
//! hot/entry root fails `cargo test` right here.

#[test]
fn workspace_has_no_violations() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = riot_lint::scan_workspace(&root).expect("workspace scan succeeds");
    // A sanity floor so a broken walker cannot vacuously pass: the
    // workspace has well over 80 Rust files.
    assert!(
        report.files_scanned > 80,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.clean(),
        "riot-lint found {} violation(s):\n{}",
        report.diagnostics.len(),
        rendered.join("\n")
    );
    // The call-graph pass must actually have run (lint-hotpaths.toml at
    // the workspace root) and resolved a healthy slice of the workspace —
    // a pass that silently indexed nothing would make A1/P2 vacuous.
    let graph = report.graph.expect("call-graph pass ran");
    assert!(
        graph.fns_indexed > 500,
        "suspiciously small symbol table: {} fns",
        graph.fns_indexed
    );
    assert_eq!(
        graph.hot_roots, 37,
        "hot roots declared in lint-hotpaths.toml"
    );
    assert_eq!(
        graph.entry_roots, 6,
        "entry roots declared in lint-hotpaths.toml"
    );
    // Floors at the counts of the tree that last touched the cones (the
    // kernel's `EventQueue` is reached through qualified calls — a rewrite
    // to `queue.pop()` would drop it from the hot cone unnoticed — and its
    // `PayloadSlab` through `hold`/`release`, names the method fallback
    // resolves; the look-ahead's `prefetch` implementations sit behind
    // `dyn Process` and are in the cone only as declared roots). Lower them
    // only with the removal of a reachable function. Last lowered, 236 → 229
    // and 379 → 367, when the built-in `Trace` and `Metrics`' gauges, series
    // and name-ordered iterators were deleted. Both cones lost
    // `SimEventKind::to_trace_kind`, `Trace::{on_event, name}`,
    // `Metrics::series_push_key`, `Interner::name` and `{Sim,
    // Ctx}::is_observing` (replaced by `{Sim, Ctx}::wants`); the hot cone
    // also `Metrics::gauge_set_key` and `Sim::metrics_mut`; the entry cone
    // also `Trace::{new, entries, is_enabled}`, `Sim::trace`,
    // `SimBuilder::tracing`, `Metrics::{series, series_names}`,
    // `{Interner, SymbolTable}::indices_by_name`, `SampleKeys::new` and
    // `ResilienceReport::from_metrics`, while the integral moved crates
    // (`core::resilience::{integrate, time_weighted_mean,
    // time_weighted_mean_raw}`) and `ResilienceReport::from_log`,
    // `SampleLog::telemetry` and `MapeHost::{new, stats}` joined it.
    assert!(
        graph.hot_reachable >= 229,
        "hot cone shrank: {} fns",
        graph.hot_reachable
    );
    assert!(
        graph.entry_reachable >= 367,
        "entry cone shrank: {} fns",
        graph.entry_reachable
    );
}
