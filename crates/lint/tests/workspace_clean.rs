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
        graph.hot_roots, 30,
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
    // only with the removal of a reachable function. Last lowered, 229 → 210
    // and 367 → 350, when the stream operators became the closed `StreamOp`
    // enum and the kernel lost its `Down`/`Up` events. Both cones lost
    // `Operator::name` and its five overrides, `Filter::on_event`,
    // `Map::on_event`, the blanket downcast impl's `as_any`, the four
    // sample-sink `push_sample` impls and the sliding window's own (with
    // `SimTime::from_micros` and, through the method fallback on
    // `.capacity()`, `RingTrace::capacity`, which only it called); the entry
    // cone also `Operator::interest`, its four overrides and `as_any_mut`;
    // the hot cone also `CountByKey::{observe, slot}` and — with `step`'s
    // `Down` arm — `Sim::set_down` and `Process::on_down`, which now run
    // only from injections (boxed closures the graph never saw into).
    // `StreamOp::on_event` joined both, `StreamOp::interest` and
    // `StreamPipeline`'s three typed accessors the entry cone. The four
    // stream leaves (`OnlineStats::record`, `QuantileSketch::record`,
    // `CountByKey::observe_slot`, `TumblingWindow::push_sample`) are no
    // longer declared roots: the graph reaches them from
    // `StreamPipeline::on_event` through the `match`. Raised since, 210 →
    // 211 and 350 → 371, when the scenario began stepping its monitor bank
    // itself: `OnlineMonitor::step_valuation` is no longer a declared root
    // (30 left) because `Scenario::sample` reaches it by a qualified call,
    // with `Valuation::from_bits` new beside it; the entry cone gained the
    // bank's step (`Monitor::{step, miss}`, `progress` and its helpers), the
    // spec's monitor check (`ScenarioSpec::checked_monitors`,
    // `MonitorSpec::watch_on`, `valuation_bank`, `Parser::atom`), the
    // outcome harvest, `Scenario::advance_to` and `disrupt.rs`'s `network`
    // and `restore_after`, and lost three removed accessors (the stream
    // kinds' row name and list, the bank's observer name) — plus four `validate`/
    // `states`/`successors` methods of `Dtmc` and `Kripke` that only the
    // method fallback on `spec.validate()` had pulled in. Raised again, 211
    // → 213 and 371 → 375, with link-scoped route forgetting in `riot-net`:
    // under `net::Network::route` the hot cone lost `resolve_hops`,
    // `cold_hops`, `path_indices`, `dijkstra`, `key` and (the weight is
    // worked out when a link is set) `LatencyModel::mean`, and gained
    // `lookup`, `fresh`, `RouteTable::{hops, put}`, `resolve`, `search`,
    // `Search::chain` and `LinkSlot::other`; under `Scenario::build` the entry
    // cone lost `clear_routes` and `key` and gained `link_id`, `tick`,
    // `forgot`, `heal_is_local`, `LinkSlot::cut_at` and — the method
    // fallback on `weight.saturating_add(..)` — `SimTime::saturating_add`.
    assert!(
        graph.hot_reachable >= 213,
        "hot cone shrank: {} fns",
        graph.hot_reachable
    );
    assert!(
        graph.entry_reachable >= 375,
        "entry cone shrank: {} fns",
        graph.entry_reachable
    );
}
