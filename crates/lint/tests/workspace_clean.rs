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
        graph.hot_roots, 26,
        "hot roots declared in lint-hotpaths.toml"
    );
    // Nine since `formal::parse_ltl` and `formal::parse_ctl` joined
    // `campaign::CampaignProgram::parse` as hostile-input parsers; ten since
    // the kernel applies the scenario's disruptions through its world's
    // `inject`, a generic call the graph cannot follow, so
    // `core::ScenarioWorld::inject` is declared.
    assert_eq!(
        graph.entry_roots, 10,
        "entry roots declared in lint-hotpaths.toml"
    );
    // Floors at the counts of the tree that last touched the cones (the
    // kernel's `EventQueue` is reached through qualified calls — a rewrite
    // to `queue.pop()` would drop it from the hot cone unnoticed — and its
    // `PayloadSlab` through `hold`/`release`, names the method fallback
    // resolves; the look-ahead's `prefetch` implementations are reached from
    // the world's node type only by method name, so the ones that matter
    // are declared roots). Lower them
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
    // Raised again, 213 → 226 and 375 → 422, when the scenario's `Sim` ran
    // over its own closed world (the tree before it read 221 and 416). The
    // hot cone lost `Sim::process` and, through the method fallback on its
    // `.as_any()`, both blanket downcast impls' `as_any`; it gained the node
    // enum's `Node::prefetch` and the boxed world's forwarding
    // `Box::{on_start, on_message, on_timer, prefetch}` (the step loop's
    // calls on the node type resolve by method name), and `Sim::node` with,
    // by the same fallback, `GoalModel::node` and `Network::node`. The entry
    // cone lost `disrupt.rs`'s `network` and `restore_after`, `Sim::{
    // add_process, process, process_mut, schedule_injection}`,
    // `SimBuilder::build_with_medium`, the old blanket impl's `as_any` and
    // `as_any_mut` and both test media's `as_any_mut`; it gained the new
    // root with `disrupt::{inject, heal_after}`, `Sim::{add_node, inject_at,
    // node, node_mut}`, `SimBuilder::build_world`, the moved blanket impl's
    // two methods, the four `Box` forwards, `DisruptionSchedule::events`,
    // `GoalModel::node` and `Network::node`. Lowered, 226 → 223 and 422 →
    // 421, when the sampler began reading freshness from the consuming
    // stores and the slab's consumer-freshness mirror was deleted, with
    // its four declared roots (31 → 27). The hot cone lost the mirror
    // type's `on_record`, `on_evict` and `slot`, the slab's two writers
    // of the mirrored columns (record landed, record gone) and, through
    // the method fallback on the mirror's `key.index()`, `StateId::index`
    // and `AtomId::index`; it gained `Scenario::freshness`,
    // `ReplicatedStore::{staleness_secs_key, get_key}` and
    // `DataMeta::age_secs`. The entry cone lost the store's probe setter,
    // the cloud's and the edge's probe installers, the builder's mirror
    // factory and the mirror's `new`, and gained the same four as the hot
    // cone. Lowered, 223 → 205 and 421 → 407, when the node-state slab
    // became the world's shared state and its liveness observer was
    // deleted with its declared root (27 → 26). The step loop dispatches
    // through the world's `W::on_start`/`W::on_message`/`W::on_timer`/
    // `W::prefetch`, qualified calls on a generic the graph resolves to
    // nothing, where the old `p.on_message(..)` method calls reached, by
    // name, `Process::{on_start, on_timer}` (and, in the entry cone,
    // `Process::prefetch`), the boxed world's four `Box` forwards (deleted)
    // and the test process `kernel_props::Lives`'s handlers with the `Ctx`
    // methods only they called (`id`, `schedule`, and in the hot cone
    // `now`, `rng` and `send`; `Kernel::schedule_timer` left the entry
    // cone, `Sim::{now, set_up}` the hot one). Both cones lost
    // `SlabLiveness`'s methods (`on_event` and `slot_of`; `new` and
    // `name`); `SlabInner::{expire, set_flag}` became `NodeSlab`'s, and
    // `Node::prefetch` `ScenarioWorld::prefetch`. Both gained
    // `Sim::shared_mut`; the hot cone `DynWorld::prefetch` (the method
    // fallback on `slab.prefetch(..)`), the entry cone `disrupt.rs`'s
    // `note_liveness`. Read again, 205 and 413 at the tree before → 205 and
    // 410, when integration-test files (`crates/*/tests/`, `tests/`) became
    // test code and the slab's freshness wheel a ring of buckets. Both
    // cones lost the test-only functions the method fallback had reached:
    // `kernel_props::DownIsDown::{is_up, on_event, set}` and
    // `logic_props::oracle::verdict_of`; the entry cone also
    // `kernel_props::Lives::send`, `logic_props::oracle::OldMonitor::finish`
    // and, which only `Lives` called, `Ctx::rng` and `SimRng::range_u64`.
    // Both gained `NodeSlab::{bucket_of, sweep}` and the queued events'
    // `Pid::{of, process_id}`; the entry cone `Kernel::next_epoch`.
    assert!(
        graph.hot_reachable >= 205,
        "hot cone shrank: {} fns",
        graph.hot_reachable
    );
    assert!(
        graph.entry_reachable >= 410,
        "entry cone shrank: {} fns",
        graph.entry_reachable
    );
}
