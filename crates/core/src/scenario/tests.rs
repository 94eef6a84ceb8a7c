//! Unit tests of the scenario engine, the rescan-oracle comparison among
//! them.

#![cfg(test)]

use super::*;
use crate::observe::{MonitorError, MonitorSpec, StreamSpec};
use riot_formal::Verdict3;
use riot_model::{Disruption, DisruptionSchedule, MaturityLevel};
use riot_sim::{SimDuration, SimEvent, ToJson};

fn small(level: MaturityLevel) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("unit", level, 42);
    spec.edges = 2;
    spec.devices_per_edge = 2;
    spec.duration = SimDuration::from_secs(30);
    spec.warmup = SimDuration::from_secs(10);
    spec
}

#[test]
fn id_layout_is_deterministic() {
    let spec = small(MaturityLevel::Ml4);
    assert_eq!(spec.cloud_id(), ProcessId(0));
    assert_eq!(spec.edge_id(0), ProcessId(1));
    assert_eq!(spec.edge_id(1), ProcessId(2));
    assert_eq!(spec.device_id(0, 0), ProcessId(3));
    assert_eq!(spec.device_id(1, 1), ProcessId(6));
    assert_eq!(spec.device_count(), 4);
}

#[test]
#[should_panic(expected = "out of range")]
fn bad_edge_index_panics() {
    let _ = small(MaturityLevel::Ml4).edge_id(9);
}

#[test]
fn build_matches_layout() {
    let spec = small(MaturityLevel::Ml4);
    let scenario = Scenario::build(spec.clone());
    assert_eq!(scenario.devices().len(), 4);
    let devices: Vec<DeviceInfo> = scenario.devices().collect();
    assert_eq!(devices[0].id, spec.device_id(0, 0));
    assert!(devices[0].personal, "device 0 is personal at every=4");
    assert!(!devices[1].personal);
}

/// What `Scenario::devices` derives from the spec is what the build laid
/// out: the hierarchy's ids and edges, one run of keys in slot order, and
/// the sensitivity each device process was given.
#[test]
fn derived_devices_match_the_hierarchy_and_the_key_space() {
    for (edges, per_edge, every) in [
        (1, 1, 0),
        (1, 5, 1),
        (2, 3, 4),
        (3, 4, 5),
        (5, 2, 3),
        (4, 7, 0),
    ] {
        let mut spec = small(MaturityLevel::Ml4);
        (spec.edges, spec.devices_per_edge, spec.personal_every) = (edges, per_edge, every);
        let shape = format!("{edges} edges x {per_edge}, personal every {every}");
        let scenario = Scenario::build(spec);
        let h = &scenario.hierarchy;
        let devices: Vec<DeviceInfo> = scenario.devices().collect();
        assert_eq!(devices.len(), edges * per_edge, "{shape}");
        assert_eq!(
            scenario.keys().len(),
            edges * per_edge,
            "{shape}: no other key"
        );
        let placed = h.devices.iter().enumerate();
        let ids = placed.flat_map(|(e, devs)| devs.iter().map(move |&d| (e, d)));
        let first = scenario.first_key;
        for (slot, ((e, id), info)) in ids.zip(&devices).enumerate() {
            assert_eq!((info.id, info.edge_index), (id, e), "{shape}: slot {slot}");
            assert_eq!(info.key, first.offset(slot as u32), "{shape}: slot {slot}");
            assert_eq!(
                info.key.index(),
                slot,
                "{shape}: the run starts the key space"
            );
            let Some(world::Node::Device(dev)) = scenario.sim.node(id) else {
                panic!("{shape}: slot {slot} is not a device");
            };
            assert_eq!(dev.slot as usize, slot, "{shape}");
            assert_eq!(dev.data_key(), info.key, "{shape}: slot {slot}");
            assert_eq!(dev.current_edge(), h.edges[e], "{shape}: slot {slot}");
            let personal = dev.sensitivity() == riot_data::Sensitivity::Personal;
            assert_eq!(info.personal, personal, "{shape}: slot {slot}");
            assert_eq!(info.personal, every > 0 && slot % every == 0, "{shape}");
        }
    }
}

#[test]
fn calm_ml4_run_is_fully_satisfied() {
    let result = Scenario::build(small(MaturityLevel::Ml4)).run();
    // With only 4 devices a single lost packet can blip one
    // availability sample, so allow a small margin here; the full-size
    // experiments use larger windows.
    assert!(
        result.report.overall_resilience > 0.9,
        "calm ML4 should satisfy (almost) everything: {:#?}",
        result.report
    );
    // A loss-induced failover may briefly home a personal-data device
    // on the vendor edge; governance denies those pushes, so privacy
    // holds regardless.
    assert!((result.report.requirements["privacy"].resilience - 1.0).abs() < f64::EPSILON);
    assert!(result.messages_sent > 100);
}

#[test]
fn calm_ml1_fails_freshness_but_nothing_else() {
    let result = Scenario::build(small(MaturityLevel::Ml1)).run();
    let r = &result.report.requirements;
    assert!(r["latency"].resilience > 0.95, "local control is fast");
    assert!(r["availability"].resilience > 0.95);
    assert!(r["coverage"].resilience > 0.95);
    assert!(r["freshness"].resilience < 0.05, "silos share nothing");
    assert!(
        r["privacy"].resilience > 0.95,
        "nothing flows, nothing leaks"
    );
}

#[test]
fn component_fault_without_adaptation_is_permanent() {
    let mut spec = small(MaturityLevel::Ml1);
    let dev = spec.device_id(0, 0);
    spec.disruptions = DisruptionSchedule::new().at(
        SimTime::from_secs(12),
        Disruption::ComponentFault {
            node: dev,
            component: riot_model::ComponentId(0),
        },
    );
    let result = Scenario::build(spec).run();
    assert_eq!(result.restarts, 0, "ML1 has no MAPE");
    let cov = result.report.requirements["coverage"].resilience;
    assert!(cov < 0.9, "one of four devices dark forever: {cov}");
}

#[test]
fn component_fault_with_cloud_mape_recovers() {
    let mut spec = small(MaturityLevel::Ml2);
    let dev = spec.device_id(0, 0);
    spec.disruptions = DisruptionSchedule::new().at(
        SimTime::from_secs(12),
        Disruption::ComponentFault {
            node: dev,
            component: riot_model::ComponentId(0),
        },
    );
    let result = Scenario::build(spec).run();
    assert!(result.restarts >= 1, "cloud MAPE restarted the component");
    let cov = result.report.requirements["coverage"].outages;
    assert!(cov <= 2, "short outage only");
}

#[test]
fn online_monitor_matches_post_hoc_replay() {
    use riot_formal::{parse_ltl, Atoms, Monitor, Valuation};

    let mut spec = small(MaturityLevel::Ml2);
    let dev = spec.device_id(0, 0);
    spec.disruptions = DisruptionSchedule::new().at(
        SimTime::from_secs(12),
        Disruption::ComponentFault {
            node: dev,
            component: riot_model::ComponentId(0),
        },
    );
    spec.monitors = vec![MonitorSpec::new("recovers", "G (!all -> F all)")];
    let result = Scenario::build(spec).run();

    // Post-hoc replay of the recorded series — the pre-refactor path.
    let mut atoms = Atoms::new();
    let phi = parse_ltl("G (!all -> F all)", &mut atoms).unwrap();
    let all = atoms.lookup("all").unwrap();
    let mut replay = Monitor::new(phi);
    for &(_, v) in &result.sat_all_series {
        let mut val = Valuation::EMPTY;
        val.set(all, v >= 0.5);
        replay.step(val);
    }

    let online = &result.monitors[0];
    assert_eq!(online.name, "recovers");
    assert_eq!(online.steps, replay.steps(), "one step per sample");
    assert_eq!(online.steps, result.sat_all_series.len());
    assert_eq!(online.verdict, replay.verdict());
    assert_eq!(online.holds_at_end, replay.finish());
}

#[test]
fn online_safety_monitor_timestamps_the_detection() {
    let mut spec = small(MaturityLevel::Ml1);
    let dev = spec.device_id(0, 0);
    spec.disruptions = DisruptionSchedule::new().at(
        SimTime::from_secs(12),
        Disruption::ComponentFault {
            node: dev,
            component: riot_model::ComponentId(0),
        },
    );
    spec.monitors = vec![MonitorSpec::new("coverage-holds", "G coverage")];
    let result = Scenario::build(spec).run();
    let m = &result.monitors[0];
    assert_eq!(m.verdict, Verdict3::Violated, "ML1 never repairs the fault");
    let detected = m.first_violation_s.expect("violation timestamped");
    assert!(
        detected >= 12.0,
        "detection cannot precede the fault: {detected}"
    );
    assert!(
        detected <= 20.0,
        "online detection flags within a few samples: {detected}"
    );
}

/// Disruptions packed inside single sampling periods — the ticks in
/// which a slab row's flag bits and its window change together.
fn same_tick_storm(spec: &ScenarioSpec) -> DisruptionSchedule {
    let ms = SimTime::from_millis;
    let fault = |node| Disruption::ComponentFault {
        node,
        component: riot_model::ComponentId(0),
    };
    let crash = |node, back_ms| Disruption::NodeCrash {
        node,
        recover_after: Some(SimDuration::from_millis(back_ms)),
    };
    // (12 s, 13 s]: a fault storm over one edge's devices.
    let mut storm = DisruptionSchedule::new();
    for d in 0..spec.devices_per_edge {
        storm.push(ms(12_100 + 150 * d as u64), fault(spec.device_id(0, d)));
    }
    storm
        // (14 s, 15 s]: a device crashes and restarts, its neighbour
        // roams to another edge, all inside one period.
        .at(ms(14_200), crash(spec.device_id(1, 0), 400))
        .at(
            ms(14_500),
            Disruption::Mobility {
                device: spec.device_id(1, 1),
                new_parent: spec.edge_id(0),
            },
        )
        // On a sample instant exactly: the injections run before the
        // sample, and the crash outlasts the freshness horizon.
        .at(ms(16_000), crash(spec.device_id(2, 1), 4_500))
        .at(ms(16_000), fault(spec.device_id(2, 0)))
        // An edge blinks: control rounds time out (and ML4 devices fail
        // over) while the faulted devices above are being restarted.
        .at(ms(18_300), crash(spec.edge_id(1), 700))
        // A crashed-and-faulted device: both inputs down, one comes back.
        .at(ms(21_100), fault(spec.device_id(1, 2)))
        .at(ms(21_400), crash(spec.device_id(1, 2), 300))
}

// The three schedules below equal `riot_bench::suites::{infrastructure,
// connectivity, service}` at three edges, the one shape the oracle test
// runs them at.

/// Edge 0 down 40–65 s, edge 1 down 70–85 s.
fn infrastructure_suite(spec: &ScenarioSpec) -> DisruptionSchedule {
    let crash = |edge, back_s| Disruption::NodeCrash {
        node: spec.edge_id(edge),
        recover_after: Some(SimDuration::from_secs(back_s)),
    };
    DisruptionSchedule::new()
        .at(SimTime::from_secs(40), crash(0, 25))
        .at(SimTime::from_secs(70), crash(1, 15))
}

/// A cloud outage, 40–65 s. (The suite's edge partition at 80–95 s
/// needs four edges to split and compiles to nothing at three.)
fn connectivity_suite(spec: &ScenarioSpec) -> DisruptionSchedule {
    DisruptionSchedule::new().at(
        SimTime::from_secs(40),
        Disruption::CloudOutage {
            cloud: spec.cloud_id(),
            heal_after: Some(SimDuration::from_secs(25)),
        },
    )
}

/// Every device with global index ≡ 1 mod 4 loses its component, one
/// every 7 s from 35 s.
fn service_suite(spec: &ScenarioSpec) -> DisruptionSchedule {
    let mut s = DisruptionSchedule::new();
    let mut t = 35u64;
    for e in 0..spec.edges {
        for d in 0..spec.devices_per_edge {
            if (e * spec.devices_per_edge + d) % 4 == 1 {
                let node = spec.device_id(e, d);
                s.push(
                    SimTime::from_secs(t),
                    Disruption::ComponentFault {
                        node,
                        component: riot_model::ComponentId(node.0 as u32),
                    },
                );
                t += 7;
            }
        }
    }
    s
}

#[test]
fn incremental_sampling_equals_full_rescan_on_every_level() {
    type Schedule = fn(&ScenarioSpec) -> DisruptionSchedule;
    // (levels, seeds, duration s, warm-up s), at 3 edges × 3 devices
    // sampled every second.
    type Shape<'a> = (&'a [MaturityLevel], [u64; 3], u64, u64);
    let storm: Shape = (&MaturityLevel::ALL, [3, 17, 40], 40, 10);
    // ML4 alone under the suites: EdgeMesh replication and edge control
    // with failover — every slab mechanism live — over the standard
    // 120 s the suites' timelines are written for.
    let suite: Shape = (&[MaturityLevel::Ml4], [7, 21, 42], 120, 20);
    let table: [(Shape, Schedule, &str); 4] = [
        (storm, same_tick_storm, "storm"),
        (suite, infrastructure_suite, "infrastructure"),
        (suite, connectivity_suite, "connectivity"),
        (suite, service_suite, "service"),
    ];
    for ((levels, seeds, duration, warmup), schedule, name) in table {
        for &level in levels {
            for seed in seeds {
                let mut spec = ScenarioSpec::new("row-vs-rescan", level, seed);
                spec.edges = 3;
                spec.devices_per_edge = 3;
                spec.duration = SimDuration::from_secs(duration);
                spec.warmup = SimDuration::from_secs(warmup);
                spec.disruptions = schedule(&spec);
                let inc = Scenario::build(spec.clone()).run();
                let oracle = Scenario::run_rescan_oracle(spec);
                assert_eq!(
                    inc.events_processed, oracle.events_processed,
                    "{level:?} seed {seed} / {name}: event streams diverged"
                );
                assert_eq!(
                    inc.to_json().render(),
                    oracle.to_json().render(),
                    "{level:?} seed {seed} / {name}: the slab rows and the rescan disagree"
                );
                if name == "storm" {
                    let coverage = inc.report.requirements["coverage"].resilience;
                    assert!(coverage < 1.0, "{level:?}: the storm was felt");
                }
            }
        }
    }
}

#[test]
fn spec_validation_rejects_degenerate_trace_tail() {
    let mut spec = small(MaturityLevel::Ml1);
    assert_eq!(spec.validate(), Ok(()));
    spec.trace_tail = Some(0);
    assert_eq!(spec.validate(), Err(SpecError::ZeroTraceTail));
    spec.trace_tail = Some(MAX_TRACE_TAIL + 1);
    assert_eq!(
        spec.validate(),
        Err(SpecError::TraceTailTooLarge {
            requested: MAX_TRACE_TAIL + 1
        })
    );
    let rendered = spec.validate().unwrap_err().to_string();
    assert!(rendered.contains("trace_tail"), "{rendered}");
    spec.trace_tail = Some(MAX_TRACE_TAIL);
    assert_eq!(spec.validate(), Ok(()));
}

/// `validate` returns `want`, whose message names `needle`, and `build`
/// reports the same error through the same path, before it commits
/// anything.
fn assert_rejected(spec: ScenarioSpec, want: SpecError, needle: &str) {
    assert_eq!(spec.validate(), Err(want.clone()));
    assert!(want.to_string().contains(needle), "{want}");
    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| Scenario::build(spec)));
    let Err(panic) = built else {
        panic!("build accepted a spec that validate rejects for its {needle}");
    };
    let text = panic.downcast_ref::<String>().expect("formatted panic");
    assert!(text.contains("invalid scenario spec"), "{text}");
    assert!(text.contains(needle), "{text}");
}

#[test]
fn spec_validation_rejects_zero_shape_and_zero_sample_interval() {
    type Edit = fn(&mut ScenarioSpec);
    // A zero interval used to hang `run` instead.
    let cases: [(Edit, SpecError, &str); 3] = [
        (|s| s.edges = 0, SpecError::ZeroEdges, "edges"),
        (
            |s| s.devices_per_edge = 0,
            SpecError::ZeroDevicesPerEdge,
            "devices_per_edge",
        ),
        (
            |s| s.sample_every = SimDuration::ZERO,
            SpecError::ZeroSampleInterval,
            "sample_every",
        ),
    ];
    for (edit, want, field) in cases {
        let mut spec = small(MaturityLevel::Ml1);
        edit(&mut spec);
        assert_rejected(spec, want, field);
    }
}

#[test]
fn spec_validation_rejects_a_fleet_the_kernel_cannot_number() {
    // `1 + edges + edges × devices_per_edge` nodes: 2^32 × 2^32 overflows
    // the multiplication, 2^16 × 2^16 does not but passes `u32::MAX`.
    for (edges, devices_per_edge) in [(1 << 32, 1 << 32), (1 << 16, 1 << 16)] {
        let mut spec = small(MaturityLevel::Ml1);
        spec.edges = edges;
        spec.devices_per_edge = devices_per_edge;
        let want = SpecError::TooManyNodes {
            edges,
            devices_per_edge,
        };
        assert_rejected(spec, want, "u32 process ids");
    }
    // The kernel's ids stop below `u32::MAX`, the external sender's.
    let mut spec = small(MaturityLevel::Ml1);
    spec.edges = 1;
    spec.devices_per_edge = u32::MAX as usize - 3;
    assert_eq!(spec.validate(), Ok(()), "u32::MAX - 1 nodes fit");
    spec.devices_per_edge += 1;
    assert!(
        matches!(spec.validate(), Err(SpecError::TooManyNodes { .. })),
        "u32::MAX nodes do not"
    );
}

#[test]
fn spec_validation_rejects_a_monitor_no_sample_can_value() {
    // A misspelt atom used to read false for the whole run — `G !covrage`
    // held forever and checked nothing — and a formula that does not parse
    // used to be a second panic inside `build`, after `validate` passed.
    let mut spec = small(MaturityLevel::Ml1);
    spec.monitors = vec![
        MonitorSpec::new("fine", "G (!coverage -> F coverage)"),
        MonitorSpec::new("typo", "G !covrage"),
    ];
    let unknown = SpecError::Monitor {
        name: "typo".to_owned(),
        error: MonitorError::UnknownAtom("covrage".to_owned()),
    };
    assert!(unknown.to_string().contains(
        "monitor 'typo': unknown atom 'covrage' \
         (known: all goal latency availability coverage freshness privacy)"
    ));
    assert_rejected(spec.clone(), unknown, "covrage");

    spec.monitors[1] = MonitorSpec::new("open", "G (coverage ->");
    let open = spec.validate().expect_err("an unparsable formula");
    assert!(
        matches!(&open, SpecError::Monitor { name, error: MonitorError::Formula(_) } if name == "open"),
        "{open}"
    );
    assert_rejected(spec.clone(), open, "bad formula");

    // Every atom a sample values is accepted, in any formula.
    spec.monitors[1] = MonitorSpec::new(
        "every-atom",
        "G (all & goal & latency & availability & coverage & freshness & privacy)",
    );
    assert_eq!(spec.validate(), Ok(()));
}

#[test]
#[should_panic(expected = "invalid scenario spec")]
fn build_rejects_zero_trace_tail() {
    let mut spec = small(MaturityLevel::Ml1);
    spec.trace_tail = Some(0);
    let _ = Scenario::build(spec);
}

#[test]
fn streams_summarize_without_perturbing_results() {
    // ML3 exercises every stream: devices report to edges (edge
    // ingest), edges relay upstream (cloud ingest), control runs
    // through the edge (control latency), and the vendor edge gives the
    // flow accountant a second jurisdiction.
    let mut spec = small(MaturityLevel::Ml3);
    let dev = spec.device_id(0, 0);
    spec.disruptions = DisruptionSchedule::new().at(
        SimTime::from_secs(12),
        Disruption::NodeCrash {
            node: dev,
            recover_after: Some(SimDuration::from_secs(5)),
        },
    );
    let plain = Scenario::build(spec.clone()).run();
    spec.streams = StreamSpec::standard();
    let streamed = Scenario::build(spec).run();

    assert_eq!(
        plain.to_json().render(),
        streamed.to_json().render(),
        "streams are passive: the published artifact is byte-identical"
    );
    assert!(plain.streams.is_empty(), "no opt-in, no rows");
    assert_eq!(
        streamed.streams.len(),
        5,
        "three latency probes (ingest has one per tier), flows, activity"
    );

    let control = &streamed.streams[0];
    assert_eq!(control.name, "device.control.latency_ms");
    let hist = streamed.control_latency.as_ref().expect("legacy histogram");
    assert_eq!(
        control.count as usize, hist.count,
        "probe saw every observation"
    );
    let st = control.stats.expect("stats");
    assert!((st.mean - hist.mean).abs() < 1e-9, "online mean == exact");
    let q = control.quantiles.expect("quantiles");
    assert!(st.min <= q.p50 && q.p50 <= q.p95 && q.p95 <= q.p99);
    assert!(q.p99 <= st.max * (1.0 + q.alpha) + 1e-9);

    let edge_ingest = &streamed.streams[1];
    assert_eq!(edge_ingest.name, "edge.ingest.latency_ms");
    assert!(edge_ingest.count > 0, "edges accepted readings");
    let cloud_ingest = &streamed.streams[2];
    assert_eq!(cloud_ingest.name, "cloud.ingest.latency_ms");
    assert!(cloud_ingest.count > 0, "edges relayed telemetry upstream");

    let flows = &streamed.streams[3];
    assert_eq!(flows.name, "flows.jurisdiction");
    assert!(flows.count > 0);
    let eu = flows
        .flows
        .iter()
        .find(|(name, _)| name == "eu-gdpr")
        .expect("eu-gdpr row");
    assert!(eu.1 > 0, "city-domain nodes received messages");
    assert!(
        flows.count <= streamed.messages_sent,
        "cannot deliver more than was sent"
    );

    let activity = &streamed.streams[4];
    assert_eq!(activity.name, "activity.transitions");
    assert_eq!(activity.count, 2, "one crash down + one recovery up");
    let up = activity
        .flows
        .iter()
        .find(|(n, _)| n == "up")
        .expect("up row");
    assert_eq!(up.1 as usize, 1 + 2 + 4, "everyone back up at end of run");
}

#[test]
fn trace_tail_is_bounded_and_json() {
    let mut spec = small(MaturityLevel::Ml1);
    spec.trace_tail = Some(7);
    let result = Scenario::build(spec).run();
    assert_eq!(result.trace_tail.len(), 7);
    let lines = result.trace_tail_lines();
    assert_eq!(lines.len(), 7);
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"t_us\":"), "{line}");
    }
}

/// The forensic ring as it was before it kept events: every event is
/// rendered on arrival and the last `cap` lines are retained. The
/// reference [`ScenarioResult::trace_tail_lines`] is compared against.
struct EagerTail {
    cap: usize,
    lines: std::sync::Arc<std::sync::Mutex<std::collections::VecDeque<String>>>,
}

impl riot_sim::SimObserver for EagerTail {
    fn on_event(&mut self, event: &SimEvent) {
        let mut lines = self.lines.lock().unwrap();
        if lines.len() == self.cap {
            lines.pop_front();
        }
        lines.push_back(event.to_json().render());
    }
}

#[test]
fn trace_tail_rendered_on_demand_equals_the_eager_ring() {
    for cap in [7, 256] {
        let mut spec = ScenarioSpec::new("tail", MaturityLevel::Ml2, 5);
        spec.edges = 2;
        spec.devices_per_edge = 3;
        spec.duration = SimDuration::from_secs(30);
        spec.warmup = SimDuration::from_secs(10);
        spec.trace_tail = Some(cap);
        let eager = std::sync::Arc::new(std::sync::Mutex::new(
            std::collections::VecDeque::with_capacity(cap),
        ));
        let handle = eager.clone();
        spec.observers.register(move || EagerTail {
            cap,
            lines: handle.clone(),
        });
        let result = Scenario::build(spec).run();
        let eager: Vec<String> = eager.lock().unwrap().iter().cloned().collect();
        assert_eq!(eager.len(), cap, "the run outlasts the ring");
        assert_eq!(result.trace_tail_lines(), eager, "capacity {cap}");
        // The ring wrapped many times and the tail still reads oldest
        // first, sample notes included.
        assert!(result.trace_tail.windows(2).all(|w| w[0].at <= w[1].at));
        if cap == 256 {
            assert!(eager.iter().any(|l| l.contains(r#""kind":"note""#)));
        }
    }
}

/// A monitored, streamed ML-`level` spec with a crash window (12–17 s) and
/// a fault inside it: every reporting surface has something to say.
fn observed(level: MaturityLevel) -> ScenarioSpec {
    let mut spec = small(level);
    spec.disruptions = DisruptionSchedule::new()
        .at(
            SimTime::from_secs(12),
            Disruption::NodeCrash {
                node: spec.edge_id(0),
                recover_after: Some(SimDuration::from_secs(5)),
            },
        )
        .at(
            SimTime::from_millis(14_250),
            Disruption::ComponentFault {
                node: spec.device_id(1, 0),
                component: riot_model::ComponentId(0),
            },
        );
    spec.monitors = vec![
        MonitorSpec::new("coverage-holds", "G coverage"),
        MonitorSpec::new("recovers", "G (!all -> F all)"),
    ];
    spec.streams = StreamSpec::standard();
    spec
}

#[test]
fn the_sat_note_is_a_trace_line_not_an_input() {
    // Nothing reads notes in the first run, so none is rendered; the ring
    // of the second asks for them. The monitors are stepped with the
    // valuation itself either way.
    let unread = Scenario::build(observed(MaturityLevel::Ml2)).run();
    let mut spec = observed(MaturityLevel::Ml2);
    spec.trace_tail = Some(4_096);
    let traced = Scenario::build(spec).run();
    assert_eq!(unread.monitors, traced.monitors);
    assert!(unread.monitors[0].first_violation_s.is_some());
    assert_eq!(unread.monitors[1].steps, unread.sat_all_series.len());

    let lines = traced.trace_tail_lines();
    let notes: Vec<&str> = lines
        .iter()
        .filter_map(|l| l.split_once(r#""text":"sat "#))
        .map(|(_, text)| text.trim_end_matches(['"', '}']))
        .collect();
    assert!(!notes.is_empty(), "the ring holds the last samples' notes");
    for text in &notes {
        assert_eq!(
            text.replace('0', "1"),
            "all=1 goal=1 latency=1 availability=1 coverage=1 freshness=1 privacy=1"
        );
    }
    assert!(
        notes.iter().any(|text| text.contains("coverage=0")),
        "a sample inside the crash window is among them"
    );
}

#[test]
fn split_runs_equal_the_one_call_run_on_every_level() {
    // Off-tick stops: early, inside the crash window (right after the
    // fault injected there), and just short of the end.
    let stops = [3_370, 14_251, 29_999].map(SimTime::from_millis);
    for level in MaturityLevel::ALL {
        let mut spec = observed(level);
        spec.trace_tail = Some(512);
        let whole = Scenario::build(spec.clone()).run();
        let mut split = Scenario::build(spec);
        for stop in stops {
            split.advance_to(stop);
        }
        let split = split.run();
        assert_eq!(
            split.to_json().render(),
            whole.to_json().render(),
            "{level:?}"
        );
        assert_eq!(split.monitors, whole.monitors, "{level:?}");
        assert_eq!(split.streams, whole.streams, "{level:?}");
        assert_eq!(split.trace_tail, whole.trace_tail, "{level:?}");
        assert_eq!(
            split.sat_all_series.len(),
            30,
            "{level:?}: one sample a second"
        );
    }
}

#[test]
fn vendor_edge_receives_personal_data_only_when_ungoverned() {
    let ml3 = Scenario::build(small(MaturityLevel::Ml3)).run();
    let ml4 = Scenario::build(small(MaturityLevel::Ml4)).run();
    assert!(
        ml3.report.requirements["privacy"].resilience < 1.0,
        "ML3 leaks to the vendor subscription"
    );
    assert!(
        (ml4.report.requirements["privacy"].resilience - 1.0).abs() < f64::EPSILON,
        "ML4 governance keeps personal data home"
    );
    assert!(ml4.ingest_denied > 0 || ml4.report.requirements["privacy"].resilience == 1.0);
}

/// The benchmark's `mesh_1e3` campaign in small: a split-brain, a cloud
/// blackout, a fault storm, a firmware wave over the whole fleet two
/// devices at a time, and a mobility burst. Returns when the wave starts.
fn five_vector_campaign(spec: &ScenarioSpec) -> (DisruptionSchedule, SimTime) {
    let secs = SimDuration::from_secs;
    let halves = |r: std::ops::Range<usize>| r.map(|e| spec.edge_id(e)).collect::<Vec<_>>();
    let mid = spec.edges / 2;
    let mut s = DisruptionSchedule::new()
        .at(
            SimTime::from_secs(30),
            Disruption::Partition {
                groups: vec![halves(0..mid), halves(mid..spec.edges)],
                heal_after: Some(secs(20)),
            },
        )
        .at(
            SimTime::from_secs(60),
            Disruption::CloudOutage {
                cloud: spec.cloud_id(),
                heal_after: Some(secs(20)),
            },
        );
    for e in 0..spec.edges {
        let node = spec.device_id(e, 1);
        s.push(
            SimTime::from_secs(90 + e as u64),
            Disruption::ComponentFault {
                node,
                component: riot_model::ComponentId(node.0 as u32),
            },
        );
    }
    let wave = SimTime::from_secs(110);
    for i in 0..spec.device_count() {
        s.push(
            wave + secs(2 * (i as u64 / 2)),
            Disruption::NodeCrash {
                node: spec.device_id(i / spec.devices_per_edge, i % spec.devices_per_edge),
                recover_after: Some(secs(4)),
            },
        );
    }
    for k in 0..spec.edges {
        s.push(
            SimTime::from_secs(170 + k as u64),
            Disruption::Mobility {
                device: spec.device_id(k, 0),
                new_parent: spec.edge_id((k + 1) % spec.edges),
            },
        );
    }
    (s, wave)
}

#[test]
fn a_campaigns_device_churn_forgets_only_the_routes_it_touches() {
    let mut spec = ScenarioSpec::new("mesh-smoke", MaturityLevel::Ml4, 11);
    spec.edges = 10;
    spec.devices_per_edge = 5;
    spec.duration = SimDuration::from_secs(190);
    spec.warmup = SimDuration::from_secs(20);
    let (schedule, wave) = five_vector_campaign(&spec);
    spec.disruptions = schedule;
    let (edges, devices) = (spec.edges as u64, spec.device_count() as u64);
    let mut scenario = Scenario::build(spec);
    let stats_at = |scenario: &mut Scenario, t: SimTime| {
        scenario.advance_to(t);
        scenario.sim.medium_mut().route_stats()
    };
    let before_wave = stats_at(&mut scenario, wave - SimDuration::from_secs(1));
    let end = stats_at(&mut scenario, SimTime::from_secs(190));

    // Only the hub changes may fall back: the partition and its 5 × 5
    // edge-to-edge heals, the blackout and its heals.
    let hub_changes = 1 + (edges / 2) * (edges - edges / 2) + 1 + edges;
    assert!(before_wave.forgot_all <= hub_changes, "{before_wave:?}");
    // Every crash cuts, every recovery restores two links, every roamer
    // drops two links and gains one — and each of those was scoped.
    assert_eq!(end.changes - before_wave.changes, 3 * devices + 3 * edges);
    assert_eq!(end.forgot_all, before_wave.forgot_all, "{end:?}");
    // Forgetting everything would have cost every held route at every
    // change that had traffic before it.
    assert!(end.epochs > 30 && end.held > 100, "{end:?}");
    assert!(3 * end.cold < end.held * end.epochs, "{end:?}");
    assert_eq!(end.searches > 0, end.settled > 0);
}

/// Message flow is conserved at every sample tick, on every level, under a
/// crash, a cut, a partition and a flap: each message sent was delivered,
/// was dropped (a message to a downed node is dropped when it arrives), or
/// is still in flight.
#[test]
fn every_message_sent_is_delivered_dropped_or_in_flight_at_every_sample() {
    for level in MaturityLevel::ALL {
        let mut spec = small(level);
        spec.edges = 3;
        spec.devices_per_edge = 3;
        let secs = SimDuration::from_secs;
        let flapping = (spec.device_id(2, 0), spec.edge_id(2));
        let mut schedule = DisruptionSchedule::new()
            .at(
                SimTime::from_secs(8),
                Disruption::NodeCrash {
                    node: spec.edge_id(0),
                    recover_after: Some(secs(4)),
                },
            )
            .at(
                SimTime::from_secs(13),
                Disruption::LinkCut {
                    a: spec.edge_id(1),
                    b: spec.cloud_id(),
                    heal_after: Some(secs(4)),
                },
            )
            .at(
                SimTime::from_secs(18),
                Disruption::Partition {
                    groups: vec![
                        vec![spec.edge_id(0)],
                        vec![spec.edge_id(1), spec.edge_id(2)],
                    ],
                    heal_after: Some(secs(4)),
                },
            );
        for k in 0..6 {
            schedule.push(
                SimTime::from_millis(23_000 + 700 * k),
                Disruption::LinkCut {
                    a: flapping.0,
                    b: flapping.1,
                    heal_after: Some(SimDuration::from_millis(300)),
                },
            );
        }
        spec.disruptions = schedule;
        let ticks = spec.duration.as_micros() / 1_000_000;
        let mut scenario = Scenario::build(spec);
        let mut peak_in_flight = 0;
        for t in 1..=ticks {
            scenario.advance_to(SimTime::from_secs(t));
            let m = scenario.sim.metrics();
            let (sent, delivered, dropped) = (
                m.counter("sim.msg.sent"),
                m.counter("sim.msg.delivered"),
                m.counter("sim.msg.dropped"),
            );
            let in_flight = scenario.sim.in_flight();
            assert_eq!(
                sent,
                delivered + dropped + in_flight as u64,
                "{level:?} at {t} s: {sent} sent, {delivered} delivered, \
                 {dropped} dropped, {in_flight} in flight"
            );
            peak_in_flight = peak_in_flight.max(in_flight);
        }
        let m = scenario.sim.metrics();
        if level == MaturityLevel::Ml1 {
            assert_eq!(m.counter("sim.msg.sent"), 0, "ML1's silos send nothing");
        } else {
            assert!(
                peak_in_flight > 0,
                "{level:?}: no tick caught a message in flight"
            );
            assert!(
                m.counter("sim.msg.dropped") > 0,
                "{level:?}: nothing was dropped"
            );
        }
    }
}

/// The run's random-stream position is part of its determinism: two runs of
/// one spec draw the same number of words, and a run draws at all.
#[test]
fn two_runs_of_one_scenario_draw_the_same_words() {
    let words = |seed: u64| {
        let mut spec = small(MaturityLevel::Ml4);
        spec.seed = seed;
        let end = SimTime::ZERO + spec.duration;
        let mut scenario = Scenario::build(spec);
        assert_eq!(scenario.sim.rng_words(), 0, "the build draws nothing");
        scenario.advance_to(end);
        scenario.sim.rng_words()
    };
    let first = words(42);
    assert!(first > 0, "an ML4 run draws");
    assert_eq!(words(42), first);
    assert_ne!(words(43), first, "another seed, another run");
}

/// A disruption aimed at a node of the wrong kind does nothing: a component
/// fault at an edge or at the cloud, a domain transfer to a device. The run
/// samples, counts and draws exactly what the same run without them does;
/// only the kernel's event count sees the three injections.
#[test]
fn mis_targeted_disruptions_change_nothing() {
    for level in MaturityLevel::ALL {
        let spec = small(level);
        let mut aimed = spec.clone();
        let component = riot_model::ComponentId(0);
        aimed.disruptions = DisruptionSchedule::new()
            .at(
                SimTime::from_secs(11),
                Disruption::ComponentFault {
                    node: spec.edge_id(0),
                    component,
                },
            )
            .at(
                SimTime::from_secs(12),
                Disruption::ComponentFault {
                    node: spec.cloud_id(),
                    component,
                },
            )
            .at(
                SimTime::from_secs(13),
                Disruption::DomainTransfer {
                    entity: spec.device_id(1, 0).index() as u64,
                    to: riot_model::DomainId(1),
                },
            );
        let run = |spec: ScenarioSpec| {
            let end = SimTime::ZERO + spec.duration;
            let mut scenario = Scenario::build(spec);
            scenario.advance_to(end);
            let sim = &scenario.sim;
            let seen = (
                format!("{:?}", scenario.log),
                format!("{:?}", sim.metrics()),
                sim.rng_words(),
                sim.in_flight(),
            );
            (seen, sim.events_processed())
        };
        let (calm, calm_events) = run(spec);
        let (hit, hit_events) = run(aimed);
        assert!(calm.1.contains("sim.msg.sent"), "{level:?}");
        assert_eq!(hit, calm, "{level:?}");
        assert_eq!(hit_events, calm_events + 3, "{level:?}: the injections");
    }
}
