//! Observability bus guarantees, end to end: observers are passive taps —
//! registering any number of them never changes what a run computes — and
//! every observer sees the one true event sequence, reproducibly.

use riot_core::{MonitorSpec, Scenario, ScenarioResult, ScenarioSpec};
use riot_formal::{parse_ltl, Atoms, Monitor, Valuation};
use riot_model::{ComponentId, Disruption, DisruptionSchedule, MaturityLevel};
use riot_sim::{SimDuration, SimEvent, SimObserver, SimTime, ToJson};
use std::sync::{Arc, Mutex};

/// A faulty, disrupted spec: plenty of sends, drops, timers and up/down
/// transitions for observers to witness.
fn stormy_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("bus", MaturityLevel::Ml4, seed);
    spec.edges = 3;
    spec.devices_per_edge = 4;
    spec.duration = SimDuration::from_secs(50);
    spec.warmup = SimDuration::from_secs(15);
    let dev = spec.device_id(1, 1);
    spec.disruptions = DisruptionSchedule::new()
        .at(
            SimTime::from_secs(20),
            Disruption::CloudOutage {
                cloud: spec.cloud_id(),
                heal_after: Some(SimDuration::from_secs(10)),
            },
        )
        .at(
            SimTime::from_secs(25),
            Disruption::ComponentFault {
                node: dev,
                component: ComponentId(dev.0 as u32),
            },
        );
    spec
}

fn fingerprint(r: &ScenarioResult) -> String {
    riot_sim::ToJson::to_json(r).render()
}

/// Records every event it is shown, shared through a handle so the
/// recording survives the scenario that owns the observer.
struct Recorder(Arc<Mutex<Vec<String>>>);

impl SimObserver for Recorder {
    fn on_event(&mut self, event: &SimEvent) {
        self.0.lock().unwrap().push(event.to_json().render());
    }
}

#[test]
fn observers_do_not_perturb_the_run() {
    // The core refactor invariant: a run with a full complement of
    // observers — online monitors, a forensic ring, custom recorders —
    // produces byte-identical results to the same seed with none.
    let bare = Scenario::build(stormy_spec(41)).run();

    let mut spec = stormy_spec(41);
    spec.monitors = vec![
        MonitorSpec::new("liveness", "G (!all -> F all)"),
        MonitorSpec::new("safety", "G availability"),
    ];
    spec.trace_tail = Some(32);
    let events = Arc::new(Mutex::new(Vec::new()));
    let handle = events.clone();
    spec.observers.register(move || Recorder(handle.clone()));
    let observed = Scenario::build(spec).run();

    assert_eq!(
        fingerprint(&bare),
        fingerprint(&observed),
        "observers must be passive: the serialized result may not move by a byte"
    );
    // ...while the observers themselves did real work.
    assert_eq!(observed.monitors.len(), 2);
    assert_eq!(observed.trace_tail.len(), 32);
    assert!(
        events.lock().unwrap().len() > 1_000,
        "the recorder saw the whole run"
    );
}

#[test]
fn every_observer_sees_the_same_sequence_reproducibly() {
    // Two independent observers on one run receive identical sequences
    // (single dispatch point), and a same-seed rerun replays that exact
    // sequence to a fresh pair.
    let run = || {
        let first = Arc::new(Mutex::new(Vec::new()));
        let second = Arc::new(Mutex::new(Vec::new()));
        let mut spec = stormy_spec(42);
        let h1 = first.clone();
        let h2 = second.clone();
        spec.observers.register(move || Recorder(h1.clone()));
        spec.observers.register(move || Recorder(h2.clone()));
        Scenario::build(spec).run();
        let a = first.lock().unwrap().clone();
        let b = second.lock().unwrap().clone();
        (a, b)
    };
    let (a1, a2) = run();
    assert!(
        a1.len() > 1_000,
        "a stormy run produces a substantial stream"
    );
    assert_eq!(a1, a2, "co-registered observers see one event sequence");
    let (b1, _) = run();
    assert_eq!(
        a1, b1,
        "same seed replays the same sequence to fresh observers"
    );
}

#[test]
fn online_monitor_agrees_with_post_hoc_replay() {
    // The streaming monitor consumes valuations as the kernel publishes
    // them; replaying the recorded satisfaction series through a fresh
    // Monitor afterwards must land on the same verdict, step for step.
    let mut spec = stormy_spec(43);
    spec.monitors = vec![MonitorSpec::new("recovers", "G (!all -> F all)")];
    let result = Scenario::build(spec).run();
    let online = &result.monitors[0];

    let mut atoms = Atoms::new();
    let phi = parse_ltl("G (!all -> F all)", &mut atoms).unwrap();
    let all = atoms.lookup("all").unwrap();
    let mut replay = Monitor::new(phi);
    for &(_, v) in &result.sat_all_series {
        let mut val = Valuation::EMPTY;
        val.set(all, v >= 0.5);
        replay.step(val);
    }
    assert_eq!(online.steps, replay.steps(), "one valuation per sample");
    assert_eq!(online.verdict, replay.verdict());
    assert_eq!(online.holds_at_end, replay.finish());
}
