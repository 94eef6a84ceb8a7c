//! The four workloads: how a seed becomes inputs, and how one rep of each is
//! executed and timed.
//!
//! Load model: closed loop, one client, one thread — each scenario starts
//! when the previous one finishes. Vector kinds and counts are fixed per
//! workload; the seed only moves onsets and targets inside fixed windows (and
//! seeds the simulation), so every seed does the same amount of disruption.

use crate::clock::now_ns;
use crate::digest::{fold_result, Digest};
use crate::trace::{CountSink, CountingObserver, Layout};
use riot_campaign::{
    case_program, weakened_space, AdversaryMode, Campaign, CampaignSpace, CampaignVector,
};
use riot_core::{
    ArchitectureConfig, MapePlacement, ReplicationMode, Scenario, ScenarioResult, ScenarioSpec,
    StreamSpec,
};
use riot_harness::{fuzz_grid, FuzzPlan, HarnessConfig};
use riot_model::{Disruption, DisruptionSchedule, MaturityLevel};
use riot_sim::{SimDuration, SimTime, ToJson};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ML1, 20 × 5 000 devices, no disruptions: pure device timers at a
    /// 10⁵-entry event queue, one large build, the memory high-water mark.
    /// `sim`'s queue, `core` build/sampling and memory do all the work;
    /// `net`, `data`, `adapt`, `coord` do none.
    Timers1e5,
    /// ML4 with the default architecture, 10 × 100 devices, under a
    /// five-vector campaign: the shape of the pinned `results/*.json`
    /// artifacts. Whole-store anti-entropy every second makes `data` the
    /// largest share; `coord` and `adapt` are measurable.
    Mesh1e3,
    /// ML2 (cloud-placed control and MAPE), 10 × 100 devices, under link
    /// churn: every control request is a two-hop round trip and every
    /// topology change empties `Network`'s route cache. Exists to locate the
    /// "ML2 superlinearity" (`net` route resolution, the `core` cloud
    /// handler).
    CloudChurn1e3,
    /// Thousands of tiny monitored scenarios through the harness: the same
    /// queue at ≤20 pending entries, the same build as many tiny builds, and
    /// the only workload on which the observer bus, streams, `formal`
    /// monitors, `campaign` and `harness` run at all.
    FuzzSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Timers1e5,
        Workload::Mesh1e3,
        Workload::CloudChurn1e3,
        Workload::FuzzSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Timers1e5 => "timers_1e5",
            Workload::Mesh1e3 => "mesh_1e3",
            Workload::CloudChurn1e3 => "cloud_churn_1e3",
            Workload::FuzzSweep => "fuzz_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Size of one rep. `FULL` is what the end-to-end metrics are defined on;
/// `--smoke` divides the fleet (or the case count) by 20.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    pub divisor: usize,
}

impl Size {
    pub const FULL: Size = Size { divisor: 1 };
    pub const SMOKE: Size = Size { divisor: 20 };
}

/// The scenario shape of a workload at a size.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub level: MaturityLevel,
    pub edges: usize,
    pub devices_per_edge: usize,
    pub duration_s: u64,
    pub warmup_s: u64,
    pub sample_every_ms: u64,
    /// Scenarios per rep.
    pub scenarios: usize,
}

impl Shape {
    pub fn devices(&self) -> usize {
        self.edges * self.devices_per_edge
    }
}

pub fn shape(workload: Workload, size: Size) -> Shape {
    let full = match workload {
        Workload::Timers1e5 => Shape {
            level: MaturityLevel::Ml1,
            edges: 20,
            devices_per_edge: 5_000,
            duration_s: 10,
            warmup_s: 2,
            sample_every_ms: 100,
            scenarios: 1,
        },
        Workload::Mesh1e3 => Shape {
            level: MaturityLevel::Ml4,
            edges: 10,
            devices_per_edge: 100,
            duration_s: 480,
            warmup_s: 60,
            sample_every_ms: 1_000,
            scenarios: 1,
        },
        Workload::CloudChurn1e3 => Shape {
            level: MaturityLevel::Ml2,
            edges: 10,
            devices_per_edge: 100,
            duration_s: 60,
            warmup_s: 10,
            sample_every_ms: 1_000,
            scenarios: 1,
        },
        Workload::FuzzSweep => {
            let p = weakened_space().scenario;
            Shape {
                level: p.level,
                edges: p.edges,
                devices_per_edge: p.devices_per_edge,
                duration_s: p.duration_s,
                warmup_s: p.warmup_s,
                sample_every_ms: 1_000,
                scenarios: 4_000,
            }
        }
    };
    match workload {
        Workload::FuzzSweep => Shape {
            scenarios: full.scenarios / size.divisor,
            ..full
        },
        _ => Shape {
            devices_per_edge: full.devices_per_edge / size.divisor,
            ..full
        },
    }
}

/// splitmix64: the benchmark's own input generator, so that a change to
/// `riot_sim::SimRng` cannot move the workload definitions.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, lo + width)`.
    fn within(&mut self, lo: u64, width: u64) -> u64 {
        lo + self.next() % width.max(1)
    }
}

/// The disruption campaign of a scenario workload. Kinds, counts, spacings
/// and heal times are constants; the seed draws each onset inside its window
/// and the storm's first target.
pub fn campaign(workload: Workload, seed: u64, shape: &Shape) -> Campaign {
    let mut draw = Draw(seed);
    let mut c = Campaign::new();
    let dpe = shape.devices_per_edge as u64;
    match workload {
        Workload::Timers1e5 | Workload::FuzzSweep => {}
        Workload::Mesh1e3 => {
            c.push(CampaignVector::SplitBrain {
                onset: draw.within(60, 30),
                heal: 45,
            });
            c.push(CampaignVector::CloudBlackout {
                onset: draw.within(150, 30),
                heal: 45,
            });
            c.push(CampaignVector::FaultStorm {
                onset: draw.within(240, 30),
                spacing: 1,
                per_edge: 4.min(dpe),
                stride: 7,
                offset: draw.within(0, 8.min(dpe)),
            });
            c.push(CampaignVector::FirmwareWave {
                onset: draw.within(320, 20),
                batch: (dpe / 2).max(1),
                spacing: 2,
                outage: 4,
            });
            c.push(CampaignVector::MobilityBurst {
                onset: draw.within(400, 30),
                roamers: 30,
                spacing: 1,
            });
        }
        Workload::CloudChurn1e3 => {
            c.push(CampaignVector::CloudBlackout {
                onset: draw.within(12, 4),
                heal: 8,
            });
            c.push(CampaignVector::Adversary {
                onset: draw.within(26, 4),
                mode: AdversaryMode::Flap,
                factor: 4,
                duration: 16,
                links: 3,
            });
            c.push(CampaignVector::FaultStorm {
                onset: draw.within(44, 4),
                spacing: 1,
                per_edge: 1,
                stride: 1,
                offset: draw.within(0, (dpe / 2).max(1)),
            });
        }
    }
    c
}

/// One public `ArchitectureConfig` switch turned off (or the sampler
/// silenced) for an ablation rerun in the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    None,
    /// `replication = None`: the `data` layer's share.
    NoReplication,
    /// `mape = None`: the `adapt` layer's share.
    NoMape,
    /// `decentralized_coordination = false`: the `coord` layer's share.
    NoCoordination,
    /// `sample_every` = the whole run: `core`'s sampling share.
    NoSampling,
}

impl Ablation {
    /// Whether the traced run of `workload` reruns with this switch off. A
    /// switch the workload's architecture never had on is skipped (its share
    /// is 0 by construction, and a rerun would only report noise), the
    /// sampler is silenced where sampling is a suspect (`timers_1e5`), and
    /// `fuzz_sweep` builds its specs inside `riot-campaign`, out of reach.
    pub fn measured_on(self, workload: Workload) -> bool {
        let arch = ArchitectureConfig::for_level(shape(workload, Size::FULL).level);
        match self {
            _ if workload == Workload::FuzzSweep => false,
            Ablation::None => false,
            Ablation::NoReplication => arch.replication != ReplicationMode::None,
            Ablation::NoMape => arch.mape != MapePlacement::None,
            Ablation::NoCoordination => arch.decentralized_coordination,
            Ablation::NoSampling => workload == Workload::Timers1e5,
        }
    }
}

/// Host-time stamps (ns since the process epoch) at the boundaries between
/// the calls one scenario makes into the layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    pub generate: u64,
    pub compile: u64,
    pub build: u64,
    pub run: u64,
    pub verdicts: u64,
    pub render: u64,
    pub end: u64,
}

impl PhaseTimes {
    /// Host time before the scenario's first kernel event.
    pub fn setup_ns(&self) -> u64 {
        self.run - self.generate
    }

    pub fn body_ns(&self) -> u64 {
        self.end - self.generate
    }
}

/// What one executed scenario reports back.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioOutcome {
    pub times: PhaseTimes,
    pub digest: u64,
    pub events: u64,
    pub messages_sent: u64,
    pub messages_dropped: u64,
    pub failovers: u64,
    pub restarts: u64,
    pub restart_commands: u64,
    pub ingest_denied: u64,
    pub failed_monitors: u64,
    pub samples: u64,
    pub disruption_events: u64,
    /// Counted in traced runs only.
    pub topology_changes: u64,
}

/// When a compiled schedule will empty `Network`'s route cache: at every
/// cut, isolation, partition or re-attachment, and at every heal of one.
/// Ascending; simultaneous changes are listed once each.
fn change_instants(schedule: &DisruptionSchedule) -> Vec<SimTime> {
    let mut at = Vec::new();
    for e in schedule.events() {
        let heal = match &e.disruption {
            Disruption::NodeCrash { recover_after, .. } => recover_after,
            Disruption::LinkCut { heal_after, .. }
            | Disruption::CloudOutage { heal_after, .. }
            | Disruption::Partition { heal_after, .. } => heal_after,
            Disruption::Mobility { .. } => &None,
            Disruption::ComponentFault { .. }
            | Disruption::LinkDegradation { .. }
            | Disruption::DomainTransfer { .. } => continue,
        };
        at.push(e.at);
        at.extend(heal.map(|h| e.at + h));
    }
    at.sort();
    at
}

/// `core.build` → `core.run` → `core.verdicts` → `core.render` for a spec
/// whose disruptions are already compiled; the caller has stamped
/// `times.generate` and `times.compile`. Only a traced run (`sink`) scans the
/// schedule for topology changes and registers the observer, so an untraced
/// set-up times nothing but the layers.
fn execute(
    mut spec: ScenarioSpec,
    mut times: PhaseTimes,
    sink: Option<&CountSink>,
) -> ScenarioOutcome {
    let disruption_events = spec.disruptions.len() as u64;
    let mut topology_changes = 0;
    if let Some(sink) = sink {
        let changes: Arc<[SimTime]> = change_instants(&spec.disruptions).into();
        topology_changes = changes.len() as u64;
        let layout = Layout { edges: spec.edges };
        let sink = sink.clone();
        spec.observers
            .register(move || CountingObserver::new(layout, changes.clone(), sink.clone()));
    }
    times.build = now_ns();
    let scenario = Scenario::build(spec);
    times.run = now_ns();
    let result: ScenarioResult = scenario.run();
    times.verdicts = now_ns();
    let mut digest = Digest::new();
    fold_result(&mut digest, &result);
    let failed_monitors = result.failed_monitors().count() as u64;
    times.render = now_ns();
    std::hint::black_box(result.to_json().render());
    times.end = now_ns();
    ScenarioOutcome {
        times,
        digest: digest.value(),
        events: result.events_processed,
        messages_sent: result.messages_sent,
        messages_dropped: result.messages_dropped,
        failovers: result.failovers,
        restarts: result.restarts,
        restart_commands: result.restart_commands,
        ingest_denied: result.ingest_denied,
        failed_monitors,
        samples: result.sat_all_series.len() as u64,
        disruption_events,
        topology_changes,
    }
}

fn base_spec(workload: Workload, seed: u64, shape: &Shape, ablation: Ablation) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(workload.name(), shape.level, seed);
    spec.edges = shape.edges;
    spec.devices_per_edge = shape.devices_per_edge;
    spec.duration = SimDuration::from_secs(shape.duration_s);
    spec.warmup = SimDuration::from_secs(shape.warmup_s);
    spec.sample_every = SimDuration::from_millis(shape.sample_every_ms);
    let mut arch = ArchitectureConfig::for_level(shape.level);
    match ablation {
        Ablation::None => {}
        Ablation::NoReplication => arch.replication = ReplicationMode::None,
        Ablation::NoMape => arch.mape = MapePlacement::None,
        Ablation::NoCoordination => arch.decentralized_coordination = false,
        Ablation::NoSampling => spec.sample_every = spec.duration,
    }
    spec.arch = Some(arch);
    spec
}

/// One scenario of a scenario workload (everything but `fuzz_sweep`).
fn run_scenario(
    workload: Workload,
    seed: u64,
    shape: &Shape,
    ablation: Ablation,
    sink: Option<&CountSink>,
) -> ScenarioOutcome {
    let mut times = PhaseTimes {
        generate: now_ns(),
        ..PhaseTimes::default()
    };
    let campaign = campaign(workload, seed, shape);
    times.compile = now_ns();
    let mut spec = base_spec(workload, seed, shape, ablation);
    let mut schedule = campaign.compile(&spec);
    schedule.clamp_to(SimTime::ZERO + spec.duration);
    spec.disruptions = schedule;
    execute(spec, times, sink)
}

/// One fuzz case: `case_program` is `campaign.generate`, `program.spec()` is
/// `campaign.compile`, then the common path with streams and the ring on.
fn run_case(space: &CampaignSpace, case_seed: u64, sink: Option<&CountSink>) -> ScenarioOutcome {
    let mut times = PhaseTimes {
        generate: now_ns(),
        ..PhaseTimes::default()
    };
    let program = case_program(space, case_seed);
    times.compile = now_ns();
    let mut spec = program.spec();
    spec.streams = StreamSpec::standard();
    spec.trace_tail = Some(256);
    execute(spec, times, sink)
}

/// One rep: every scenario of the workload, once.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall time of the rep, first input drawn to last result rendered.
    pub wall_ns: u64,
    /// Summed host time before each scenario's first kernel event.
    pub setup_ns: u64,
    pub digest: u64,
    /// Scenarios that ran to completion, in order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Scenarios that panicked.
    pub panicked: u64,
    /// Devices × simulated seconds, summed over completed scenarios.
    pub device_seconds: f64,
    /// Start and end of the `fuzz_grid` call, when the workload made one.
    pub grid_ns: Option<(u64, u64)>,
}

impl Rep {
    /// Wall time of the run phase: everything that is not set-up, harness
    /// overhead included.
    pub fn run_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.setup_ns)
    }

    pub fn attempted(&self) -> u64 {
        self.outcomes.len() as u64 + self.panicked
    }

    pub fn sum(&self, field: impl Fn(&ScenarioOutcome) -> u64) -> u64 {
        self.outcomes.iter().map(field).sum()
    }
}

pub fn run_rep(
    workload: Workload,
    seed: u64,
    size: Size,
    ablation: Ablation,
    sink: Option<&CountSink>,
) -> Rep {
    let shape = shape(workload, size);
    let start = now_ns();
    let mut rep = Rep::default();
    if workload == Workload::FuzzSweep {
        let mut space = weakened_space();
        space.scenario.seed = seed;
        let plan = FuzzPlan::new(seed, shape.scenarios);
        let config = HarnessConfig::with_threads(1).quiet();
        let cell_sink = sink.cloned();
        let grid_start = now_ns();
        // The oracle slot carries each case's outcome back in grid order; the
        // generator is the identity so that `campaign.generate` is timed
        // inside the cell with the rest of the case.
        let report = fuzz_grid(
            &plan,
            &config,
            |case_seed| case_seed,
            move |&case_seed| Some(run_case(&space, case_seed, cell_sink.as_ref())),
        );
        rep.grid_ns = Some((grid_start, now_ns()));
        for case in report.cases {
            match case.outcome {
                Ok(Some(outcome)) => rep.outcomes.push(outcome),
                Ok(None) | Err(_) => rep.panicked += 1,
            }
        }
    } else {
        for _ in 0..shape.scenarios {
            let run = catch_unwind(AssertUnwindSafe(|| {
                run_scenario(workload, seed, &shape, ablation, sink)
            }));
            match run {
                Ok(outcome) => rep.outcomes.push(outcome),
                Err(_) => rep.panicked += 1,
            }
        }
    }
    rep.wall_ns = now_ns() - start;
    rep.setup_ns = rep.sum(|o| o.times.setup_ns());
    let mut digest = Digest::new();
    for o in &rep.outcomes {
        digest.u64(o.digest);
    }
    rep.digest = digest.value();
    rep.device_seconds =
        rep.outcomes.len() as f64 * shape.devices() as f64 * shape.duration_s as f64;
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn every_seed_draws_the_same_amount_of_disruption() {
        for w in [Workload::Mesh1e3, Workload::CloudChurn1e3] {
            let shape = shape(w, Size::FULL);
            let spec = base_spec(w, 0, &shape, Ablation::None);
            let lens: Vec<usize> = (0..20)
                .map(|seed| campaign(w, seed, &shape).compile(&spec).len())
                .collect();
            assert!(lens[0] > 0);
            assert!(lens.iter().all(|&l| l == lens[0]), "{w:?}: {lens:?}");
            let a = campaign(w, 1, &shape);
            assert_eq!(a, campaign(w, 1, &shape), "same seed, same inputs");
            assert_ne!(a, campaign(w, 2, &shape), "the seed moves the onsets");
        }
    }

    #[test]
    fn campaigns_fit_inside_the_run() {
        for w in [Workload::Mesh1e3, Workload::CloudChurn1e3] {
            let shape = shape(w, Size::FULL);
            let spec = base_spec(w, 0, &shape, Ablation::None);
            for seed in 0..50 {
                let schedule = campaign(w, seed, &shape).compile(&spec);
                let last = schedule.last_at().expect("non-empty");
                assert!(
                    last < SimTime::from_secs(shape.duration_s),
                    "{w:?} seed {seed}"
                );
                let first = schedule.events()[0].at;
                assert!(
                    first >= SimTime::from_secs(shape.warmup_s),
                    "{w:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn smoke_rep_repeats_its_digest() {
        for w in [Workload::CloudChurn1e3, Workload::FuzzSweep] {
            let a = run_rep(w, 3, Size::SMOKE, Ablation::None, None);
            let b = run_rep(w, 3, Size::SMOKE, Ablation::None, None);
            assert_eq!(a.panicked, 0);
            assert_eq!(a.digest, b.digest, "{w:?}");
            assert_eq!(a.attempted(), shape(w, Size::SMOKE).scenarios as u64);
            assert!(a.setup_ns > 0 && a.run_ns() > 0);
        }
    }

    #[test]
    fn traced_rep_counts_what_the_result_reports() {
        use crate::trace::Kind;
        let sink = CountSink::default();
        let rep = run_rep(
            Workload::Mesh1e3,
            3,
            Size::SMOKE,
            Ablation::None,
            Some(&sink),
        );
        let counts = sink.lock().unwrap().clone();
        assert_eq!(counts.kind(Kind::Sent), rep.sum(|o| o.messages_sent));
        assert_eq!(counts.kind(Kind::Dropped), rep.sum(|o| o.messages_dropped));
        assert!(
            counts.kind(Kind::Delivered) + counts.kind(Kind::Dropped) <= counts.kind(Kind::Sent)
        );
    }
}
