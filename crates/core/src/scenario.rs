//! Scenario assembly and execution: the experiment engine.
//!
//! A [`ScenarioSpec`] describes a deployment (size, maturity level,
//! domains, disruption schedule); [`Scenario::build`] assembles the
//! network, domain registry and node processes; [`Scenario::run`] executes
//! it, sampling the five standard requirements every
//! [`ScenarioSpec::sample_every`] and producing a [`ScenarioResult`] with
//! the resilience report and run counters.
//!
//! ## Node-id layout
//!
//! Deterministic and derivable from the spec alone (so disruption
//! schedules can be written before the system exists): the cloud is
//! process 0, edges are `1..=edges`, devices follow grouped by edge.
//! [`ScenarioSpec::cloud_id`], [`ScenarioSpec::edge_id`] and
//! [`ScenarioSpec::device_id`] encode this.

use crate::cloud::{CloudConfig, CloudProcess};
use crate::config::{ArchitectureConfig, ReplicationMode};
use crate::device::{DeviceConfig, DeviceGroup, DeviceProcess};
use crate::edge::{EdgeConfig, EdgeProcess};
use crate::msg::Msg;
use crate::observe::{
    monitor_outcomes, MonitorOutcome, MonitorSpec, ObserverSpec, StreamKind, StreamQuantiles,
    StreamSpec, StreamStats, StreamSummary, SAT_LABEL,
};
use crate::state::{ConsumerMirror, NodeSlab, SampleFold, SlabLiveness};

use crate::resilience::{
    standard_goal_model, standard_requirements, time_weighted_mean_raw, ResilienceReport,
    SampleLog, Thresholds, REQUIREMENT_NAMES,
};
use riot_data::{DataKey, KeySpace, Sensitivity};
use riot_formal::OnlineMonitor;
use riot_model::{
    Disruption, DisruptionSchedule, Domain, DomainId, DomainRegistry, GoalModel, Jurisdiction,
    MaturityLevel, Requirement, RequirementSet, Telemetry, TrustLevel, Verdict,
};
use riot_net::{presets, Hierarchy, HierarchySpec, LatencyModel, Link, Network};
use riot_sim::{
    ActivityTracker, EventMask, FlowAccounting, HistogramSummary, MeasureProbe, MetricKey,
    ProcessId, QuantileSketch, RingTrace, Sim, SimBuilder, SimDuration, SimEvent, SimTime,
    StreamPipeline, ToJson,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Staleness value reported when a consumer has never seen a key (treated
/// as "infinitely stale").
const NEVER_SEEN_STALENESS_S: f64 = 1.0e6;

/// Describes one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (reports and JSON output).
    pub name: String,
    /// Maturity level realized by the architecture.
    pub level: MaturityLevel,
    /// RNG seed; same spec + same seed ⇒ identical result.
    pub seed: u64,
    /// Number of edge components.
    pub edges: usize,
    /// Devices attached to each edge.
    pub devices_per_edge: usize,
    /// Total virtual run time.
    pub duration: SimDuration,
    /// Calm window before disruptions; baseline satisfaction is measured
    /// here.
    pub warmup: SimDuration,
    /// Requirement sampling period.
    pub sample_every: SimDuration,
    /// Requirement thresholds.
    pub thresholds: Thresholds,
    /// Every `k`-th device produces personal (GDPR) data; `0` disables.
    pub personal_every: usize,
    /// When `true`, the last edge belongs to an untrusted analytics-vendor
    /// domain and subscribes to the cloud's data (the E5 setting).
    pub vendor_edge: bool,
    /// The disruption schedule (times are absolute; use `warmup` +offsets).
    pub disruptions: DisruptionSchedule,
    /// Architecture override; defaults to
    /// [`ArchitectureConfig::for_level`].
    pub arch: Option<ArchitectureConfig>,
    /// Edge↔cloud link override (for RTT sweeps).
    pub edge_cloud_link: Option<Link>,
    /// LTL properties monitored *online* over the published requirement
    /// valuations (see [`MonitorSpec`] for the wire format); outcomes
    /// land in [`ScenarioResult::monitors`].
    pub monitors: Vec<MonitorSpec>,
    /// Keep a bounded ring of the last `N` kernel events and report it in
    /// [`ScenarioResult::trace_tail`]: O(N) retention however long the run,
    /// and crash forensics when a run panics inside a harness cell. A ring
    /// large enough not to wrap holds the run's whole event history.
    pub trace_tail: Option<usize>,
    /// Built-in streaming-telemetry pipelines (windowed operators over the
    /// observer bus; see [`StreamSpec`]). Empty by default; enabled streams
    /// only *add* [`ScenarioResult::streams`] rows — every published
    /// artifact stays byte-identical.
    pub streams: StreamSpec,
    /// Additional observers registered on the bus, after the built-in
    /// monitor bank, ring and stream pipeline (registration order is fixed;
    /// see [`ObserverSpec`]).
    pub observers: ObserverSpec,
}

/// Largest ring-tail capacity a spec may request (2^20 entries). A request
/// beyond this is almost certainly a units mistake — `RingTrace` used to
/// clamp silently, which hid exactly that class of bug.
pub const MAX_TRACE_TAIL: usize = 1 << 20;

/// A structurally invalid [`ScenarioSpec`], detected by
/// [`ScenarioSpec::validate`] before any simulation resources are committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// `edges = 0`: a scenario needs at least one edge.
    ZeroEdges,
    /// `devices_per_edge = 0`: a scenario needs at least one device.
    ZeroDevicesPerEdge,
    /// `sample_every` is zero: the sampling loop of [`Scenario::run`] would
    /// never advance.
    ZeroSampleInterval,
    /// `trace_tail = Some(0)` retains nothing; use `None` to disable the
    /// ring instead.
    ZeroTraceTail,
    /// `trace_tail` exceeds [`MAX_TRACE_TAIL`].
    TraceTailTooLarge {
        /// The capacity the spec asked for.
        requested: usize,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::ZeroEdges => write!(f, "edges must be at least 1"),
            SpecError::ZeroDevicesPerEdge => write!(f, "devices_per_edge must be at least 1"),
            SpecError::ZeroSampleInterval => {
                write!(
                    f,
                    "sample_every must be positive: a run never ends on a zero interval"
                )
            }
            SpecError::ZeroTraceTail => {
                write!(
                    f,
                    "trace_tail = Some(0) retains nothing; use None to disable"
                )
            }
            SpecError::TraceTailTooLarge { requested } => write!(
                f,
                "trace_tail of {requested} entries exceeds the maximum of {MAX_TRACE_TAIL}"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

impl ScenarioSpec {
    /// A scenario with sensible defaults: 4 edges × 8 devices, 120 s run
    /// with a 30 s warmup, sampled every second.
    pub fn new(name: impl Into<String>, level: MaturityLevel, seed: u64) -> Self {
        ScenarioSpec {
            name: name.into(),
            level,
            seed,
            edges: 4,
            devices_per_edge: 8,
            duration: SimDuration::from_secs(120),
            warmup: SimDuration::from_secs(30),
            sample_every: SimDuration::from_secs(1),
            thresholds: Thresholds::default(),
            personal_every: 4,
            vendor_edge: true,
            disruptions: DisruptionSchedule::new(),
            arch: None,
            edge_cloud_link: None,
            monitors: Vec::new(),
            trace_tail: None,
            streams: StreamSpec::new(),
            observers: ObserverSpec::new(),
        }
    }

    /// Checks spec invariants that [`Scenario::build`] would otherwise trip
    /// over at runtime. `build` calls this and panics on error; callers
    /// assembling specs from untrusted input (CLI flags, config files)
    /// should call it first and report the typed error instead.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.edges == 0 {
            return Err(SpecError::ZeroEdges);
        }
        if self.devices_per_edge == 0 {
            return Err(SpecError::ZeroDevicesPerEdge);
        }
        if self.sample_every == SimDuration::ZERO {
            return Err(SpecError::ZeroSampleInterval);
        }
        match self.trace_tail {
            Some(0) => Err(SpecError::ZeroTraceTail),
            Some(n) if n > MAX_TRACE_TAIL => Err(SpecError::TraceTailTooLarge { requested: n }),
            _ => Ok(()),
        }
    }

    /// The cloud's process id.
    pub fn cloud_id(&self) -> ProcessId {
        ProcessId(0)
    }

    /// The `i`-th edge's process id.
    ///
    /// # Panics
    ///
    /// Panics if `i >= edges`.
    pub fn edge_id(&self, i: usize) -> ProcessId {
        assert!(i < self.edges, "edge index {i} out of range");
        ProcessId(1 + i)
    }

    /// The process id of device `d` of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn device_id(&self, e: usize, d: usize) -> ProcessId {
        assert!(
            e < self.edges && d < self.devices_per_edge,
            "device ({e},{d}) out of range"
        );
        ProcessId(1 + self.edges + e * self.devices_per_edge + d)
    }

    /// Total device count.
    pub fn device_count(&self) -> usize {
        self.edges * self.devices_per_edge
    }

    /// The effective architecture configuration.
    pub fn architecture(&self) -> ArchitectureConfig {
        self.arch
            .clone()
            .unwrap_or_else(|| ArchitectureConfig::for_level(self.level))
    }

    /// The vendor edge's index (the last edge), when enabled.
    pub fn vendor_edge_index(&self) -> Option<usize> {
        if self.vendor_edge && self.edges > 1 {
            Some(self.edges - 1)
        } else {
            None
        }
    }
}

/// Static facts about one device of a built scenario.
#[derive(Debug, Clone)]
pub struct DeviceInfo {
    /// Process id.
    pub id: ProcessId,
    /// Index of its primary edge.
    pub edge_index: usize,
    /// Its data key (interned in the scenario's run-wide key space; resolve
    /// through any store's [`riot_data::KeySpace`] for the display name).
    pub key: DataKey,
    /// `true` when it produces personal data.
    pub personal: bool,
}

/// One sample tick's telemetry valuation, a fixed field per series.
/// Requirements and the goal model read it through the [`Telemetry`] trait
/// by metric name.
struct SampleTelemetry {
    /// `ctl.availability`, when any control round completed this window.
    availability: Option<f64>,
    /// `ctl.latency_ms`, when any control round completed this window.
    latency_ms: Option<f64>,
    /// `coverage` — fraction of devices up, serving and reporting.
    coverage: f64,
    /// `freshness_s`, when any operational key has a consuming store.
    freshness_s: Option<f64>,
    /// `privacy.violations` across all stores.
    privacy_violations: f64,
}

impl Telemetry for SampleTelemetry {
    fn value(&self, metric: &str) -> Option<f64> {
        match metric {
            "ctl.availability" => self.availability,
            "ctl.latency_ms" => self.latency_ms,
            "coverage" => Some(self.coverage),
            "freshness_s" => self.freshness_s,
            "privacy.violations" => Some(self.privacy_violations),
            _ => None,
        }
    }
}

/// A built, ready-to-run scenario.
pub struct Scenario {
    spec: ScenarioSpec,
    sim: Sim<Msg>,
    hierarchy: Hierarchy,
    /// The run-wide data-key space every store shares.
    keys: KeySpace,
    devices: Vec<DeviceInfo>,
    registry: DomainRegistry,
    requirements: RequirementSet,
    goals: riot_model::GoalModel,
    /// Bus index of the online monitor bank, when `spec.monitors` is set.
    monitor_idx: Option<usize>,
    /// Bus index of the forensic ring, when `spec.trace_tail` is set.
    ring_idx: Option<usize>,
    /// Bus/operator indices of the stream pipeline, when `spec.streams` is
    /// non-empty.
    streams: Option<StreamIdx>,
    /// What every sample tick recorded; the result is computed from it.
    log: SampleLog,
    /// The node-state slab every sample tick folds (`crate::state`).
    slab: NodeSlab,
}

/// Bus and operator indices of the built-in streaming-telemetry pipeline,
/// resolved at build time so `sample` and `finish` reach each operator
/// without searching the bus.
struct StreamIdx {
    /// Bus index of the [`StreamPipeline`] observer.
    pipeline: usize,
    /// Operator index of the control-latency probe.
    control: Option<usize>,
    /// Operator index of the edge ingest-latency probe.
    edge_ingest: Option<usize>,
    /// Operator index of the cloud ingest-latency probe.
    cloud_ingest: Option<usize>,
    /// Operator index of the per-jurisdiction flow accountant.
    flows: Option<usize>,
    /// Operator index of the node-liveness mirror.
    activity: Option<usize>,
    /// `(flow key, display label)` per jurisdiction counter, resolved at
    /// build time so the end-of-run harvest needn't reverse-lookup interned
    /// names.
    flow_names: Vec<(MetricKey, &'static str)>,
}

/// Stable wire label for a jurisdiction (flow-accounting row names).
fn jurisdiction_label(j: Jurisdiction) -> &'static str {
    match j {
        Jurisdiction::EuGdpr => "eu-gdpr",
        Jurisdiction::UsCcpa => "us-ccpa",
        Jurisdiction::Other => "other",
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.spec.name)
            .field("level", &self.spec.level)
            .field("devices", &self.devices.len())
            .finish()
    }
}

/// Builds the shared domain world: city (EU/GDPR) and analytics vendor
/// (US/CCPA), partners in trust.
pub fn standard_domains() -> DomainRegistry {
    let mut reg = DomainRegistry::new();
    reg.register(Domain {
        id: DomainId(0),
        name: "city".into(),
        jurisdiction: Jurisdiction::EuGdpr,
    });
    reg.register(Domain {
        id: DomainId(1),
        name: "analytics-vendor".into(),
        jurisdiction: Jurisdiction::UsCcpa,
    });
    reg.set_trust(DomainId(0), DomainId(1), TrustLevel::Partner);
    reg
}

impl Scenario {
    /// Assembles the network, domains and processes for a spec.
    ///
    /// # Panics
    ///
    /// Panics on specs rejected by [`ScenarioSpec::validate`].
    pub fn build(spec: ScenarioSpec) -> Scenario {
        let validated = spec.validate();
        // riot-lint: allow(P1, reason = "spec validation: an invalid spec must fail loudly at build time; validate() is public for callers that want the typed error")
        validated.unwrap_or_else(|e| panic!("invalid scenario spec: {e}"));
        let arch = spec.architecture();

        // -- Network. The physical topology is identical at every maturity
        // level (radios do not change with software); only the software
        // stack differs. Each device gets a physical backup link to the
        // next edge so ML4's failover has a medium to run on.
        let hspec = HierarchySpec {
            edges: spec.edges,
            devices_per_edge: spec.devices_per_edge,
            device_edge: presets::device_edge(),
            edge_cloud: spec.edge_cloud_link.unwrap_or_else(presets::edge_cloud),
            edge_mesh: Some(presets::edge_edge()),
        };
        let (mut net, hierarchy) = Hierarchy::build(&hspec);
        if spec.edges > 1 {
            let backup = Link {
                latency: LatencyModel::uniform_ms(4, 12),
                loss: 0.005,
            };
            for (e, devs) in hierarchy.devices.iter().enumerate() {
                // riot-lint: allow(P1, reason = "hierarchy.edges has exactly spec.edges entries; the index is reduced mod spec.edges")
                let next_edge = hierarchy.edges[(e + 1) % spec.edges];
                for &d in devs {
                    net.add_link(d, next_edge, backup);
                }
            }
        }

        // -- Domains.
        let registry = standard_domains();
        let vendor_idx = spec.vendor_edge_index();
        let mut domain_of: BTreeMap<ProcessId, DomainId> = BTreeMap::new();
        domain_of.insert(hierarchy.cloud, DomainId(0));
        for (i, &e) in hierarchy.edges.iter().enumerate() {
            let dom = if Some(i) == vendor_idx {
                DomainId(1)
            } else {
                DomainId(0)
            };
            domain_of.insert(e, dom);
        }
        for &d in &hierarchy.all_devices() {
            domain_of.insert(d, DomainId(0));
        }
        // One shared map serves the cloud and every edge (the configs hold
        // `Rc` handles) — at 10⁵ devices the per-process clone this replaces
        // dominated build time and memory.
        let domain_of = Rc::new(domain_of);

        // -- Simulation and processes (spawn order must match node ids).
        let mut sim: Sim<Msg> = SimBuilder::new(spec.seed)
            .max_events(2_000_000_000)
            // Cloud + edges + devices, known before a single spawn.
            .expect_processes(1 + spec.edges + spec.device_count())
            .build_with_medium(Box::new(net));

        // -- Node-state slab (the sampler's backbone; see crate::state).
        // Built before the bus registrations so its liveness mirror is the
        // first observer: by the time any user observer sees a lifecycle
        // event, the slab already reflects it.
        let personal: Vec<bool> = (0..spec.device_count())
            .map(|i| spec.personal_every > 0 && i.is_multiple_of(spec.personal_every))
            .collect();
        let slab = NodeSlab::new(arch.sense_period * 3, personal);
        // Devices occupy the contiguous id range after cloud + edges.
        sim.add_observer(SlabLiveness::new(
            slab.clone(),
            1 + spec.edges,
            spec.device_count(),
        ));

        // -- Observability bus. Registration order is fixed and documented
        // (crate::observe): slab liveness mirror (runtime-internal), monitor
        // bank, forensic ring, stream pipeline, then user factories.
        // Observers only read events, so this cannot change the run itself
        // — only what gets reported.
        let monitor_idx = if spec.monitors.is_empty() {
            None
        } else {
            let mut bank = OnlineMonitor::new(SAT_LABEL);
            for m in &spec.monitors {
                let watched = bank.watch(&m.name, &m.formula);
                // riot-lint: allow(P1, reason = "spec validation: a malformed monitor formula must fail loudly at build time, like an invalid spec above")
                watched.unwrap_or_else(|e| panic!("monitor '{}': {e}", m.name));
            }
            Some(sim.add_observer(bank))
        };
        let ring_idx = spec
            .trace_tail
            .map(|cap| sim.add_observer(RingTrace::forensics(cap)));
        let streams = if spec.streams.is_empty() {
            None
        } else {
            let n = 1 + spec.edges + spec.device_count();
            let mut pipeline = StreamPipeline::with_capacity(spec.streams.len() + 1);
            let mut idx = StreamIdx {
                pipeline: 0,
                control: None,
                edge_ingest: None,
                cloud_ingest: None,
                flows: None,
                activity: None,
                flow_names: Vec::new(),
            };
            for &kind in spec.streams.kinds() {
                match kind {
                    StreamKind::ControlLatency => {
                        let key = sim.metrics_mut().intern("device.control.latency_ms");
                        idx.control = Some(pipeline.push(MeasureProbe::new(
                            key,
                            QuantileSketch::for_latency_ms(),
                            spec.sample_every,
                        )));
                    }
                    StreamKind::IngestLatency => {
                        // One probe per ingesting tier; both read the same
                        // virtual reading age published at accept time.
                        let edge_key = sim.metrics_mut().intern("edge.ingest.latency_ms");
                        let cloud_key = sim.metrics_mut().intern("cloud.ingest.latency_ms");
                        idx.edge_ingest = Some(pipeline.push(MeasureProbe::new(
                            edge_key,
                            QuantileSketch::for_latency_ms(),
                            spec.sample_every,
                        )));
                        idx.cloud_ingest = Some(pipeline.push(MeasureProbe::new(
                            cloud_key,
                            QuantileSketch::for_latency_ms(),
                            spec.sample_every,
                        )));
                    }
                    StreamKind::FlowsByJurisdiction => {
                        // Deliveries are attributed to the destination
                        // node's data-domain jurisdiction; domain_of covers
                        // every process the hierarchy minted.
                        let mut key_of: Vec<Option<MetricKey>> = vec![None; n];
                        for (pid, dom) in domain_of.iter() {
                            let Some(domain) = registry.get(*dom) else {
                                continue;
                            };
                            let label = jurisdiction_label(domain.jurisdiction);
                            let key = sim.metrics_mut().intern(&format!("flow.{label}"));
                            if !idx.flow_names.iter().any(|(k, _)| *k == key) {
                                idx.flow_names.push((key, label));
                            }
                            if let Some(slot) = key_of.get_mut(pid.index()) {
                                *slot = Some(key);
                            }
                        }
                        idx.flow_names.sort_by_key(|(_, label)| *label);
                        idx.flows = Some(pipeline.push(FlowAccounting::new(key_of)));
                    }
                    StreamKind::Activity => {
                        idx.activity = Some(pipeline.push(ActivityTracker::new(n)));
                    }
                }
            }
            idx.pipeline = sim.add_observer(pipeline);
            Some(idx)
        };
        for observer in spec.observers.instantiate() {
            sim.add_boxed_observer(observer);
        }

        // -- One run-wide data-key space. Every store (cloud, every edge)
        // shares it, so data-plane sync moves dense ids with zero
        // translation (`SyncMsg` carries the space; `same_as` short-cuts
        // the name round-trip) and devices send `DataKey`s, not strings.
        let keys = KeySpace::new();

        let subscribers = vendor_idx
            // riot-lint: allow(P1, reason = "vendor_edge_index() only ever returns Some(spec.edges - 1)")
            .map(|i| vec![hierarchy.edges[i]])
            .unwrap_or_default();
        let cloud_id = sim.add_process(CloudProcess::new(CloudConfig {
            arch: arch.clone(),
            me: hierarchy.cloud,
            domain: DomainId(0),
            registry: registry.clone(),
            subscribers,
            domain_of: domain_of.clone(),
            keys: keys.clone(),
        }));
        debug_assert_eq!(cloud_id, hierarchy.cloud);

        for (i, &e) in hierarchy.edges.iter().enumerate() {
            let peer_edges: Vec<ProcessId> = hierarchy
                .edges
                .iter()
                .copied()
                .filter(|p| *p != e)
                .collect();
            let id = sim.add_process(EdgeProcess::new(EdgeConfig {
                arch: arch.clone(),
                me: e,
                cloud: hierarchy.cloud,
                peer_edges,
                // riot-lint: allow(P1, reason = "domain_of was populated above with every process the hierarchy minted")
                domain: domain_of[&e],
                domain_of: domain_of.clone(),
                registry: registry.clone(),
                scope: i as u32,
                keys: keys.clone(),
            }));
            debug_assert_eq!(id, e);
        }

        // Architecture, failover list, cloud id and metric keys are
        // identical for every device on the same edge: one shared
        // allocation per edge group.
        let group_of_edge: Vec<Rc<DeviceGroup>> = (0..spec.edges)
            .map(|e| {
                let backups = (1..spec.edges)
                    // riot-lint: allow(P1, reason = "hierarchy.edges has exactly spec.edges entries; the index is reduced mod spec.edges")
                    .map(|k| hierarchy.edges[(e + k) % spec.edges])
                    .collect();
                DeviceGroup::new(arch.clone(), backups, hierarchy.cloud, sim.metrics_mut())
            })
            .collect();

        let mut devices = Vec::with_capacity(spec.device_count());
        let mut global_idx = 0usize;
        for (e, (devs, group)) in hierarchy.devices.iter().zip(&group_of_edge).enumerate() {
            for &d in devs {
                let personal =
                    spec.personal_every > 0 && global_idx.is_multiple_of(spec.personal_every);
                let key = keys.intern(&format!("dev{}/reading", d.0));
                let mut dev = DeviceProcess::new(DeviceConfig {
                    group: group.clone(),
                    // riot-lint: allow(P1, reason = "e enumerates hierarchy.devices, built with one entry per edge")
                    primary_edge: hierarchy.edges[e],
                    component: riot_model::ComponentId(d.0 as u32),
                    data_key: key,
                    sensitivity: if personal {
                        Sensitivity::Personal
                    } else {
                        Sensitivity::Internal
                    },
                    domain: DomainId(0),
                });
                dev.attach_slab(slab.clone(), global_idx as u32);
                let id = sim.add_process(dev);
                debug_assert_eq!(id, d);
                devices.push(DeviceInfo {
                    id: d,
                    edge_index: e,
                    key,
                    personal,
                });
                global_idx += 1;
            }
        }

        // -- Consumer-freshness mirrors: a store probe on each consuming
        // store writes record arrivals/evictions straight into the slab, so
        // the freshness fold never touches the stores. The consumer mapping
        // is static — a device's designated consumer follows from its *home*
        // edge index, which neither mobility nor failover rewrites — and is
        // the one the `#[cfg(test)]` rescan oracle's `consumer_staleness`
        // walks.
        match arch.replication {
            // No replication: nothing ever lands anywhere; the mirror
            // stays unwritten and every key reads never-seen.
            ReplicationMode::None => {}
            ReplicationMode::CloudOnly | ReplicationMode::EdgeToCloud => {
                let mut slot_of: Vec<Option<u32>> = vec![None; keys.len()];
                for (slot, info) in devices.iter().enumerate() {
                    if let Some(s) = slot_of.get_mut(info.key.index()) {
                        *s = Some(slot as u32);
                    }
                }
                if let Some(cloud) = sim.process_mut::<CloudProcess>(hierarchy.cloud) {
                    cloud.set_store_probe(Rc::new(ConsumerMirror::new(slab.clone(), slot_of)));
                }
            }
            ReplicationMode::EdgeMesh => {
                for (j, &e) in hierarchy.edges.iter().enumerate() {
                    // Edge j consumes the devices homed on the previous
                    // edge (whose consumer is `(edge_index + 1) % edges`).
                    let producer_edge = (j + spec.edges - 1) % spec.edges.max(1);
                    let mut slot_of: Vec<Option<u32>> = vec![None; keys.len()];
                    for (slot, info) in devices.iter().enumerate() {
                        if info.edge_index == producer_edge {
                            if let Some(s) = slot_of.get_mut(info.key.index()) {
                                *s = Some(slot as u32);
                            }
                        }
                    }
                    if let Some(edge) = sim.process_mut::<EdgeProcess>(e) {
                        edge.set_store_probe(Rc::new(ConsumerMirror::new(slab.clone(), slot_of)));
                    }
                }
            }
        }

        // -- Disruptions become injections.
        for ev in spec.disruptions.clone() {
            let disruption = ev.disruption.clone();
            sim.schedule_injection(ev.at, move |sim| apply_disruption(sim, disruption));
        }

        let requirements = standard_requirements(spec.thresholds);
        let goals = standard_goal_model();
        Scenario {
            spec,
            sim,
            hierarchy,
            keys,
            devices,
            registry,
            requirements,
            goals,
            monitor_idx,
            ring_idx,
            streams,
            log: SampleLog::default(),
            slab,
        }
    }

    /// The spec this scenario was built from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The devices of the built scenario.
    pub fn devices(&self) -> &[DeviceInfo] {
        &self.devices
    }

    /// The run-wide data-key space (resolves [`DeviceInfo::key`] to names).
    pub fn keys(&self) -> &KeySpace {
        &self.keys
    }

    /// Runs to completion, sampling requirements, and reports.
    pub fn run(mut self) -> ScenarioResult {
        let spec = self.spec.clone();
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + spec.duration;
        while t < end {
            t = (t + spec.sample_every).min(end);
            self.sim.run_until(t);
            self.sample(t);
        }
        self.finish()
    }

    /// Staleness of `info`'s key at its consuming store, for the rescan
    /// oracle. An associated function over disjoint borrows: [`Self::rescan`]
    /// holds `&self.devices` while probing `self.sim`.
    #[cfg(test)]
    fn consumer_staleness(
        sim: &Sim<Msg>,
        hierarchy: &Hierarchy,
        replication: ReplicationMode,
        edges: usize,
        info: &DeviceInfo,
        now: SimTime,
    ) -> f64 {
        match replication {
            ReplicationMode::None => NEVER_SEEN_STALENESS_S,
            ReplicationMode::CloudOnly | ReplicationMode::EdgeToCloud => sim
                .process::<CloudProcess>(hierarchy.cloud)
                .and_then(|c| c.store().staleness_secs_key(info.key, now))
                .unwrap_or(NEVER_SEEN_STALENESS_S),
            ReplicationMode::EdgeMesh => {
                let consumer = hierarchy.edges[(info.edge_index + 1) % edges];
                sim.process::<EdgeProcess>(consumer)
                    .and_then(|e| e.store().staleness_secs_key(info.key, now))
                    .unwrap_or(NEVER_SEEN_STALENESS_S)
            }
        }
    }

    /// Whether a device is currently up, for the rescan oracle. When the
    /// `Activity` stream is enabled this reads the pipeline's liveness
    /// mirror, with the kernel's own table as the fallback. The two agree
    /// by construction (the tracker replays the same
    /// `ProcessDown`/`ProcessUp` events the kernel emitted).
    #[cfg(test)]
    fn device_is_up(&self, id: ProcessId) -> bool {
        if let Some(s) = &self.streams {
            if let Some(op) = s.activity {
                if let Some(pipeline) = self.sim.observer::<StreamPipeline>(s.pipeline) {
                    if let Some(tracker) = pipeline.activity_tracker(op) {
                        return tracker.is_up(id);
                    }
                }
            }
        }
        self.sim.is_up(id)
    }

    /// One resilience sample tick. Declared a hot root in
    /// `lint-hotpaths.toml`: nothing reachable from here may allocate
    /// (rule A1) beyond the [`SampleLog`] columns' own growth, which the
    /// fixed-field [`SampleTelemetry`] valuation exists to guarantee. Calls
    /// into other crates use qualified-call syntax so the lint's call graph
    /// gets precise edges (DESIGN.md §10).
    fn sample(&mut self, now: SimTime) {
        // O(changed): fold the node-state slab's flat arrays. Devices
        // pushed their deltas as they happened; nothing here touches the
        // process table or the stores.
        let fold = self.slab.sample_fold(now, NEVER_SEEN_STALENESS_S);
        self.publish_sample(now, &fold);
    }

    /// The rescan oracle: [`Self::build`] and [`Self::run`] with every
    /// device detached from the slab and each sample gathered by
    /// [`Self::rescan`] instead of the slab fold. The liveness mirror and
    /// the store probes stay registered and write rows nothing reads.
    #[cfg(test)]
    fn run_rescan_oracle(spec: ScenarioSpec) -> ScenarioResult {
        let mut scenario = Scenario::build(spec);
        for info in &scenario.devices {
            scenario
                .sim
                .process_mut::<DeviceProcess>(info.id)
                .expect("device process")
                .detach_slab();
        }
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + scenario.spec.duration;
        while t < end {
            t = (t + scenario.spec.sample_every).min(end);
            scenario.sim.run_until(t);
            let fold = scenario.rescan(t);
            scenario.publish_sample(t, &fold);
        }
        scenario.finish()
    }

    /// The oracle's gather: one O(devices) pass over the device index —
    /// control-loop window, coverage, and consumer-store freshness
    /// together, read from the process table and the stores. Keeping the
    /// staleness accumulation in device-index order pins the floating-point
    /// sum — and therefore the recorded freshness series — bit-for-bit;
    /// the slab fold replays the identical addition sequence (its slot
    /// order *is* device-index order), which is what lets the oracle test
    /// demand byte-identical results.
    #[cfg(test)]
    fn rescan(&mut self, now: SimTime) -> SampleFold {
        let mut window = crate::device::DeviceWindow::default();
        let mut covered = 0usize;
        let mut staleness_sum = 0.0;
        let mut staleness_n = 0usize;
        let arch = self.spec.architecture();
        let fresh_horizon = arch.sense_period * 3;
        for info in &self.devices {
            let up = self.device_is_up(info.id);
            let dev = self
                .sim
                .process_mut::<DeviceProcess>(info.id)
                .expect("device process");
            let w = dev.take_window();
            window.control_ok += w.control_ok;
            window.control_timeout += w.control_timeout;
            window.latency_sum_ms += w.latency_sum_ms;
            window.latency_count += w.latency_count;
            let reporting = dev
                .last_reading_at()
                .map(|at| now.saturating_since(at) <= fresh_horizon)
                .unwrap_or(false);
            if up && dev.component_state().provides_service() && reporting {
                covered += 1;
            }
            // Freshness at the consuming store (operational keys only;
            // governed architectures rightfully keep personal keys home).
            if !info.personal {
                staleness_sum += Self::consumer_staleness(
                    &self.sim,
                    &self.hierarchy,
                    arch.replication,
                    self.spec.edges,
                    info,
                    now,
                )
                .min(NEVER_SEEN_STALENESS_S);
                staleness_n += 1;
            }
        }
        SampleFold {
            window,
            covered,
            staleness_sum,
            staleness_n,
        }
    }

    /// The tail of a sample tick: privacy audit, telemetry valuation,
    /// verdicts, one point per [`SampleLog`] column and the bus note. The
    /// `#[cfg(test)]` rescan oracle feeds its own [`SampleFold`] through
    /// here, so its result can only differ from the slab's if the gathered
    /// numbers do.
    fn publish_sample(&mut self, now: SimTime, fold: &SampleFold) {
        let window = &fold.window;
        let covered = fold.covered;
        let staleness_sum = fold.staleness_sum;
        let staleness_n = fold.staleness_n;
        // -- Privacy audit across all stores.
        let mut violations = 0usize;
        if let Some(c) = self.sim.process::<CloudProcess>(self.hierarchy.cloud) {
            violations += c.store().privacy_violations(&self.registry);
        }
        for &e in &self.hierarchy.edges {
            if let Some(edge) = self.sim.process::<EdgeProcess>(e) {
                violations += edge.store().privacy_violations(&self.registry);
            }
        }

        // -- Telemetry valuation and verdicts, allocation-free.
        let telemetry = SampleTelemetry {
            availability: window.availability(),
            latency_ms: window.mean_latency_ms(),
            coverage: covered as f64 / self.devices.len().max(1) as f64,
            freshness_s: (staleness_n > 0).then(|| staleness_sum / staleness_n as f64),
            privacy_violations: violations as f64,
        };

        let goal_eval = GoalModel::evaluate(&self.goals, &self.requirements, &telemetry);
        let goal_sat = goal_eval.root == Verdict::Satisfied;
        let indicator = |sat: bool| if sat { 1.0 } else { 0.0 };
        let log = &mut self.log;
        log.goal.push((now, indicator(goal_sat)));
        let mut all_sat = true;
        let mut sat_count = 0usize;
        let mut req_count = 0usize;
        // Verdict bitmask in requirement (id) order, for the bus note below
        // — REQUIREMENT_NAMES is far below 32 entries.
        let mut sat_bits = 0u32;
        for (i, (req, column)) in self
            .requirements
            .iter()
            .zip(&mut log.requirements)
            .enumerate()
        {
            let sat = Requirement::evaluate(req, &telemetry) == Verdict::Satisfied;
            all_sat &= sat;
            sat_count += sat as usize;
            if sat {
                sat_bits |= 1u32.checked_shl(i as u32).unwrap_or(0);
            }
            req_count += 1;
            column.push((now, indicator(sat)));
        }
        log.all.push((now, indicator(all_sat)));
        log.satfrac
            .push((now, sat_count as f64 / req_count.max(1) as f64));
        log.coverage.push((now, telemetry.coverage));
        if let Some(avail) = telemetry.availability {
            log.availability.push((now, avail));
        }
        if let Some(lat) = telemetry.latency_ms {
            log.latency_ms.push((now, lat));
        }
        if let Some(fresh) = telemetry.freshness_s {
            log.freshness_s.push((now, fresh));
        }
        log.privacy_violations
            .push((now, telemetry.privacy_violations));

        // -- Publish the valuation onto the observability bus so online
        // monitors advance at this sample. Token order is part of the
        // contract (crate::observe): `all`, `goal`, then the requirement
        // names in canonical order. Skipped entirely when no observer reads
        // notes.
        if self.sim.wants(EventMask::NOTE) {
            let mut note = String::with_capacity(96);
            let _ = write!(
                note,
                "{SAT_LABEL} all={} goal={}",
                u8::from(all_sat),
                u8::from(goal_sat)
            );
            for (i, name) in REQUIREMENT_NAMES.iter().enumerate() {
                let bit = sat_bits.checked_shr(i as u32).unwrap_or(0) & 1;
                let _ = write!(note, " {name}={bit}");
            }
            self.sim.annotate(note);
        }
    }

    /// Harvests one [`StreamSummary`] row per enabled stream, in a fixed
    /// order (latency probes, then flows, then activity) independent of the
    /// spec's enable order.
    fn stream_summaries(&self) -> Vec<StreamSummary> {
        let Some(s) = &self.streams else {
            return Vec::new();
        };
        let Some(pipeline) = self.sim.observer::<StreamPipeline>(s.pipeline) else {
            return Vec::new();
        };
        let mut rows = Vec::new();
        let probes = [
            (s.control, "device.control.latency_ms"),
            (s.edge_ingest, "edge.ingest.latency_ms"),
            (s.cloud_ingest, "cloud.ingest.latency_ms"),
        ];
        for (slot, name) in probes {
            let Some(probe) = slot.and_then(|op| pipeline.measure_probe(op)) else {
                continue;
            };
            let stats = probe.stats();
            let sketch = probe.sketch();
            rows.push(StreamSummary {
                name: name.to_owned(),
                count: stats.count(),
                stats: (stats.count() > 0).then(|| StreamStats {
                    mean: stats.mean(),
                    stddev: stats.stddev(),
                    min: stats.min(),
                    max: stats.max(),
                }),
                quantiles: (sketch.count() > 0).then(|| StreamQuantiles {
                    p50: sketch.p50(),
                    p95: sketch.p95(),
                    p99: sketch.p99(),
                    alpha: sketch.alpha(),
                }),
                flows: Vec::new(),
            });
        }
        if let Some(flow) = s.flows.and_then(|op| pipeline.flow_accounting(op)) {
            let counts = flow.counts();
            rows.push(StreamSummary {
                name: StreamKind::FlowsByJurisdiction.name().to_owned(),
                count: counts.total(),
                stats: None,
                quantiles: None,
                flows: s
                    .flow_names
                    .iter()
                    .map(|(key, label)| ((*label).to_owned(), counts.count(*key)))
                    .collect(),
            });
        }
        if let Some(tracker) = s.activity.and_then(|op| pipeline.activity_tracker(op)) {
            rows.push(StreamSummary {
                name: StreamKind::Activity.name().to_owned(),
                count: tracker.transitions(),
                stats: None,
                quantiles: None,
                flows: vec![("up".to_owned(), tracker.up_count() as u64)],
            });
        }
        rows
    }

    fn finish(mut self) -> ScenarioResult {
        let spec = self.spec.clone();
        let end = SimTime::ZERO + spec.duration;
        let split = SimTime::ZERO + spec.warmup;
        let failovers = self.sim.metrics().counter("device.failover");
        let restarts = self.sim.metrics().counter("device.component.restarted");
        let restart_commands = self.sim.metrics().counter("mape.restart_sent");
        let ingest_denied = self.sim.metrics().counter("edge.ingest.denied")
            + self.sim.metrics().counter("cloud.ingest.denied");
        let msgs_sent = self.sim.metrics().counter("sim.msg.sent");
        let msgs_dropped = self.sim.metrics().counter("sim.msg.dropped");
        let latency = self
            .sim
            .metrics_mut()
            .summarize("device.control.latency_ms");
        let report = ResilienceReport::from_log(&self.log, SimTime::ZERO, split, end);
        let in_secs = |series: &[(SimTime, f64)]| -> Vec<(f64, f64)> {
            series.iter().map(|(t, v)| (t.as_secs_f64(), *v)).collect()
        };
        let sat_all_series = in_secs(&self.log.all);
        let satfrac_series = in_secs(&self.log.satfrac);
        // A column that never got a point has no mean and no entry.
        let telemetry_means: BTreeMap<String, f64> = self
            .log
            .telemetry()
            .into_iter()
            .filter_map(|(name, series)| {
                Some((name.to_owned(), time_weighted_mean_raw(series, split, end)?))
            })
            .collect();
        let monitors: Vec<MonitorOutcome> = self
            .monitor_idx
            .and_then(|i| self.sim.observer::<OnlineMonitor>(i))
            .map(monitor_outcomes)
            .unwrap_or_default();
        let trace_tail: Vec<SimEvent> = self
            .ring_idx
            .and_then(|i| self.sim.observer_mut::<RingTrace>(i))
            .map(RingTrace::take_tail)
            .unwrap_or_default();
        let streams = self.stream_summaries();
        ScenarioResult {
            name: spec.name.clone(),
            level: spec.level,
            seed: spec.seed,
            devices: spec.device_count(),
            edges: spec.edges,
            duration_s: spec.duration.as_secs_f64(),
            report,
            failovers,
            restarts,
            restart_commands,
            ingest_denied,
            messages_sent: msgs_sent,
            messages_dropped: msgs_dropped,
            control_latency: latency,
            events_processed: self.sim.events_processed(),
            sat_all_series,
            satfrac_series,
            monitors,
            trace_tail,
            streams,
            telemetry_means,
        }
    }
}

/// Applies one disruption inside an injection.
fn apply_disruption(sim: &mut Sim<Msg>, disruption: Disruption) {
    match disruption {
        Disruption::NodeCrash {
            node,
            recover_after,
        } => {
            sim.set_down(node);
            // Dead hardware neither hosts software nor relays traffic.
            let cut = sim
                .medium_mut::<Network>()
                .map(|net| net.isolate(node))
                .unwrap_or_default();
            if let Some(delay) = recover_after {
                let at = sim.now() + delay;
                sim.schedule_injection(at, move |sim| {
                    sim.set_up(node);
                    if let Some(net) = sim.medium_mut::<Network>() {
                        for (a, b) in cut {
                            net.restore_link(a, b);
                        }
                    }
                });
            }
        }
        Disruption::ComponentFault { node, .. } => {
            if let Some(dev) = sim.process_mut::<DeviceProcess>(node) {
                dev.fail_component();
            }
        }
        Disruption::LinkDegradation {
            a,
            b,
            factor,
            heal_after,
        } => {
            if let Some(net) = sim.medium_mut::<Network>() {
                net.degrade_link(a, b, factor);
            }
            if let Some(delay) = heal_after {
                let at = sim.now() + delay;
                sim.schedule_injection(at, move |sim| {
                    if let Some(net) = sim.medium_mut::<Network>() {
                        net.restore_link_quality(a, b);
                    }
                });
            }
        }
        Disruption::LinkCut { a, b, heal_after } => {
            if let Some(net) = sim.medium_mut::<Network>() {
                net.cut_link(a, b);
            }
            if let Some(delay) = heal_after {
                let at = sim.now() + delay;
                sim.schedule_injection(at, move |sim| {
                    if let Some(net) = sim.medium_mut::<Network>() {
                        net.restore_link(a, b);
                    }
                });
            }
        }
        Disruption::CloudOutage { cloud, heal_after } => {
            let cut = sim
                .medium_mut::<Network>()
                .map(|net| net.isolate(cloud))
                .unwrap_or_default();
            if let Some(delay) = heal_after {
                let at = sim.now() + delay;
                sim.schedule_injection(at, move |sim| {
                    if let Some(net) = sim.medium_mut::<Network>() {
                        for (a, b) in cut {
                            net.restore_link(a, b);
                        }
                    }
                });
            }
        }
        Disruption::Partition { groups, heal_after } => {
            let cut = sim
                .medium_mut::<Network>()
                .map(|net| net.partition(&groups))
                .unwrap_or_default();
            if let Some(delay) = heal_after {
                let at = sim.now() + delay;
                sim.schedule_injection(at, move |sim| {
                    if let Some(net) = sim.medium_mut::<Network>() {
                        for (a, b) in cut {
                            net.restore_link(a, b);
                        }
                    }
                });
            }
        }
        Disruption::DomainTransfer { entity, to } => {
            let node = ProcessId(entity as usize);
            if let Some(edge) = sim.process_mut::<EdgeProcess>(node) {
                edge.transfer_domain(to);
            }
        }
        Disruption::Mobility { device, new_parent } => {
            if let Some(net) = sim.medium_mut::<Network>() {
                net.reattach(device, new_parent, presets::device_edge());
            }
            if let Some(dev) = sim.process_mut::<DeviceProcess>(device) {
                dev.rehome(new_parent);
            }
        }
    }
}

/// The outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Maturity level run.
    pub level: MaturityLevel,
    /// Seed used.
    pub seed: u64,
    /// Number of devices.
    pub devices: usize,
    /// Number of edges.
    pub edges: usize,
    /// Run length in virtual seconds.
    pub duration_s: f64,
    /// The resilience report.
    pub report: ResilienceReport,
    /// Device failovers performed (ML4).
    pub failovers: u64,
    /// Component restarts completed.
    pub restarts: u64,
    /// Restart commands issued by MAPE loops.
    pub restart_commands: u64,
    /// Records denied at policy-checked ingestion.
    pub ingest_denied: u64,
    /// Messages submitted to the medium.
    pub messages_sent: u64,
    /// Messages dropped (loss, partitions, dead nodes).
    pub messages_dropped: u64,
    /// Control round-trip latency summary.
    pub control_latency: Option<HistogramSummary>,
    /// Simulator events processed.
    pub events_processed: u64,
    /// The sampled all-requirements-satisfied indicator, as
    /// `(seconds, 0/1)` — the trace runtime monitors consume.
    pub sat_all_series: Vec<(f64, f64)>,
    /// The sampled satisfied-fraction series, as `(seconds, fraction)`.
    pub satfrac_series: Vec<(f64, f64)>,
    /// Outcomes of the online monitors from [`ScenarioSpec::monitors`], in
    /// spec order. Excluded from the JSON rendering so existing result
    /// files stay byte-identical; experiment binaries report the fields
    /// they care about explicitly.
    pub monitors: Vec<MonitorOutcome>,
    /// The last-N kernel events, oldest first, when
    /// [`ScenarioSpec::trace_tail`] was set: the forensic ring's contents,
    /// moved out unrendered — [`ScenarioResult::trace_tail_lines`] is their
    /// text form, produced when asked for. Excluded from the JSON
    /// rendering: a debugging/forensics artifact, not a result.
    pub trace_tail: Vec<SimEvent>,
    /// One bounded-memory summary row per stream enabled in
    /// [`ScenarioSpec::streams`] (latency probes first, then flows, then
    /// activity). Excluded from the JSON rendering so existing result files
    /// stay byte-identical; consumers that want the rows serialize them
    /// explicitly (the `riot` CLI's `--stream-summary` does).
    pub streams: Vec<StreamSummary>,
    /// Time-weighted means of the sampled telemetry over the disruption
    /// window, keyed by telemetry name (`"freshness_s"`, `"coverage"`, ...),
    /// in each metric's natural scale.
    pub telemetry_means: BTreeMap<String, f64>,
}

riot_sim::impl_to_json_struct!(ScenarioResult {
    name,
    level,
    seed,
    devices,
    edges,
    duration_s,
    report,
    failovers,
    restarts,
    restart_commands,
    ingest_denied,
    messages_sent,
    messages_dropped,
    control_latency,
    events_processed,
    sat_all_series,
    satfrac_series,
    telemetry_means
});

impl ScenarioResult {
    /// The resilience R of the all-requirements indicator.
    pub fn overall_resilience(&self) -> f64 {
        self.report.overall_resilience
    }

    /// Resilience of one named requirement.
    pub fn requirement_resilience(&self, name: &str) -> Option<f64> {
        self.report.requirements.get(name).map(|o| o.resilience)
    }

    /// The online-monitor outcomes whose property failed to hold at end of
    /// run — the campaign-oracle view of a run (see
    /// [`MonitorOutcome::failed`]): definite violations plus unmet pending
    /// obligations, in [`ScenarioSpec::monitors`] order.
    pub fn failed_monitors(&self) -> impl Iterator<Item = &MonitorOutcome> {
        self.monitors.iter().filter(|m| m.failed())
    }

    /// [`ScenarioResult::trace_tail`] as compact JSON lines, one per event,
    /// oldest first — rendered here, on demand: a run that nobody asks for
    /// its tail never pays for the text.
    pub fn trace_tail_lines(&self) -> Vec<String> {
        self.trace_tail
            .iter()
            .map(|e| e.to_json().render())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(scenario.devices()[0].id, spec.device_id(0, 0));
        assert!(
            scenario.devices()[0].personal,
            "device 0 is personal at every=4"
        );
        assert!(!scenario.devices()[1].personal);
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
        assert_eq!(online.verdict, format!("{:?}", replay.verdict()));
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
        assert_eq!(m.verdict, "Violated", "ML1 never repairs the fault");
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

    #[test]
    fn spec_validation_rejects_zero_shape_and_zero_sample_interval() {
        type Edit = fn(&mut ScenarioSpec);
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
            assert_eq!(spec.validate(), Err(want));
            assert!(want.to_string().contains(field), "{want}");
            // `build` reports it through the same path, before it commits
            // anything — a zero interval used to hang `run` instead.
            let built =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| Scenario::build(spec)));
            let Err(panic) = built else {
                panic!("build accepted a spec with zero {field}");
            };
            let text = panic.downcast_ref::<String>().expect("formatted panic");
            assert!(text.contains("invalid scenario spec"), "{text}");
            assert!(text.contains(field), "{text}");
        }
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
        use riot_sim::ToJson;

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
            "four kinds; ingest reports one row per tier"
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
}
