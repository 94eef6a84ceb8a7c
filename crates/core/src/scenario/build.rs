//! [`Scenario::build`]: a spec becomes a network, a domain registry, node
//! processes, the observers on the bus and the scheduled disruptions.

use super::disrupt::Injection;
use super::world::{Node, ScenarioSim};
use super::{DeviceInfo, Scenario, ScenarioSpec, StreamIdx, ACTIVITY_OP, FLOWS_OP};
use crate::cloud::{CloudConfig, CloudProcess};
use crate::config::ReplicationMode;
use crate::device::{DeviceConfig, DeviceGroup, DeviceProcess};
use crate::edge::{EdgeConfig, EdgeProcess};
use crate::keys::MetricKeys;
use crate::resilience::{standard_goal_model, standard_requirements, SampleLog};
use crate::state::NodeSlab;
use riot_data::{KeySpace, Sensitivity};
use riot_model::{Domain, DomainId, DomainRegistry, Jurisdiction, TrustLevel};
use riot_net::{presets, Hierarchy, HierarchySpec, LatencyModel, Link};
use riot_sim::{
    ActivityTracker, FlowAccounting, MeasureProbe, MetricKey, ProcessId, QuantileSketch, RingTrace,
    SimBuilder, SimTime, StreamPipeline,
};
use std::rc::Rc;

/// Stable wire label for a jurisdiction (flow-accounting row names).
fn jurisdiction_label(j: Jurisdiction) -> &'static str {
    match j {
        Jurisdiction::EuGdpr => "eu-gdpr",
        Jurisdiction::UsCcpa => "us-ccpa",
        Jurisdiction::Other => "other",
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
    /// Panics on specs rejected by [`ScenarioSpec::validate`], with its error
    /// in the message.
    pub fn build(spec: ScenarioSpec) -> Scenario {
        let checked = spec.checked_monitors();
        // riot-lint: allow(P1, reason = "spec validation: an invalid spec must fail loudly at build time; validate() is public for callers that want the typed error")
        let monitors = checked.unwrap_or_else(|e| panic!("invalid scenario spec: {e}"));
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

        // -- Domains: one entry per process, by id. Every process is the
        // city's but the vendor's edge. One shared table serves the cloud
        // and every edge (the configs hold `Rc` handles).
        let registry = standard_domains();
        let vendor_idx = spec.vendor_edge_index();
        let n = 1 + spec.edges + spec.device_count();
        let mut domain_of = vec![DomainId(0); n];
        if let Some(vendor) = vendor_idx
            .and_then(|i| hierarchy.edges.get(i))
            .and_then(|e| domain_of.get_mut(e.index()))
        {
            *vendor = DomainId(1);
        }
        let domain_of: Rc<[DomainId]> = domain_of.into();

        // -- Simulation and processes (spawn order must match node ids),
        // with the node-state slab the world lends each device callback
        // (the sampler's backbone; see crate::state).
        let slab = NodeSlab::new(crate::config::SENSE_PERIOD * 3, spec.device_count());
        let mut sim: ScenarioSim = SimBuilder::new(spec.seed)
            .max_events(2_000_000_000)
            // Cloud + edges + devices, known before a single spawn.
            .expect_processes(n)
            .build_world(net, slab);

        // -- Every metric key a process records, minted once.
        let metric_keys = MetricKeys::mint(sim.metrics_mut());

        // -- Observability bus. Registration order is fixed and documented
        // (crate::observe): forensic ring, stream pipeline, then user
        // factories. Observers only read events, so this cannot change the
        // run itself — only what gets reported.
        let ring_idx = spec
            .trace_tail
            .map(|cap| sim.add_observer(RingTrace::forensics(cap)));
        let streams = if spec.streams.is_empty() {
            None
        } else {
            let mut pipeline = StreamPipeline::with_capacity(ACTIVITY_OP + 1);
            // Operators 0..3, one latency probe per row: the control round
            // trip, then one per ingesting tier (both read the same virtual
            // reading age published at accept time).
            for key in metric_keys.probes() {
                pipeline.push(MeasureProbe::new(
                    key,
                    QuantileSketch::for_latency_ms(),
                    spec.sample_every,
                ));
            }
            // Deliveries are attributed to the destination node's
            // data-domain jurisdiction; domain_of covers every process the
            // hierarchy minted. One `flow.*` key per domain, interned the
            // first time a process of that domain comes up.
            let mut key_of: Vec<Option<MetricKey>> = Vec::with_capacity(n);
            let mut flow_of: Vec<(DomainId, Option<MetricKey>)> = Vec::new();
            let mut flow_names: Vec<(MetricKey, &'static str)> = Vec::new();
            for &dom in domain_of.iter() {
                let key = match flow_of.iter().find(|(d, _)| *d == dom) {
                    Some(&(_, key)) => key,
                    None => {
                        let key = registry.get(dom).map(|domain| {
                            let label = jurisdiction_label(domain.jurisdiction);
                            let key = sim.metrics_mut().intern(&format!("flow.{label}"));
                            if !flow_names.iter().any(|(k, _)| *k == key) {
                                flow_names.push((key, label));
                            }
                            key
                        });
                        flow_of.push((dom, key));
                        key
                    }
                };
                key_of.push(key);
            }
            flow_names.sort_by_key(|(_, label)| *label);
            let flows = pipeline.push(FlowAccounting::new(key_of));
            let activity = pipeline.push(ActivityTracker::new(n));
            debug_assert_eq!((flows, activity), (FLOWS_OP, ACTIVITY_OP));
            Some(StreamIdx {
                pipeline: sim.add_observer(pipeline),
                flow_names,
            })
        };
        for observer in spec.observers.instantiate() {
            sim.add_boxed_observer(observer);
        }

        // -- One run-wide data-key space. Every store (cloud, every edge)
        // shares it, so data-plane sync moves dense ids and devices send
        // `DataKey`s, not strings.
        let keys = KeySpace::new();

        let subscribers = vendor_idx
            // riot-lint: allow(P1, reason = "vendor_edge_index() only ever returns Some(spec.edges - 1)")
            .map(|i| vec![hierarchy.edges[i]])
            .unwrap_or_default();
        let cloud_id = sim.add_node(Node::Cloud(Box::new(CloudProcess::new(CloudConfig {
            arch: arch.clone(),
            me: hierarchy.cloud,
            domain: DomainId(0),
            registry: registry.clone(),
            subscribers,
            domain_of: domain_of.clone(),
            keys: keys.clone(),
            metrics: metric_keys,
        }))));
        debug_assert_eq!(cloud_id, hierarchy.cloud);

        for (i, &e) in hierarchy.edges.iter().enumerate() {
            let peer_edges: Vec<ProcessId> = hierarchy
                .edges
                .iter()
                .copied()
                .filter(|p| *p != e)
                .collect();
            let id = sim.add_node(Node::Edge(Box::new(EdgeProcess::new(EdgeConfig {
                arch: arch.clone(),
                me: e,
                cloud: hierarchy.cloud,
                peer_edges,
                // riot-lint: allow(P1, reason = "domain_of has one entry per process the hierarchy minted")
                domain: domain_of[e.index()],
                domain_of: domain_of.clone(),
                registry: registry.clone(),
                scope: i as u32,
                keys: keys.clone(),
                metrics: metric_keys,
            }))));
            debug_assert_eq!(id, e);
        }

        // -- The devices' data keys: one run, slot `s` holding key
        // `first_key.offset(s)`, which each device and `Scenario::devices`
        // derive instead of storing.
        let first_key = keys.mint_run(spec.device_count());
        assert_eq!(
            first_key.index() + spec.device_count(),
            keys.len(),
            "the device keys are the key space's last run"
        );

        // Architecture, failover list, cloud id, domain, first key and
        // metric keys are identical for every device on the same edge: one
        // shared allocation per edge group.
        let group_of_edge: Vec<Rc<DeviceGroup>> = (0..spec.edges)
            .map(|e| {
                let backups = (1..spec.edges)
                    // riot-lint: allow(P1, reason = "hierarchy.edges has exactly spec.edges entries; the index is reduced mod spec.edges")
                    .map(|k| hierarchy.edges[(e + k) % spec.edges])
                    .collect();
                let (cloud, domain) = (hierarchy.cloud, DomainId(0));
                DeviceGroup::new(arch.clone(), backups, cloud, domain, first_key, metric_keys)
            })
            .collect();

        let mut operational = 0;
        for slot in 0..spec.device_count() {
            let info = DeviceInfo::of(&spec, first_key, slot);
            operational += usize::from(!info.personal);
            let e = info.edge_index;
            // riot-lint: allow(P1, reason = "edge_index < spec.edges, and both tables have one entry per edge")
            let (group, edge) = (group_of_edge[e].clone(), hierarchy.edges[e]);
            let sensitivity = if info.personal {
                Sensitivity::Personal
            } else {
                Sensitivity::Internal
            };
            let cfg = DeviceConfig {
                group,
                primary_edge: edge,
                sensitivity,
            };
            let id = sim.add_node(Node::Device(DeviceProcess::new(cfg, slot as u32)));
            debug_assert_eq!(id, info.id);
        }

        // -- Each home edge's consuming store: the cloud, or under
        // `EdgeMesh` the next edge. Static — a device's consumer follows its
        // *home* edge, which neither mobility nor failover rewrites — and
        // empty when nothing replicates.
        let consumer_of_edge = match arch.replication {
            ReplicationMode::None => Vec::new(),
            ReplicationMode::CloudOnly | ReplicationMode::EdgeToCloud => {
                vec![hierarchy.cloud; spec.edges]
            }
            ReplicationMode::EdgeMesh => {
                let next = hierarchy.edges.iter().skip(1);
                next.chain(hierarchy.edges.first()).copied().collect()
            }
        };

        // -- Disruptions become injections.
        for ev in spec.disruptions.events() {
            sim.inject_at(ev.at, Injection::Disrupt(ev.disruption.clone()));
        }

        let requirements = standard_requirements(spec.thresholds);
        let goals = standard_goal_model();
        Scenario {
            spec,
            sim,
            hierarchy,
            keys,
            metric_keys,
            first_key,
            registry,
            requirements,
            goals,
            monitors,
            ring_idx,
            streams,
            log: SampleLog::default(),
            consumer_of_edge,
            operational,
            sampled_to: SimTime::ZERO,
        }
    }
}
