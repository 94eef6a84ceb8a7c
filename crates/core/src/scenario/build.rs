//! [`Scenario::build`]: a spec becomes a network, a domain registry, node
//! processes, the observers on the bus and the scheduled disruptions.

use super::disrupt::apply_disruption;
use super::{DeviceInfo, Scenario, ScenarioSpec, StreamIdx, ACTIVITY_OP, FLOWS_OP};
use crate::cloud::{CloudConfig, CloudProcess};
use crate::config::ReplicationMode;
use crate::device::{DeviceConfig, DeviceGroup, DeviceProcess};
use crate::edge::{EdgeConfig, EdgeProcess};
use crate::msg::Msg;
use crate::observe::PROBE_ROWS;
use crate::resilience::{standard_goal_model, standard_requirements, SampleLog};
use crate::state::{ConsumerMirror, NodeSlab, SlabLiveness};
use riot_data::{KeySpace, Sensitivity};
use riot_model::{Domain, DomainId, DomainRegistry, Jurisdiction, TrustLevel};
use riot_net::{presets, Hierarchy, HierarchySpec, LatencyModel, Link};
use riot_sim::{
    ActivityTracker, FlowAccounting, MeasureProbe, MetricKey, ProcessId, QuantileSketch, RingTrace,
    Sim, SimBuilder, SimTime, StreamPipeline,
};
use std::collections::BTreeMap;
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
        // (crate::observe): slab liveness mirror (runtime-internal),
        // forensic ring, stream pipeline, then user factories. Observers
        // only read events, so this cannot change the run itself — only
        // what gets reported.
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
            for name in PROBE_ROWS {
                let key = sim.metrics_mut().intern(name);
                pipeline.push(MeasureProbe::new(
                    key,
                    QuantileSketch::for_latency_ms(),
                    spec.sample_every,
                ));
            }
            // Deliveries are attributed to the destination node's
            // data-domain jurisdiction; domain_of covers every process the
            // hierarchy minted.
            let n = 1 + spec.edges + spec.device_count();
            let mut key_of: Vec<Option<MetricKey>> = vec![None; n];
            let mut flow_names: Vec<(MetricKey, &'static str)> = Vec::new();
            for (pid, dom) in domain_of.iter() {
                let Some(domain) = registry.get(*dom) else {
                    continue;
                };
                let label = jurisdiction_label(domain.jurisdiction);
                let key = sim.metrics_mut().intern(&format!("flow.{label}"));
                if !flow_names.iter().any(|(k, _)| *k == key) {
                    flow_names.push((key, label));
                }
                if let Some(slot) = key_of.get_mut(pid.index()) {
                    *slot = Some(key);
                }
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
            monitors,
            ring_idx,
            streams,
            log: SampleLog::default(),
            slab,
            sampled_to: SimTime::ZERO,
        }
    }
}
