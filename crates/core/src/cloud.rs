//! The cloud node process: the centralized side of every archetype.
//!
//! The cloud hosts the global replicated store, serves control requests
//! (ML2, where "centralizing control … requires cloud control structures to
//! be always available", §V-A), and — at ML2/ML3 — hosts the MAPE loop.
//! Its knowledge is only as fresh as the cloud link: when a partition or
//! outage cuts it off, telemetry stops arriving, its knowledge base goes
//! stale, and recovery stalls — the failure mode experiments E4 and E6
//! quantify.

use crate::config::ArchitectureConfig;
use crate::msg::{AppMsg, Msg, ReadingPayload};
use crate::recovery::MapeHost;
use riot_adapt::Placement;
use riot_coord::{CloudRegistry, RegistryConfig};
use riot_data::{KeySpace, PolicyEngine, ReplicatedStore};
use riot_model::{DomainId, DomainRegistry};
use riot_sim::{Ctx, MetricKey, Metrics, Process, ProcessId, SimTime};
use std::collections::BTreeMap;

const TAG_MAPE: u64 = 1;
const TAG_SYNC: u64 = 2;

/// Pre-interned keys for the cloud's metric names: minted on the first
/// callback, allocation-free thereafter.
#[derive(Debug, Clone, Copy)]
struct CloudKeys {
    ingest_denied: MetricKey,
    ingest_latency_ms: MetricKey,
    restart_sent: MetricKey,
    sync_applied: MetricKey,
}

impl CloudKeys {
    fn new(m: &mut Metrics) -> Self {
        CloudKeys {
            ingest_denied: m.intern("cloud.ingest.denied"),
            ingest_latency_ms: m.intern("cloud.ingest.latency_ms"),
            restart_sent: m.intern("mape.restart_sent"),
            sync_applied: m.intern("cloud.sync.applied"),
        }
    }
}

/// Static configuration of the cloud node.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// The architecture being realized.
    pub arch: ArchitectureConfig,
    /// The cloud's own process id.
    pub me: ProcessId,
    /// The cloud's administrative domain.
    pub domain: DomainId,
    /// The shared domain registry.
    pub registry: DomainRegistry,
    /// Third-party analytics subscribers the cloud brokers data to (the
    /// ML2 "cloud-based platforms for brokering IoT data" of Table 1).
    pub subscribers: Vec<ProcessId>,
    /// Domains of every node, for policy decisions at sync time. Shared
    /// with the edges: one map serves the whole deployment.
    pub domain_of: std::rc::Rc<BTreeMap<ProcessId, DomainId>>,
    /// The run-wide data-key space shared with the edges and devices.
    pub keys: KeySpace,
}

/// The cloud process.
pub struct CloudProcess {
    cfg: CloudConfig,
    keys: Option<CloudKeys>,
    store: ReplicatedStore,
    registry_service: CloudRegistry,
    mape: MapeHost,
    control_served: u64,
}

impl std::fmt::Debug for CloudProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudProcess")
            .field("me", &self.cfg.me)
            .field("control_served", &self.control_served)
            .finish()
    }
}

impl CloudProcess {
    /// Creates the cloud node.
    pub fn new(cfg: CloudConfig) -> Self {
        let policy = if cfg.arch.governed_data {
            PolicyEngine::governed()
        } else {
            PolicyEngine::permissive()
        };
        let store =
            ReplicatedStore::with_keys(cfg.me.0 as u32, cfg.domain, policy, cfg.keys.clone());
        let mape = MapeHost::new(&cfg.arch, Placement::Cloud);
        CloudProcess {
            cfg,
            keys: None,
            store,
            registry_service: CloudRegistry::new(RegistryConfig::default()),
            mape,
            control_served: 0,
        }
    }

    /// The cloud's replicated store.
    pub fn store(&self) -> &ReplicatedStore {
        &self.store
    }

    /// Installs a [`riot_data::StoreProbe`] on the cloud store (the
    /// scenario runner's consumer-freshness mirror).
    pub(crate) fn set_store_probe(&mut self, probe: std::rc::Rc<dyn riot_data::StoreProbe>) {
        self.store.set_probe(probe);
    }

    /// Control requests served so far.
    pub fn control_served(&self) -> u64 {
        self.control_served
    }

    /// MAPE statistics, when the cloud hosts the loop.
    pub fn mape_stats(&self) -> Option<riot_adapt::MapeStats> {
        self.mape.stats()
    }

    /// The interned metric keys, minting them on first use.
    fn hot_keys(&mut self, ctx: &mut Ctx<'_, Msg>) -> CloudKeys {
        *self
            .keys
            .get_or_insert_with(|| CloudKeys::new(ctx.metrics()))
    }

    fn ingest_telemetry(&mut self, ctx: &mut Ctx<'_, Msg>, reading: ReadingPayload) {
        let ReadingPayload {
            key,
            value,
            meta,
            component,
            state,
            device,
        } = reading;
        let now = ctx.now();
        let produced_at = meta.produced_at;
        let action = self
            .store
            .ingest_key(key, value, meta, &self.cfg.registry, now);
        if action == riot_data::PolicyAction::Deny {
            let key = self.hot_keys(ctx).ingest_denied;
            ctx.metrics().incr_key(key);
        } else {
            // Virtual age of the reading at accept time, for streaming
            // ingest-latency consumers; one branch when nobody listens.
            let lat_key = self.hot_keys(ctx).ingest_latency_ms;
            ctx.measure(lat_key, now.saturating_since(produced_at).as_millis_f64());
        }
        self.mape.heard(component, state, device, now);
    }

    fn run_mape(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let restart_sent = self.hot_keys(ctx).restart_sent;
        self.mape.run(ctx, restart_sent);
    }
}

impl Process<Msg> for CloudProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.hot_keys(ctx);
        if self.mape.hosted() {
            ctx.schedule(self.cfg.arch.mape_period, TAG_MAPE);
        }
        if !self.cfg.subscribers.is_empty()
            && self.cfg.arch.replication != crate::config::ReplicationMode::None
        {
            ctx.schedule(self.cfg.arch.sync_period, TAG_SYNC);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcessId, msg: Msg) {
        match msg {
            Msg::App(AppMsg::Reading(reading) | AppMsg::RelayedReading(reading)) => {
                self.ingest_telemetry(ctx, reading);
            }
            Msg::App(AppMsg::ControlRequest { req_id, issued_at }) => {
                self.control_served += 1;
                ctx.send(from, Msg::App(AppMsg::ControlReply { req_id, issued_at }));
            }
            Msg::Sync(m) => {
                let changed = self.store.on_sync(m, &self.cfg.registry, ctx.now());
                let key = self.hot_keys(ctx).sync_applied;
                ctx.metrics().incr_by_key(key, changed as u64);
            }
            Msg::Registry(m) => {
                if let Some(reply) = self.registry_service.on_message(ctx.now(), from, m) {
                    ctx.send(from, Msg::Registry(reply));
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        match tag {
            TAG_MAPE => {
                self.run_mape(ctx);
                ctx.schedule(self.cfg.arch.mape_period, TAG_MAPE);
            }
            TAG_SYNC => {
                let CloudProcess { cfg, store, .. } = self;
                store.sync_round(
                    cfg.subscribers.iter().map(|target| {
                        let domain = cfg.domain_of.get(target).copied();
                        (*target, domain.unwrap_or(cfg.domain))
                    }),
                    &cfg.registry,
                    SimTime::ZERO,
                    |target, msg| ctx.send(target, Msg::Sync(msg)),
                );
                ctx.schedule(self.cfg.arch.sync_period, TAG_SYNC);
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "cloud"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_coord::RegistryMsg;
    use riot_model::{ComponentId, ComponentState, Domain, Jurisdiction, MaturityLevel};
    use riot_sim::{Sim, SimBuilder};

    fn cloud_cfg(level: MaturityLevel, me: ProcessId) -> CloudConfig {
        let mut registry = DomainRegistry::new();
        registry.register(Domain {
            id: DomainId(0),
            name: "city".into(),
            jurisdiction: Jurisdiction::EuGdpr,
        });
        CloudConfig {
            arch: ArchitectureConfig::for_level(level),
            me,
            domain: DomainId(0),
            registry,
            subscribers: Vec::new(),
            domain_of: std::rc::Rc::new(BTreeMap::new()),
            keys: KeySpace::new(),
        }
    }

    /// Interns `name` through the cloud's own store key space, so raw-id
    /// ingest on the receiving side resolves to the same dense id.
    fn cloud_key(sim: &Sim<Msg>, cloud: ProcessId, name: &str) -> riot_data::DataKey {
        sim.process::<CloudProcess>(cloud)
            .unwrap()
            .store()
            .keys()
            .intern(name)
    }

    fn reading(device: ProcessId, key: riot_data::DataKey, state: ComponentState) -> Msg {
        Msg::App(AppMsg::Reading(ReadingPayload {
            key,
            value: 1.0,
            meta: riot_data::DataMeta::operational(DomainId(0), SimTime::ZERO),
            component: ComponentId(device.0 as u32),
            state,
            device,
        }))
    }

    #[derive(Default)]
    struct Dev {
        restarts: u32,
    }
    impl Process<Msg> for Dev {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ProcessId, msg: Msg) {
            if matches!(msg, Msg::App(AppMsg::Restart { .. })) {
                self.restarts += 1;
            }
        }
    }

    #[test]
    fn cloud_serves_control_and_stores_data() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        let cloud = sim.add_process(CloudProcess::new(cloud_cfg(
            MaturityLevel::Ml2,
            ProcessId(0),
        )));
        let dev = sim.add_process(Dev::default());
        let key = cloud_key(&sim, cloud, "dev1/reading");
        sim.send_external(cloud, reading(dev, key, ComponentState::Running));
        sim.send_external(
            cloud,
            Msg::App(AppMsg::ControlRequest {
                req_id: 1,
                issued_at: SimTime::ZERO,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let c = sim.process::<CloudProcess>(cloud).unwrap();
        assert_eq!(c.control_served(), 1);
        assert_eq!(c.store().len(), 1);
    }

    #[test]
    fn cloud_mape_restarts_silent_components_at_ml2() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        let cloud = sim.add_process(CloudProcess::new(cloud_cfg(
            MaturityLevel::Ml2,
            ProcessId(0),
        )));
        let dev = sim.add_process(Dev::default());
        let key = cloud_key(&sim, cloud, "dev1/reading");
        sim.send_external(cloud, reading(dev, key, ComponentState::Running));
        sim.run_until(SimTime::from_secs(10));
        assert!(
            sim.process::<Dev>(dev).unwrap().restarts >= 1,
            "silence detected, restart sent"
        );
        assert!(
            sim.process::<CloudProcess>(cloud)
                .unwrap()
                .mape_stats()
                .unwrap()
                .cycles
                >= 5
        );
    }

    #[test]
    fn ml4_cloud_hosts_no_mape() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        let cloud = sim.add_process(CloudProcess::new(cloud_cfg(
            MaturityLevel::Ml4,
            ProcessId(0),
        )));
        let dev = sim.add_process(Dev::default());
        let key = cloud_key(&sim, cloud, "dev1/reading");
        sim.send_external(cloud, reading(dev, key, ComponentState::Running));
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.process::<Dev>(dev).unwrap().restarts, 0);
        assert!(sim
            .process::<CloudProcess>(cloud)
            .unwrap()
            .mape_stats()
            .is_none());
    }

    #[test]
    fn registry_round_trip_via_cloud() {
        #[derive(Default)]
        struct Client {
            answer: Option<RegistryMsg>,
        }
        impl Process<Msg> for Client {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.send(
                    ProcessId(0),
                    Msg::Registry(RegistryMsg::Heartbeat { scope: 2 }),
                );
                ctx.send(
                    ProcessId(0),
                    Msg::Registry(RegistryMsg::WhoCoordinates { scope: 2 }),
                );
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ProcessId, msg: Msg) {
                if let Msg::Registry(r) = msg {
                    self.answer = Some(r);
                }
            }
        }
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        sim.add_process(CloudProcess::new(cloud_cfg(
            MaturityLevel::Ml2,
            ProcessId(0),
        )));
        let client = sim.add_process(Client::default());
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            sim.process::<Client>(client).unwrap().answer,
            Some(RegistryMsg::Coordinator {
                scope: 2,
                node: Some(client)
            })
        );
    }
}
