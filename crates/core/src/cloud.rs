//! The cloud node process: the centralized side of every archetype.
//!
//! The cloud hosts the global replicated store, serves control requests
//! (ML2, where "centralizing control … requires cloud control structures to
//! be always available", §V-A), and — at ML2/ML3 — hosts the MAPE loop.
//! Its knowledge is only as fresh as the cloud link: when a partition or
//! outage cuts it off, telemetry stops arriving, every component in scope
//! falls silent, and recovery stalls — the failure mode experiments E4 and E6
//! quantify.

use crate::config::{ArchitectureConfig, MapePlacement, MAPE_PERIOD};
use crate::keys::MetricKeys;
use crate::msg::{AppMsg, Msg, ReadingPayload};
use crate::recovery::MapeHost;
use riot_data::{KeySpace, PolicyEngine, ReplicatedStore};
use riot_model::{DomainId, DomainRegistry};
use riot_sim::{Ctx, Process, ProcessId, SimTime};

const TAG_MAPE: u64 = 1;
const TAG_SYNC: u64 = 2;

/// Static configuration of the cloud node.
#[derive(Debug, Clone)]
pub(crate) struct CloudConfig {
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
    /// The domain of every node, indexed by process id, for policy
    /// decisions at sync time. Shared with the edges: one table serves the
    /// whole deployment.
    pub domain_of: std::rc::Rc<[DomainId]>,
    /// The run-wide data-key space shared with the edges and devices.
    pub keys: KeySpace,
    /// The run's metric keys.
    pub metrics: MetricKeys,
}

/// The cloud process.
pub(crate) struct CloudProcess {
    cfg: CloudConfig,
    store: ReplicatedStore,
    mape: MapeHost,
}

impl std::fmt::Debug for CloudProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudProcess")
            .field("me", &self.cfg.me)
            .finish()
    }
}

impl CloudProcess {
    /// Creates the cloud node.
    pub(crate) fn new(cfg: CloudConfig) -> Self {
        let policy = if cfg.arch.governed_data {
            PolicyEngine::governed()
        } else {
            PolicyEngine::permissive()
        };
        let store =
            ReplicatedStore::with_keys(cfg.me.0 as u32, cfg.domain, policy, cfg.keys.clone());
        let mape = MapeHost::new(&cfg.arch, MapePlacement::Cloud);
        CloudProcess { cfg, store, mape }
    }

    /// The cloud's replicated store.
    pub(crate) fn store(&self) -> &ReplicatedStore {
        &self.store
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
            ctx.metrics().incr_key(self.cfg.metrics.cloud_ingest_denied);
        } else {
            // Virtual age of the reading at accept time, for streaming
            // ingest-latency consumers; one branch when nobody listens.
            let age_ms = now.saturating_since(produced_at).as_millis_f64();
            ctx.measure(self.cfg.metrics.cloud_ingest_latency_ms, age_ms);
        }
        self.mape.heard(component, state, device, now);
    }

    fn run_mape(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.mape.run(ctx, self.cfg.metrics.mape_restart_sent);
    }
}

impl Process<Msg> for CloudProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.mape.hosted() {
            ctx.schedule(MAPE_PERIOD, TAG_MAPE);
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
                ctx.send(from, Msg::App(AppMsg::ControlReply { req_id, issued_at }));
            }
            Msg::Sync(m) => {
                self.store.on_sync(m, &self.cfg.registry, ctx.now());
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        match tag {
            TAG_MAPE => {
                self.run_mape(ctx);
                ctx.schedule(MAPE_PERIOD, TAG_MAPE);
            }
            TAG_SYNC => {
                let CloudProcess { cfg, store, .. } = self;
                store.sync_round(
                    cfg.subscribers.iter().map(|target| {
                        let domain = cfg.domain_of.get(target.index()).copied();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_model::{ComponentId, ComponentState, Domain, Jurisdiction, MaturityLevel};
    use riot_sim::{Sim, SimBuilder};

    fn cloud_cfg(sim: &mut Sim<Msg>, level: MaturityLevel, me: ProcessId) -> CloudConfig {
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
            domain_of: std::rc::Rc::from([]),
            keys: KeySpace::new(),
            metrics: MetricKeys::mint(sim.metrics_mut()),
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

    /// A device stand-in: asks the cloud for one control decision when it
    /// starts, and counts the replies and restart commands it gets.
    #[derive(Default)]
    struct Dev {
        replies: u32,
        restarts: u32,
    }
    impl Process<Msg> for Dev {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            let issued_at = ctx.now();
            ctx.send(
                ProcessId(0),
                Msg::App(AppMsg::ControlRequest {
                    req_id: 1,
                    issued_at,
                }),
            );
        }

        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ProcessId, msg: Msg) {
            match msg {
                Msg::App(AppMsg::ControlReply { .. }) => self.replies += 1,
                Msg::App(AppMsg::Restart { .. }) => self.restarts += 1,
                _ => {}
            }
        }
    }

    #[test]
    fn cloud_serves_control_and_stores_data() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        let cfg = cloud_cfg(&mut sim, MaturityLevel::Ml2, ProcessId(0));
        let cloud = sim.add_process(CloudProcess::new(cfg));
        let dev = sim.add_process(Dev::default());
        let key = cloud_key(&sim, cloud, "dev1/reading");
        sim.send_external(cloud, reading(dev, key, ComponentState::Running));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.process::<Dev>(dev).unwrap().replies, 1);
        let c = sim.process::<CloudProcess>(cloud).unwrap();
        assert_eq!(c.store().len(), 1);
    }

    #[test]
    fn cloud_mape_restarts_silent_components_at_ml2() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        let cfg = cloud_cfg(&mut sim, MaturityLevel::Ml2, ProcessId(0));
        let cloud = sim.add_process(CloudProcess::new(cfg));
        let dev = sim.add_process(Dev::default());
        let key = cloud_key(&sim, cloud, "dev1/reading");
        sim.send_external(cloud, reading(dev, key, ComponentState::Running));
        sim.run_until(SimTime::from_secs(10));
        assert!(
            sim.process::<Dev>(dev).unwrap().restarts >= 1,
            "silence detected, restart sent"
        );
    }

    #[test]
    fn ml4_cloud_hosts_no_mape() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        let cfg = cloud_cfg(&mut sim, MaturityLevel::Ml4, ProcessId(0));
        let cloud = sim.add_process(CloudProcess::new(cfg));
        let dev = sim.add_process(Dev::default());
        let key = cloud_key(&sim, cloud, "dev1/reading");
        sim.send_external(cloud, reading(dev, key, ComponentState::Running));
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.process::<Dev>(dev).unwrap().restarts, 0);
        assert!(!sim.process::<CloudProcess>(cloud).unwrap().mape.hosted());
    }
}
