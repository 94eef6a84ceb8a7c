//! The edge node process: the paper's "edge as control agent" (Figure 3).
//!
//! An edge component serves its local devices (control replies, data
//! ingestion), participates in the data plane (policy-enforcing replicated
//! store with periodic anti-entropy), and — at ML4 — runs the full
//! decentralized stack: SWIM membership over the edge set, leader election
//! for the neighbourhood scope, and an edge-placed MAPE loop that detects
//! silent components and restarts them.

use crate::config::{ArchitectureConfig, MapePlacement, ReplicationMode};
use crate::msg::{AppMsg, Msg, PolicyUpdate, ReadingPayload};
use crate::recovery::MapeHost;
use riot_adapt::Placement;
use riot_coord::{Election, ElectionOutput, Gossip, GossipConfig, MemberState, Swim, SwimOutput};
use riot_data::{KeySpace, PolicyEngine, ReplicatedStore};
use riot_model::{DomainId, DomainRegistry};
use riot_sim::{Ctx, EventMask, MetricKey, Metrics, Process, ProcessId, SimTime};
use std::collections::BTreeMap;

const TAG_COORD: u64 = 1;
const TAG_SYNC: u64 = 2;
const TAG_MAPE: u64 = 3;

/// Pre-interned keys for the edge's metric names: minted on the first
/// callback, allocation-free thereafter.
#[derive(Debug, Clone, Copy)]
struct EdgeKeys {
    swim_state_change: MetricKey,
    election_leader_change: MetricKey,
    ingest_denied: MetricKey,
    ingest_latency_ms: MetricKey,
    restart_sent: MetricKey,
    restarted: MetricKey,
    sync_applied: MetricKey,
    policy_updated: MetricKey,
}

impl EdgeKeys {
    fn new(m: &mut Metrics) -> Self {
        EdgeKeys {
            swim_state_change: m.intern("edge.swim.state_change"),
            election_leader_change: m.intern("edge.election.leader_change"),
            ingest_denied: m.intern("edge.ingest.denied"),
            ingest_latency_ms: m.intern("edge.ingest.latency_ms"),
            restart_sent: m.intern("mape.restart_sent"),
            restarted: m.intern("edge.restarted"),
            sync_applied: m.intern("edge.sync.applied"),
            policy_updated: m.intern("edge.policy.updated"),
        }
    }
}

/// Static configuration of one edge node.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// The architecture being realized.
    pub arch: ArchitectureConfig,
    /// This edge's process id (must match its spawn position).
    pub me: ProcessId,
    /// The cloud node.
    pub cloud: ProcessId,
    /// The other edges.
    pub peer_edges: Vec<ProcessId>,
    /// This edge's administrative domain.
    pub domain: DomainId,
    /// Domains of every node, for policy decisions at sync time. Shared:
    /// one map serves every edge and the cloud, so cloning a config does
    /// not clone the (node-count-sized) table.
    pub domain_of: std::rc::Rc<BTreeMap<ProcessId, DomainId>>,
    /// The shared domain registry (jurisdictions and trust).
    pub registry: DomainRegistry,
    /// The edge's scope id (for election/coordination reporting).
    pub scope: u32,
    /// The run's shared data-key space (all stores speak the same ids).
    pub keys: KeySpace,
}

/// The gossip key under which the governance posture is disseminated.
const POLICY_GOSSIP_KEY: u64 = 1;

/// The edge process.
pub struct EdgeProcess {
    cfg: EdgeConfig,
    keys: Option<EdgeKeys>,
    swim: Option<Swim>,
    election: Option<Election>,
    gossip: Option<Gossip<PolicyUpdate>>,
    store: ReplicatedStore,
    mape: MapeHost,
    control_served: u64,
    /// Set once the process has started; a second `on_start` is a restart
    /// after a crash, which loses volatile state.
    started: bool,
}

impl std::fmt::Debug for EdgeProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeProcess")
            .field("me", &self.cfg.me)
            .field("scope", &self.cfg.scope)
            .field("control_served", &self.control_served)
            .finish()
    }
}

impl EdgeProcess {
    /// Creates an edge node for the given configuration.
    pub fn new(cfg: EdgeConfig) -> Self {
        let policy = if cfg.arch.governed_data {
            PolicyEngine::governed()
        } else {
            PolicyEngine::permissive()
        };
        let store =
            ReplicatedStore::with_keys(cfg.me.0 as u32, cfg.domain, policy, cfg.keys.clone());
        let (swim, election, gossip) = if cfg.arch.decentralized_coordination {
            let members: Vec<ProcessId> = cfg.peer_edges.iter().copied().chain([cfg.me]).collect();
            (
                Some(Swim::new(cfg.me, members, cfg.arch.swim, SimTime::ZERO)),
                Some(Election::new(cfg.me, cfg.arch.election, SimTime::ZERO)),
                Some(Gossip::new(GossipConfig::default())),
            )
        } else {
            (None, None, None)
        };
        let mape = MapeHost::new(&cfg.arch, Placement::Edge);
        EdgeProcess {
            cfg,
            keys: None,
            swim,
            election,
            gossip,
            store,
            mape,
            control_served: 0,
            started: false,
        }
    }

    /// The edge's replicated store (inspected by the scenario runner).
    pub fn store(&self) -> &ReplicatedStore {
        &self.store
    }

    /// Installs a [`riot_data::StoreProbe`] on this edge's store (the
    /// scenario runner's consumer-freshness mirror).
    pub(crate) fn set_store_probe(&mut self, probe: std::rc::Rc<dyn riot_data::StoreProbe>) {
        self.store.set_probe(probe);
    }

    /// The locally believed scope leader (ML4 only).
    pub fn leader(&self) -> Option<ProcessId> {
        self.election.as_ref().and_then(|e| e.leader())
    }

    /// Peers this edge currently believes alive (ML4 only).
    pub fn alive_peers(&self) -> Vec<ProcessId> {
        self.swim
            .as_ref()
            .map(|s| s.alive_peers())
            .unwrap_or_default()
    }

    /// Control requests served so far.
    pub fn control_served(&self) -> u64 {
        self.control_served
    }

    /// Publishes a new governance posture into the edge gossip mesh (a
    /// no-op below ML4, where there is no gossip layer). The posture takes
    /// effect locally at once and spreads epidemically to peers.
    pub fn publish_policy(&mut self, posture: PolicyUpdate) {
        if let Some(g) = self.gossip.as_mut() {
            g.publish(POLICY_GOSSIP_KEY, posture);
            self.apply_posture(posture);
        }
    }

    /// The posture this edge currently enforces, per its gossip view
    /// (`None` below ML4 or before any update circulated).
    pub fn gossiped_posture(&self) -> Option<PolicyUpdate> {
        self.gossip
            .as_ref()
            .and_then(|g| g.get(POLICY_GOSSIP_KEY))
            .copied()
    }

    fn apply_posture(&mut self, posture: PolicyUpdate) {
        match posture {
            PolicyUpdate::Permissive => self.store.set_policy(PolicyEngine::permissive()),
            PolicyUpdate::Governed => {
                self.store.set_policy(PolicyEngine::governed());
                // Tightening the posture re-audits resting data.
                self.store.purge_violations(&self.cfg.registry);
            }
        }
    }

    /// Transfers this edge (and its store) to another administrative
    /// domain — the paper's runtime domain-transfer disruption.
    pub fn transfer_domain(&mut self, to: DomainId) {
        self.cfg.domain = to;
        self.store.set_domain(to);
        if self.cfg.arch.governed_data {
            // A governed component re-audits after changing hands: data
            // that was in scope for the old domain may not be for the new.
            self.store.purge_violations(&self.cfg.registry);
        }
    }

    /// MAPE statistics, when this edge hosts a loop.
    pub fn mape_stats(&self) -> Option<riot_adapt::MapeStats> {
        self.mape.stats()
    }

    /// The interned metric keys, minting them on first use.
    fn hot_keys(&mut self, ctx: &mut Ctx<'_, Msg>) -> EdgeKeys {
        *self
            .keys
            .get_or_insert_with(|| EdgeKeys::new(ctx.metrics()))
    }

    fn dispatch_swim(&mut self, ctx: &mut Ctx<'_, Msg>, outputs: Vec<SwimOutput>) {
        for o in outputs {
            match o {
                SwimOutput::Send { to, msg } => ctx.send(to, Msg::Swim(msg)),
                SwimOutput::StateChange { node, to, .. } => {
                    let key = self.hot_keys(ctx).swim_state_change;
                    ctx.metrics().incr_key(key);
                    self.mape
                        .observe_node(node, to == MemberState::Alive, ctx.now());
                }
            }
        }
    }

    fn dispatch_election(&mut self, ctx: &mut Ctx<'_, Msg>, outputs: Vec<ElectionOutput>) {
        for o in outputs {
            match o {
                ElectionOutput::Send { to, msg } => ctx.send(to, Msg::Election(msg)),
                ElectionOutput::LeaderChanged { leader, .. } => {
                    let key = self.hot_keys(ctx).election_leader_change;
                    ctx.metrics().incr_key(key);
                    if ctx.wants(EventMask::NOTE) {
                        ctx.annotate(format!("scope {} leader: {:?}", self.cfg.scope, leader));
                    }
                }
            }
        }
    }

    fn election_peers(&self) -> Vec<ProcessId> {
        match &self.swim {
            Some(s) => s.alive_peers(),
            None => self.cfg.peer_edges.clone(),
        }
    }

    /// This round's sync targets with the domain each lives in: the cloud
    /// first, then — in a mesh — the peers SWIM believes alive, in id
    /// order (without SWIM: every configured peer, as configured).
    fn sync_targets<'a>(
        cfg: &'a EdgeConfig,
        swim: &'a Option<Swim>,
    ) -> impl Iterator<Item = (ProcessId, DomainId)> + 'a {
        let (to_cloud, to_peers) = match cfg.arch.replication {
            ReplicationMode::None | ReplicationMode::CloudOnly => (false, false),
            ReplicationMode::EdgeToCloud => (true, false),
            ReplicationMode::EdgeMesh => (true, true),
        };
        let configured: &[ProcessId] = match swim {
            None => &cfg.peer_edges,
            Some(_) => &[],
        };
        let alive = swim
            .iter()
            .flat_map(|s| s.view().iter())
            .filter(|(_, info)| info.state == MemberState::Alive)
            .map(|(peer, _)| peer);
        let peers = alive
            .chain(configured.iter().copied())
            .filter(move |_| to_peers);
        to_cloud
            .then_some(cfg.cloud)
            .into_iter()
            .chain(peers)
            .map(|target| {
                let domain = cfg.domain_of.get(&target).copied();
                (target, domain.unwrap_or(cfg.domain))
            })
    }

    fn ingest_reading(&mut self, ctx: &mut Ctx<'_, Msg>, reading: ReadingPayload) {
        let ReadingPayload {
            key,
            value,
            meta,
            component,
            state,
            device,
        } = reading;
        let now = ctx.now();
        // Policy-checked ingestion: a governed edge manages its local
        // privacy scope even for direct device pushes (§VI-B).
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
            ctx.measure(
                lat_key,
                now.saturating_since(meta.produced_at).as_millis_f64(),
            );
        }
        self.mape.heard(component, state, device, now);
        // At ML3 the cloud hosts MAPE but devices talk to the edge: relay
        // telemetry upstream so the cloud's knowledge stays fresh.
        if self.cfg.arch.mape == MapePlacement::Cloud {
            ctx.send(self.cfg.cloud, Msg::App(AppMsg::RelayedReading(reading)));
        }
    }

    fn run_mape(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let restart_sent = self.hot_keys(ctx).restart_sent;
        self.mape.run(ctx, restart_sent);
    }
}

impl Process<Msg> for EdgeProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.started {
            // Restart after a crash: the replicated store lived in volatile
            // memory, telemetry is stale, pending restart cooldowns are
            // void. Peers (or the devices themselves) repopulate us.
            self.store.clear();
            self.mape.clear();
            let key = self.hot_keys(ctx).restarted;
            ctx.metrics().incr_key(key);
        }
        self.hot_keys(ctx);
        self.started = true;
        if self.cfg.arch.decentralized_coordination {
            ctx.schedule(self.cfg.arch.coord_tick, TAG_COORD);
        }
        if !matches!(
            self.cfg.arch.replication,
            ReplicationMode::None | ReplicationMode::CloudOnly
        ) {
            // Stagger sync rounds across edges.
            let jitter = ctx
                .rng()
                .range_u64(0, self.cfg.arch.sync_period.as_micros().max(1));
            ctx.schedule(riot_sim::SimDuration::from_micros(jitter), TAG_SYNC);
        }
        if self.mape.hosted() {
            let jitter = ctx
                .rng()
                .range_u64(0, self.cfg.arch.mape_period.as_micros().max(1));
            ctx.schedule(riot_sim::SimDuration::from_micros(jitter), TAG_MAPE);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcessId, msg: Msg) {
        match msg {
            Msg::Swim(m) => {
                if let Some(mut swim) = self.swim.take() {
                    let outputs = swim.on_message(ctx.now(), from, m);
                    self.swim = Some(swim);
                    self.dispatch_swim(ctx, outputs);
                }
            }
            Msg::Election(m) => {
                if let Some(mut election) = self.election.take() {
                    let peers = self.election_peers();
                    let outputs = election.on_message(ctx.now(), from, m, &peers);
                    self.election = Some(election);
                    self.dispatch_election(ctx, outputs);
                }
            }
            Msg::Sync(m) => {
                let changed = self.store.on_sync(m, &self.cfg.registry, ctx.now());
                let key = self.hot_keys(ctx).sync_applied;
                ctx.metrics().incr_by_key(key, changed as u64);
            }
            Msg::Gossip(m) => {
                if let Some(gossip) = self.gossip.as_mut() {
                    let changed = gossip.on_message(m);
                    if changed.contains(&POLICY_GOSSIP_KEY) {
                        // riot-lint: allow(P1, reason = "changed contains the key, so the merged table holds it")
                        let posture = *gossip.get(POLICY_GOSSIP_KEY).expect("just merged");
                        self.apply_posture(posture);
                        let key = self.hot_keys(ctx).policy_updated;
                        ctx.metrics().incr_key(key);
                    }
                }
            }
            Msg::App(AppMsg::Reading(reading)) => self.ingest_reading(ctx, reading),
            Msg::App(AppMsg::ControlRequest { req_id, issued_at }) => {
                self.control_served += 1;
                ctx.send(from, Msg::App(AppMsg::ControlReply { req_id, issued_at }));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        match tag {
            TAG_COORD => {
                if let Some(mut swim) = self.swim.take() {
                    let outputs = swim.tick(ctx.now(), ctx.rng());
                    self.swim = Some(swim);
                    self.dispatch_swim(ctx, outputs);
                }
                if let Some(mut election) = self.election.take() {
                    let peers = self.election_peers();
                    let outputs = election.tick(ctx.now(), &peers);
                    self.election = Some(election);
                    self.dispatch_election(ctx, outputs);
                }
                if let Some(mut gossip) = self.gossip.take() {
                    let peers = self.election_peers();
                    let sends = gossip.tick(&peers, ctx.rng());
                    self.gossip = Some(gossip);
                    for (to, msg) in sends {
                        ctx.send(to, Msg::Gossip(msg));
                    }
                }
                ctx.schedule(self.cfg.arch.coord_tick, TAG_COORD);
            }
            TAG_SYNC => {
                let EdgeProcess {
                    cfg, swim, store, ..
                } = self;
                store.sync_round(
                    Self::sync_targets(cfg, swim),
                    &cfg.registry,
                    SimTime::ZERO,
                    |target, msg| ctx.send(target, Msg::Sync(msg)),
                );
                ctx.schedule(self.cfg.arch.sync_period, TAG_SYNC);
            }
            TAG_MAPE => {
                self.run_mape(ctx);
                ctx.schedule(self.cfg.arch.mape_period, TAG_MAPE);
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "edge"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_model::{ComponentId, ComponentState, Domain, Jurisdiction, MaturityLevel};
    use riot_sim::{Sim, SimBuilder, SimDuration};

    fn registry() -> DomainRegistry {
        let mut reg = DomainRegistry::new();
        reg.register(Domain {
            id: DomainId(0),
            name: "city".into(),
            jurisdiction: Jurisdiction::EuGdpr,
        });
        reg
    }

    fn registry_with_vendor() -> DomainRegistry {
        let mut reg = registry();
        reg.register(Domain {
            id: DomainId(1),
            name: "vendor".into(),
            jurisdiction: Jurisdiction::UsCcpa,
        });
        reg
    }

    fn edge_cfg(
        level: MaturityLevel,
        me: ProcessId,
        peers: Vec<ProcessId>,
        cloud: ProcessId,
    ) -> EdgeConfig {
        let mut domain_of = BTreeMap::new();
        domain_of.insert(cloud, DomainId(0));
        domain_of.insert(me, DomainId(0));
        for p in &peers {
            domain_of.insert(*p, DomainId(0));
        }
        EdgeConfig {
            arch: ArchitectureConfig::for_level(level),
            me,
            cloud,
            peer_edges: peers,
            domain: DomainId(0),
            domain_of: std::rc::Rc::new(domain_of),
            registry: registry(),
            scope: 0,
            keys: KeySpace::new(),
        }
    }

    /// Interns `name` in the key space of the edge at `me` — test readings
    /// must speak the same dense ids as the store they land in.
    fn edge_key(sim: &Sim<Msg>, me: ProcessId, name: &str) -> riot_data::DataKey {
        sim.process::<EdgeProcess>(me)
            .unwrap()
            .store()
            .keys()
            .intern(name)
    }

    /// Sink process standing in for the cloud in edge-only tests.
    #[derive(Default)]
    struct Sink {
        syncs: u32,
        relays: u32,
    }

    impl Process<Msg> for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ProcessId, msg: Msg) {
            match msg {
                Msg::Sync(_) => self.syncs += 1,
                Msg::App(AppMsg::RelayedReading(_)) => self.relays += 1,
                _ => {}
            }
        }
    }

    fn reading(device: ProcessId, key: riot_data::DataKey) -> Msg {
        Msg::App(AppMsg::Reading(ReadingPayload {
            key,
            value: 1.0,
            meta: riot_data::DataMeta::operational(DomainId(0), SimTime::ZERO),
            component: ComponentId(device.0 as u32),
            state: ComponentState::Running,
            device,
        }))
    }

    #[test]
    fn ml4_edges_elect_a_leader_and_stay_alive() {
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        let cloud = sim.add_process(Sink::default());
        let e0 = ProcessId(1);
        let e1 = ProcessId(2);
        let e2 = ProcessId(3);
        for (me, peers) in [(e0, vec![e1, e2]), (e1, vec![e0, e2]), (e2, vec![e0, e1])] {
            sim.add_process(EdgeProcess::new(edge_cfg(
                MaturityLevel::Ml4,
                me,
                peers,
                cloud,
            )));
        }
        sim.run_until(SimTime::from_secs(15));
        for e in [e0, e1, e2] {
            let edge = sim.process::<EdgeProcess>(e).unwrap();
            assert_eq!(edge.leader(), Some(e2), "highest edge id leads");
            assert_eq!(edge.alive_peers().len(), 2);
        }
    }

    #[test]
    fn ml4_edge_failure_triggers_releader() {
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        let cloud = sim.add_process(Sink::default());
        let e0 = ProcessId(1);
        let e1 = ProcessId(2);
        let e2 = ProcessId(3);
        for (me, peers) in [(e0, vec![e1, e2]), (e1, vec![e0, e2]), (e2, vec![e0, e1])] {
            sim.add_process(EdgeProcess::new(edge_cfg(
                MaturityLevel::Ml4,
                me,
                peers,
                cloud,
            )));
        }
        sim.run_until(SimTime::from_secs(15));
        sim.set_down(e2);
        sim.run_until(SimTime::from_secs(40));
        let edge = sim.process::<EdgeProcess>(e0).unwrap();
        assert_eq!(edge.leader(), Some(e1), "failover to next-highest edge");
        assert!(
            !edge.alive_peers().contains(&e2),
            "dead edge detected by SWIM"
        );
    }

    #[test]
    fn recovered_edge_rejoins_membership_and_a_single_leader_stands() {
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        let cloud = sim.add_process(Sink::default());
        let e0 = ProcessId(1);
        let e1 = ProcessId(2);
        let e2 = ProcessId(3);
        for (me, peers) in [(e0, vec![e1, e2]), (e1, vec![e0, e2]), (e2, vec![e0, e1])] {
            sim.add_process(EdgeProcess::new(edge_cfg(
                MaturityLevel::Ml4,
                me,
                peers,
                cloud,
            )));
        }
        sim.run_until(SimTime::from_secs(15));
        assert_eq!(sim.process::<EdgeProcess>(e0).unwrap().leader(), Some(e2));
        // The leader edge dies long enough to be declared dead, then returns.
        sim.set_down(e2);
        sim.run_until(SimTime::from_secs(45));
        assert!(!sim
            .process::<EdgeProcess>(e0)
            .unwrap()
            .alive_peers()
            .contains(&e2));
        sim.set_up(e2);
        sim.run_until(SimTime::from_secs(90));
        // SWIM resurrected the member (incarnation-bumped Alive beats Dead)…
        assert!(
            sim.process::<EdgeProcess>(e0)
                .unwrap()
                .alive_peers()
                .contains(&e2),
            "recovered edge must rejoin the membership"
        );
        // …and leadership is consistent: everyone follows one live leader.
        let leaders: Vec<Option<ProcessId>> = [e0, e1, e2]
            .iter()
            .map(|e| sim.process::<EdgeProcess>(*e).unwrap().leader())
            .collect();
        let unique: std::collections::BTreeSet<_> = leaders.iter().flatten().collect();
        assert_eq!(unique.len(), 1, "exactly one believed leader: {leaders:?}");
    }

    #[test]
    fn ml3_edge_relays_telemetry_and_syncs_to_cloud() {
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        let cloud = sim.add_process(Sink::default());
        let me = ProcessId(1);
        sim.add_process(EdgeProcess::new(edge_cfg(
            MaturityLevel::Ml3,
            me,
            vec![],
            cloud,
        )));
        sim.send_external(
            me,
            reading(ProcessId(9), edge_key(&sim, me, "dev9/reading")),
        );
        sim.run_until(SimTime::from_secs(5));
        let sink = sim.process::<Sink>(cloud).unwrap();
        assert!(sink.relays >= 1, "telemetry relayed to cloud MAPE");
        assert!(sink.syncs >= 3, "store synced to cloud periodically");
        let edge = sim.process::<EdgeProcess>(me).unwrap();
        assert_eq!(edge.store().get("dev9/reading").map(|r| r.value), Some(1.0));
    }

    #[test]
    fn ml4_edge_mape_restarts_silent_component() {
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        let _cloud = sim.add_process(Sink::default());
        let me = ProcessId(1);
        sim.add_process(EdgeProcess::new(edge_cfg(
            MaturityLevel::Ml4,
            me,
            vec![],
            ProcessId(0),
        )));
        // A device "reports once and goes silent".
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
        let dev = sim.add_process(Dev::default());
        sim.send_external(
            me,
            Msg::App(AppMsg::Reading(ReadingPayload {
                key: edge_key(&sim, me, "d/reading"),
                value: 1.0,
                meta: riot_data::DataMeta::operational(DomainId(0), SimTime::ZERO),
                component: ComponentId(1),
                state: ComponentState::Running,
                device: dev,
            })),
        );
        // Silence threshold is 3s; run well past it.
        sim.run_until(SimTime::from_secs(10));
        assert!(
            sim.process::<Dev>(dev).unwrap().restarts >= 1,
            "edge MAPE detected silence and sent a restart"
        );
        assert!(sim.metrics().counter("mape.restart_sent") >= 1);
        let edge = sim.process::<EdgeProcess>(me).unwrap();
        assert!(edge.mape_stats().unwrap().cycles > 5);
    }

    #[test]
    fn restart_loses_volatile_store_and_anti_entropy_restores_it() {
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        let cloud = sim.add_process(Sink::default());
        let e0 = ProcessId(1);
        let e1 = ProcessId(2);
        sim.add_process(EdgeProcess::new(edge_cfg(
            MaturityLevel::Ml4,
            e0,
            vec![e1],
            cloud,
        )));
        sim.add_process(EdgeProcess::new(edge_cfg(
            MaturityLevel::Ml4,
            e1,
            vec![e0],
            cloud,
        )));
        let dev = sim.add_process(Sink::default());
        // Edge 0 ingests a reading; the mesh replicates it to edge 1.
        sim.send_external(e0, reading(dev, edge_key(&sim, e0, "dev9/reading")));
        sim.run_until(SimTime::from_secs(5));
        assert!(sim
            .process::<EdgeProcess>(e1)
            .unwrap()
            .store()
            .get("dev9/reading")
            .is_some());
        // Edge 1 crashes and restarts: volatile store gone…
        sim.set_down(e1);
        sim.set_up(e1);
        assert!(
            sim.process::<EdgeProcess>(e1).unwrap().store().is_empty(),
            "restart clears volatile memory"
        );
        // …and within a few sync periods the peer repopulates it.
        sim.run_until(SimTime::from_secs(12));
        assert_eq!(
            sim.process::<EdgeProcess>(e1)
                .unwrap()
                .store()
                .get("dev9/reading")
                .map(|r| r.value),
            Some(1.0),
            "anti-entropy restored the lost state"
        );
        assert!(sim.metrics().counter("edge.restarted") >= 1);
    }

    #[test]
    fn policy_posture_spreads_by_gossip_and_purges_on_tighten() {
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        let cloud = sim.add_process(Sink::default());
        let e0 = ProcessId(1);
        let e1 = ProcessId(2);
        let e2 = ProcessId(3);
        // ML4 connectivity, but start every store permissive (a brownfield
        // fleet about to receive governance over the air).
        let mut arch = ArchitectureConfig::for_level(MaturityLevel::Ml4);
        arch.governed_data = false;
        for (me, peers) in [(e0, vec![e1, e2]), (e1, vec![e0, e2]), (e2, vec![e0, e1])] {
            let mut cfg = edge_cfg(MaturityLevel::Ml4, me, peers, cloud);
            cfg.arch = arch.clone();
            // Edge 1 lives in the vendor domain so personal data resting
            // there is a violation.
            if me == e1 {
                cfg.domain = riot_model::DomainId(1);
            }
            sim.add_process(EdgeProcess::new(cfg));
        }
        let dev = sim.add_process(Sink::default());
        // A personal reading lands on the vendor edge: a violation at rest.
        sim.send_external(
            e1,
            Msg::App(AppMsg::Reading(ReadingPayload {
                key: edge_key(&sim, e1, "wearable/hr"),
                value: 70.0,
                meta: riot_data::DataMeta::personal(DomainId(0), SimTime::ZERO),
                component: ComponentId(9),
                state: ComponentState::Running,
                device: dev,
            })),
        );
        sim.run_until(SimTime::from_secs(2));
        let reg = registry_with_vendor();
        assert_eq!(
            sim.process::<EdgeProcess>(e1)
                .unwrap()
                .store()
                .privacy_violations(&reg),
            1,
            "permissive vendor edge keeps the personal record"
        );
        // Edge 0 publishes the governed posture; gossip spreads it.
        sim.process_mut::<EdgeProcess>(e0)
            .unwrap()
            .publish_policy(PolicyUpdate::Governed);
        sim.run_until(SimTime::from_secs(8));
        for e in [e0, e1, e2] {
            assert_eq!(
                sim.process::<EdgeProcess>(e).unwrap().gossiped_posture(),
                Some(PolicyUpdate::Governed),
                "{e} converged on the new posture"
            );
        }
        assert_eq!(
            sim.process::<EdgeProcess>(e1)
                .unwrap()
                .store()
                .privacy_violations(&reg),
            0,
            "tightening purged the resting violation"
        );
        assert!(sim.metrics().counter("edge.policy.updated") >= 2);
    }

    #[test]
    fn control_requests_are_served() {
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        let cloud = sim.add_process(Sink::default());
        let me = ProcessId(1);
        sim.add_process(EdgeProcess::new(edge_cfg(
            MaturityLevel::Ml3,
            me,
            vec![],
            cloud,
        )));
        sim.send_external(
            me,
            Msg::App(AppMsg::ControlRequest {
                req_id: 4,
                issued_at: SimTime::ZERO,
            }),
        );
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.process::<EdgeProcess>(me).unwrap().control_served(), 1);
    }

    #[test]
    fn ml2_edge_is_passive() {
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        let cloud = sim.add_process(Sink::default());
        let me = ProcessId(1);
        sim.add_process(EdgeProcess::new(edge_cfg(
            MaturityLevel::Ml2,
            me,
            vec![],
            cloud,
        )));
        sim.run_until(SimTime::from_secs(10));
        // No coordination, no sync, no MAPE: the ML2 edge is a dumb pipe.
        assert_eq!(sim.process::<Sink>(cloud).unwrap().syncs, 0);
        assert!(sim
            .process::<EdgeProcess>(me)
            .unwrap()
            .mape_stats()
            .is_none());
        assert!(sim.process::<EdgeProcess>(me).unwrap().leader().is_none());
    }
}
