//! The edge node process: the paper's "edge as control agent" (Figure 3).
//!
//! An edge component serves its local devices (control replies, data
//! ingestion), participates in the data plane (policy-enforcing replicated
//! store with periodic anti-entropy), and — at ML4 — runs the full
//! decentralized stack: SWIM membership over the edge set, leader election
//! for the neighbourhood scope, and an edge-placed MAPE loop that detects
//! silent components and restarts them.

use crate::config::{ArchitectureConfig, MapePlacement, ReplicationMode, COORD_TICK, MAPE_PERIOD};
use crate::keys::MetricKeys;
use crate::msg::{AppMsg, Msg, ReadingPayload};
use crate::recovery::MapeHost;
use riot_coord::{Election, ElectionOutput, MemberState, Swim, SwimConfig, SwimOutput};
use riot_data::{KeySpace, PolicyEngine, ReplicatedStore};
use riot_model::{DomainId, DomainRegistry};
use riot_sim::{Ctx, EventMask, Process, ProcessId, SimTime};

const TAG_COORD: u64 = 1;
const TAG_SYNC: u64 = 2;
const TAG_MAPE: u64 = 3;

/// Static configuration of one edge node.
#[derive(Debug, Clone)]
pub(crate) struct EdgeConfig {
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
    /// The domain of every node, indexed by process id, for policy
    /// decisions at sync time. Shared: one table serves every edge and the
    /// cloud, so cloning a config does not clone the (node-count-sized)
    /// table.
    pub domain_of: std::rc::Rc<[DomainId]>,
    /// The shared domain registry (jurisdictions and trust).
    pub registry: DomainRegistry,
    /// The edge's scope id (for election/coordination reporting).
    pub scope: u32,
    /// The run's shared data-key space (all stores speak the same ids).
    pub keys: KeySpace,
    /// The run's metric keys.
    pub metrics: MetricKeys,
}

/// The edge process.
pub(crate) struct EdgeProcess {
    cfg: EdgeConfig,
    swim: Option<Swim>,
    election: Option<Election>,
    store: ReplicatedStore,
    mape: MapeHost,
    /// Set once the process has started; a second `on_start` is a restart
    /// after a crash, which loses volatile state.
    started: bool,
}

impl std::fmt::Debug for EdgeProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeProcess")
            .field("me", &self.cfg.me)
            .field("scope", &self.cfg.scope)
            .finish()
    }
}

impl EdgeProcess {
    /// Creates an edge node for the given configuration.
    pub(crate) fn new(cfg: EdgeConfig) -> Self {
        let policy = if cfg.arch.governed_data {
            PolicyEngine::governed()
        } else {
            PolicyEngine::permissive()
        };
        let store =
            ReplicatedStore::with_keys(cfg.me.0 as u32, cfg.domain, policy, cfg.keys.clone());
        let (swim, election) = if cfg.arch.decentralized_coordination {
            let members: Vec<ProcessId> = cfg.peer_edges.iter().copied().chain([cfg.me]).collect();
            (
                Some(Swim::new(
                    cfg.me,
                    members,
                    SwimConfig::default(),
                    SimTime::ZERO,
                )),
                Some(Election::new(cfg.me, SimTime::ZERO)),
            )
        } else {
            (None, None)
        };
        let mape = MapeHost::new(&cfg.arch, MapePlacement::Edge);
        EdgeProcess {
            cfg,
            swim,
            election,
            store,
            mape,
            started: false,
        }
    }

    /// The edge's replicated store (inspected by the scenario runner).
    pub(crate) fn store(&self) -> &ReplicatedStore {
        &self.store
    }

    /// Transfers this edge (and its store) to another administrative
    /// domain — the paper's runtime domain-transfer disruption.
    pub(crate) fn transfer_domain(&mut self, to: DomainId) {
        self.cfg.domain = to;
        self.store.set_domain(to);
        if self.cfg.arch.governed_data {
            // A governed component re-audits after changing hands: data
            // that was in scope for the old domain may not be for the new.
            self.store.purge_violations(&self.cfg.registry);
        }
    }

    fn dispatch_swim(&mut self, ctx: &mut Ctx<'_, Msg>, outputs: Vec<SwimOutput>) {
        for o in outputs {
            match o {
                SwimOutput::Send { to, msg } => ctx.send(to, Msg::Swim(msg)),
                SwimOutput::StateChange { .. } => {}
            }
        }
    }

    fn dispatch_election(&mut self, ctx: &mut Ctx<'_, Msg>, outputs: Vec<ElectionOutput>) {
        for o in outputs {
            match o {
                ElectionOutput::Send { to, msg } => ctx.send(to, Msg::Election(msg)),
                ElectionOutput::LeaderChanged { leader, .. } => {
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
                let domain = cfg.domain_of.get(target.index()).copied();
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
            ctx.metrics().incr_key(self.cfg.metrics.edge_ingest_denied);
        } else {
            // Virtual age of the reading at accept time, for streaming
            // ingest-latency consumers; one branch when nobody listens.
            ctx.measure(
                self.cfg.metrics.edge_ingest_latency_ms,
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
        self.mape.run(ctx, self.cfg.metrics.mape_restart_sent);
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
            ctx.metrics().incr_key(self.cfg.metrics.edge_restarted);
        }
        self.started = true;
        if self.cfg.arch.decentralized_coordination {
            ctx.schedule(COORD_TICK, TAG_COORD);
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
            let jitter = ctx.rng().range_u64(0, MAPE_PERIOD.as_micros().max(1));
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
                self.store.on_sync(m, &self.cfg.registry, ctx.now());
            }
            Msg::App(AppMsg::Reading(reading)) => self.ingest_reading(ctx, reading),
            Msg::App(AppMsg::ControlRequest { req_id, issued_at }) => {
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
                ctx.schedule(COORD_TICK, TAG_COORD);
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
                ctx.schedule(MAPE_PERIOD, TAG_MAPE);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EdgeProcess {
        /// The locally believed scope leader (ML4 only).
        fn leader(&self) -> Option<ProcessId> {
            self.election.as_ref().and_then(|e| e.leader())
        }

        /// Peers this edge currently believes alive (ML4 only).
        fn alive_peers(&self) -> Vec<ProcessId> {
            self.swim
                .as_ref()
                .map(|s| s.alive_peers())
                .unwrap_or_default()
        }
    }
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

    /// What every edge of one test run shares: the data-key space and the
    /// metric keys minted in the run's recorder.
    struct Shared {
        keys: KeySpace,
        metrics: MetricKeys,
    }

    fn shared(sim: &mut Sim<Msg>) -> Shared {
        Shared {
            keys: KeySpace::new(),
            metrics: MetricKeys::mint(sim.metrics_mut()),
        }
    }

    fn edge_cfg(
        run: &Shared,
        level: MaturityLevel,
        me: ProcessId,
        peers: Vec<ProcessId>,
        cloud: ProcessId,
    ) -> EdgeConfig {
        let nodes = peers.iter().chain([&me, &cloud]).map(|p| p.index() + 1);
        let domain_of = vec![DomainId(0); nodes.max().unwrap_or(0)];
        EdgeConfig {
            arch: ArchitectureConfig::for_level(level),
            me,
            cloud,
            peer_edges: peers,
            domain: DomainId(0),
            domain_of: domain_of.into(),
            registry: registry(),
            scope: 0,
            keys: run.keys.clone(),
            metrics: run.metrics,
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
        let run = shared(&mut sim);
        let cloud = sim.add_process(Sink::default());
        let e0 = ProcessId(1);
        let e1 = ProcessId(2);
        let e2 = ProcessId(3);
        for (me, peers) in [(e0, vec![e1, e2]), (e1, vec![e0, e2]), (e2, vec![e0, e1])] {
            sim.add_process(EdgeProcess::new(edge_cfg(
                &run,
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
        let run = shared(&mut sim);
        let cloud = sim.add_process(Sink::default());
        let e0 = ProcessId(1);
        let e1 = ProcessId(2);
        let e2 = ProcessId(3);
        for (me, peers) in [(e0, vec![e1, e2]), (e1, vec![e0, e2]), (e2, vec![e0, e1])] {
            sim.add_process(EdgeProcess::new(edge_cfg(
                &run,
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
        let run = shared(&mut sim);
        let cloud = sim.add_process(Sink::default());
        let e0 = ProcessId(1);
        let e1 = ProcessId(2);
        let e2 = ProcessId(3);
        for (me, peers) in [(e0, vec![e1, e2]), (e1, vec![e0, e2]), (e2, vec![e0, e1])] {
            sim.add_process(EdgeProcess::new(edge_cfg(
                &run,
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
        let run = shared(&mut sim);
        let cloud = sim.add_process(Sink::default());
        let me = ProcessId(1);
        sim.add_process(EdgeProcess::new(edge_cfg(
            &run,
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
        assert_eq!(
            edge.store()
                .get_key(run.keys.intern("dev9/reading"))
                .map(|r| r.value),
            Some(1.0)
        );
    }

    #[test]
    fn ml4_edge_mape_restarts_silent_component() {
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        let run = shared(&mut sim);
        let _cloud = sim.add_process(Sink::default());
        let me = ProcessId(1);
        sim.add_process(EdgeProcess::new(edge_cfg(
            &run,
            MaturityLevel::Ml4,
            me,
            vec![],
            ProcessId(0),
        )));
        // A device "reports once and goes silent".
        let dev = sim.add_process(RestartLog::default());
        sim.send_external(me, report(&sim, me, dev, 1));
        // Silence threshold is 3s; run well past it.
        sim.run_until(SimTime::from_secs(10));
        assert!(
            !sim.process::<RestartLog>(dev).unwrap().got.is_empty(),
            "edge MAPE detected silence and sent a restart"
        );
        assert!(sim.metrics().counter("mape.restart_sent") >= 1);
    }

    /// A device that logs every restart command it receives.
    #[derive(Default)]
    struct RestartLog {
        got: Vec<(ComponentId, SimTime)>,
    }

    impl Process<Msg> for RestartLog {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ProcessId, msg: Msg) {
            if let Msg::App(AppMsg::Restart { component }) = msg {
                self.got.push((component, ctx.now()));
            }
        }
    }

    fn report(sim: &Sim<Msg>, edge: ProcessId, device: ProcessId, component: u32) -> Msg {
        Msg::App(AppMsg::Reading(ReadingPayload {
            key: edge_key(sim, edge, "d/reading"),
            value: 1.0,
            meta: riot_data::DataMeta::operational(DomainId(0), sim.now()),
            component: ComponentId(component),
            state: ComponentState::Running,
            device,
        }))
    }

    #[test]
    fn ml4_edge_mape_repeats_a_restart_only_after_the_cooldown() {
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        let run = shared(&mut sim);
        let _cloud = sim.add_process(Sink::default());
        let me = ProcessId(1);
        sim.add_process(EdgeProcess::new(edge_cfg(
            &run,
            MaturityLevel::Ml4,
            me,
            vec![],
            ProcessId(0),
        )));
        let dev = sim.add_process(RestartLog::default());
        // The device reports once and never again.
        sim.send_external(me, report(&sim, me, dev, 1));
        sim.run_until(SimTime::from_secs(12));
        let got = &sim.process::<RestartLog>(dev).unwrap().got;
        assert!(got.len() >= 2, "the restart is repeated: {got:?}");
        for pair in got.windows(2) {
            assert!(
                pair[1].1.saturating_since(pair[0].1) >= crate::config::SILENCE_THRESHOLD,
                "restarts closer than the cooldown: {got:?}"
            );
        }
        assert_eq!(sim.metrics().counter("mape.restart_sent"), got.len() as u64);
    }

    /// Pins what an edge restart keeps: the telemetry and the cooldowns
    /// go, the loop's knowledge of component states stays.
    #[test]
    fn mape_knowledge_survives_an_edge_restart() {
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        let run = shared(&mut sim);
        let _cloud = sim.add_process(Sink::default());
        let me = ProcessId(1);
        sim.add_process(EdgeProcess::new(edge_cfg(
            &run,
            MaturityLevel::Ml4,
            me,
            vec![],
            ProcessId(0),
        )));
        let dev = sim.add_process(RestartLog::default());
        // Component 1 reports once and falls silent: held failed.
        sim.send_external(me, report(&sim, me, dev, 1));
        sim.run_until(SimTime::from_millis(4_500));
        // Component 2 reports just before the crash: held running.
        sim.send_external(me, report(&sim, me, dev, 2));
        sim.run_until(SimTime::from_secs(5));
        let crash = sim.now();
        sim.set_down(me);
        sim.set_up(me);
        // Component 3 reports once after the restart and falls silent.
        sim.send_external(me, report(&sim, me, dev, 3));
        sim.run_until(SimTime::from_secs(15));
        let after: Vec<ComponentId> = sim
            .process::<RestartLog>(dev)
            .unwrap()
            .got
            .iter()
            .filter(|(_, at)| *at > crash)
            .map(|(c, _)| *c)
            .collect();
        assert!(
            after.contains(&ComponentId(1)),
            "a component held failed before the crash is restarted again: {after:?}"
        );
        assert!(after.contains(&ComponentId(3)), "{after:?}");
        assert!(
            !after.contains(&ComponentId(2)),
            "a component held running before the crash is not reconsidered: {after:?}"
        );
    }

    #[test]
    fn restart_loses_volatile_store_and_anti_entropy_restores_it() {
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        let run = shared(&mut sim);
        let cloud = sim.add_process(Sink::default());
        let e0 = ProcessId(1);
        let e1 = ProcessId(2);
        sim.add_process(EdgeProcess::new(edge_cfg(
            &run,
            MaturityLevel::Ml4,
            e0,
            vec![e1],
            cloud,
        )));
        sim.add_process(EdgeProcess::new(edge_cfg(
            &run,
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
            .get_key(run.keys.intern("dev9/reading"))
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
                .get_key(run.keys.intern("dev9/reading"))
                .map(|r| r.value),
            Some(1.0),
            "anti-entropy restored the lost state"
        );
        assert!(sim.metrics().counter("edge.restarted") >= 1);
    }

    /// A device stand-in that asks `controller` for one decision when it
    /// starts and keeps the correlation ids of the replies it gets.
    struct Asker {
        controller: ProcessId,
        replies: Vec<u64>,
    }

    impl Process<Msg> for Asker {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            let issued_at = ctx.now();
            ctx.send(
                self.controller,
                Msg::App(AppMsg::ControlRequest {
                    req_id: 4,
                    issued_at,
                }),
            );
        }

        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ProcessId, msg: Msg) {
            if let Msg::App(AppMsg::ControlReply { req_id, .. }) = msg {
                self.replies.push(req_id);
            }
        }
    }

    #[test]
    fn control_requests_are_served() {
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        let run = shared(&mut sim);
        let cloud = sim.add_process(Sink::default());
        let me = ProcessId(1);
        sim.add_process(EdgeProcess::new(edge_cfg(
            &run,
            MaturityLevel::Ml3,
            me,
            vec![],
            cloud,
        )));
        let asker = sim.add_process(Asker {
            controller: me,
            replies: Vec::new(),
        });
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.process::<Asker>(asker).unwrap().replies, [4]);
    }

    #[test]
    fn ml2_edge_is_passive() {
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        let run = shared(&mut sim);
        let cloud = sim.add_process(Sink::default());
        let me = ProcessId(1);
        sim.add_process(EdgeProcess::new(edge_cfg(
            &run,
            MaturityLevel::Ml2,
            me,
            vec![],
            cloud,
        )));
        sim.run_until(SimTime::from_secs(10));
        // No coordination, no sync, no MAPE: the ML2 edge is a dumb pipe.
        assert_eq!(sim.process::<Sink>(cloud).unwrap().syncs, 0);
        assert!(!sim.process::<EdgeProcess>(me).unwrap().mape.hosted());
        assert!(sim.process::<EdgeProcess>(me).unwrap().leader().is_none());
    }
}
