//! The device node process: sensing, actuation and the control loop.
//!
//! A device hosts one software component (its sensing/actuation logic).
//! While the component runs, the device periodically pushes readings to its
//! data host and exercises a control round-trip against its controller —
//! the workload whose latency and availability the scenario requirements
//! bound. A component fault silences the device (readings stop) until a
//! `Restart` command arrives from whichever MAPE loop notices.
//!
//! Under [`ControlPlacement::EdgeWithFailover`] (ML4) the device also
//! implements the paper's decentralization at the *device boundary*:
//! consecutive control timeouts make it re-home to a backup edge.

use crate::config::{
    ArchitectureConfig, ControlPlacement, CONTROL_DEADLINE, CONTROL_PERIOD,
    FAILOVER_AFTER_TIMEOUTS, ML3_FALLBACK_TIMEOUTS, REHOME_AFTER, RESTART_DELAY, SENSE_PERIOD,
};
use crate::keys::MetricKeys;
use crate::msg::{AppMsg, Msg, ReadingPayload};
use crate::state::NodeSlab;
use riot_data::{DataKey, DataMeta, PurposeSet, Sensitivity};
use riot_model::{ComponentId, ComponentState, DomainId};
use riot_sim::{Ctx, EventMask, ProcessId, SimTime};
use std::rc::Rc;

const TAG_SENSE: u64 = 1;
const TAG_CONTROL: u64 = 2;
const TAG_RESTART_DONE: u64 = 3;
const TAG_TIMEOUT_BASE: u64 = 1 << 32;

/// What every device of one edge group has in common, built once and
/// shared: a [`DeviceProcess`] carries only what differs between devices
/// and what its slot and process id do not already say.
#[derive(Debug)]
pub(crate) struct DeviceGroup {
    /// The architecture being realized.
    pub arch: ArchitectureConfig,
    /// Backup edges, in failover order (used at ML4).
    pub backup_edges: Vec<ProcessId>,
    /// The cloud node.
    pub cloud: ProcessId,
    /// The devices' administrative domain (their readings' origin).
    pub domain: DomainId,
    /// The data key of slot 0: the run's device keys are one minted run,
    /// so slot `s` writes `first_key.offset(s)`.
    pub first_key: DataKey,
    keys: MetricKeys,
}

impl DeviceGroup {
    /// Builds one group's shared configuration over the run's metric keys.
    pub(crate) fn new(
        arch: ArchitectureConfig,
        backup_edges: Vec<ProcessId>,
        cloud: ProcessId,
        domain: DomainId,
        first_key: DataKey,
        keys: MetricKeys,
    ) -> Rc<Self> {
        Rc::new(DeviceGroup {
            arch,
            backup_edges,
            cloud,
            domain,
            first_key,
            keys,
        })
    }
}

/// Static configuration of one device: its group's shared part, and what
/// differs from device to device.
#[derive(Debug, Clone)]
pub(crate) struct DeviceConfig {
    /// Architecture, failover list, cloud, domain and first data key,
    /// shared by the edge group.
    pub group: Rc<DeviceGroup>,
    /// The device's primary edge.
    pub primary_edge: ProcessId,
    /// Sensitivity of the produced data.
    pub sensitivity: Sensitivity,
}

/// Control-loop statistics accumulated since the last sample; the scenario
/// runner drains this window every sampling period.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct DeviceWindow {
    /// Successful control round-trips.
    pub control_ok: u32,
    /// Timed-out control requests.
    pub control_timeout: u32,
    /// Sum of observed round-trip latencies (ms).
    pub latency_sum_ms: f64,
    /// Number of latency observations.
    pub latency_count: u32,
}

impl DeviceWindow {
    /// Success fraction, or `None` when no request completed or timed out.
    pub(crate) fn availability(&self) -> Option<f64> {
        let total = self.control_ok + self.control_timeout;
        if total == 0 {
            None
        } else {
            Some(self.control_ok as f64 / total as f64)
        }
    }

    /// Mean latency over the window, or `None` without observations.
    pub(crate) fn mean_latency_ms(&self) -> Option<f64> {
        if self.latency_count == 0 {
            None
        } else {
            Some(self.latency_sum_ms / self.latency_count as f64)
        }
    }
}

/// The device process. Its handlers take the scenario's node-state slab,
/// which the world lends to each callback: the sampling window, the
/// coverage inputs and the last-sense instant live in the device's slab
/// row and nowhere else.
///
/// Nothing here repeats what the device's slot, its process id or its
/// group already say: its data key is `group.first_key` offset by `slot`,
/// its component id is its process id, and its domain is the group's. What
/// is left fits one 64-byte line (pinned by `a_device_is_at_most_64_bytes`).
///
/// `repr(C)` pins the declared order: `slot` opens the device and `group`
/// closes it, so the two loads of [`DeviceProcess::prefetch`] touch every
/// line a device can straddle (DESIGN.md §9, "Per-event memory"; pinned by
/// `prefetch_reads_every_line_…`).
#[derive(Debug)]
#[repr(C)]
pub(crate) struct DeviceProcess {
    /// This device's row in the slab.
    pub(crate) slot: u32,
    consecutive_timeouts: u32,
    /// When the device was parked on a backup controller; [`SimTime::MAX`]
    /// while it is on its primary.
    on_backup_since: SimTime,
    /// 0 = primary edge; `i > 0` = `backup_edges[i - 1]`.
    controller_idx: u32,
    /// The next control request's id.
    next_req: u32,
    /// The readings sensed so far, mod 10: all a reading's value uses.
    reading_seq: u8,
    state: ComponentState,
    sensitivity: Sensitivity,
    /// The primary edge's process id.
    primary_edge: u32,
    /// Outstanding control requests, newest last. Lookup is by linear scan:
    /// at most a handful of requests are ever in flight (the control period
    /// exceeds the deadline), and a short `Vec` beats a tree here.
    pending: Vec<(u32, SimTime)>,
    group: Rc<DeviceGroup>,
}

/// `on_backup_since` of a device on its primary controller.
const NOT_ON_BACKUP: SimTime = SimTime::MAX;

impl DeviceProcess {
    /// Creates a device with its component running, writing its sampling
    /// inputs to row `slot` of the slab its callbacks are lent.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.primary_edge` does not fit the kernel's `u32`
    /// process ids.
    pub(crate) fn new(cfg: DeviceConfig, slot: u32) -> Self {
        DeviceProcess {
            slot,
            consecutive_timeouts: 0,
            on_backup_since: NOT_ON_BACKUP,
            controller_idx: 0,
            next_req: 0,
            reading_seq: 0,
            state: ComponentState::Running,
            sensitivity: cfg.sensitivity,
            primary_edge: process_index(cfg.primary_edge),
            pending: Vec::new(),
            group: cfg.group,
        }
    }

    /// The component's current lifecycle state.
    #[cfg(test)]
    pub(crate) fn component_state(&self) -> ComponentState {
        self.state
    }

    /// Injects a component fault (used by disruption schedules). The
    /// injector clears the `SERVING` input of the device's slab row
    /// (`scenario/disrupt.rs`); the device sets it again when it restarts.
    pub(crate) fn fail_component(&mut self) {
        self.state = ComponentState::Failed;
    }

    /// Re-homes the device to a new primary edge (the mobility disruption:
    /// the device roamed and re-associated).
    pub(crate) fn rehome(&mut self, new_primary: ProcessId) {
        self.primary_edge = process_index(new_primary);
        self.controller_idx = 0;
        self.consecutive_timeouts = 0;
        self.on_backup_since = NOT_ON_BACKUP;
    }

    fn primary_edge(&self) -> ProcessId {
        ProcessId(self.primary_edge as usize)
    }

    /// The data key this device writes.
    pub(crate) fn data_key(&self) -> DataKey {
        self.group.first_key.offset(self.slot)
    }

    /// The sensitivity of the data this device produces.
    #[cfg(test)]
    pub(crate) fn sensitivity(&self) -> Sensitivity {
        self.sensitivity
    }

    /// The edge currently serving this device.
    pub(crate) fn current_edge(&self) -> ProcessId {
        if self.controller_idx == 0 {
            self.primary_edge()
        } else {
            // riot-lint: allow(P1, reason = "controller_idx wraps mod backup_edges.len() + 1 on failover")
            self.group.backup_edges[self.controller_idx as usize - 1]
        }
    }

    fn controller(&self) -> Option<ProcessId> {
        match self.group.arch.control() {
            ControlPlacement::LocalOnly => None,
            ControlPlacement::Cloud => Some(self.group.cloud),
            ControlPlacement::Edge => Some(if self.controller_idx == 0 {
                self.primary_edge()
            } else {
                // ML3's slow remote redirection parks the device on the cloud.
                self.group.cloud
            }),
            ControlPlacement::EdgeWithFailover => Some(self.current_edge()),
        }
    }

    fn data_host(&self) -> Option<ProcessId> {
        self.controller()
    }

    fn meta(&self, now: SimTime) -> DataMeta {
        DataMeta {
            sensitivity: self.sensitivity,
            purposes: PurposeSet::only(riot_data::Purpose::Operations),
            origin: self.group.domain,
            produced_at: now,
        }
    }

    /// Removes `req_id` from the in-flight set, returning its issue time.
    fn take_pending(&mut self, req_id: u64) -> Option<SimTime> {
        let pos = self
            .pending
            .iter()
            .position(|&(id, _)| u64::from(id) == req_id)?;
        Some(self.pending.swap_remove(pos).1)
    }

    fn sense(&mut self, slab: &mut NodeSlab, ctx: &mut Ctx<'_, Msg>) {
        if !self.state.provides_service() {
            return;
        }
        self.reading_seq = (self.reading_seq + 1) % 10;
        let now = ctx.now();
        slab.note_sense(self.slot, now);
        let value = 20.0 + f64::from(self.reading_seq) + ctx.rng().unit();
        if let Some(host) = self.data_host() {
            let meta = self.meta(now);
            let device = ctx.id();
            ctx.send(
                host,
                Msg::App(AppMsg::Reading(ReadingPayload {
                    key: self.data_key(),
                    value,
                    meta,
                    component: component_of(device),
                    state: self.state,
                    device,
                })),
            );
        }
    }

    fn run_control(&mut self, slab: &mut NodeSlab, ctx: &mut Ctx<'_, Msg>) {
        // A device parked on a backup edge re-probes its primary after a
        // while: backup residency is a refuge, not a new home.
        if self.on_backup_since != NOT_ON_BACKUP
            && ctx.now().saturating_since(self.on_backup_since) >= REHOME_AFTER
        {
            self.controller_idx = 0;
            self.on_backup_since = NOT_ON_BACKUP;
            self.consecutive_timeouts = 0;
        }
        match self.controller() {
            None => {
                // ML1: the bundled local controller decides. It works iff
                // the component is alive — and there is nobody to fix it.
                if self.state.provides_service() {
                    slab.note_control_ok(self.slot, 1.0);
                } else {
                    slab.note_control_timeout(self.slot);
                }
            }
            Some(controller) => {
                let req_id = self.next_req;
                assert!(
                    req_id < u32::MAX,
                    "control request ids overflowed u32 ({})",
                    ctx.id()
                );
                self.next_req += 1;
                let issued_at = ctx.now();
                self.pending.push((req_id, issued_at));
                let req_id = u64::from(req_id);
                ctx.send(
                    controller,
                    Msg::App(AppMsg::ControlRequest { req_id, issued_at }),
                );
                ctx.schedule(CONTROL_DEADLINE, TAG_TIMEOUT_BASE + req_id);
            }
        }
    }

    fn on_control_timeout(&mut self, slab: &mut NodeSlab, ctx: &mut Ctx<'_, Msg>, req_id: u64) {
        if self.take_pending(req_id).is_none() {
            return; // reply beat the deadline
        }
        slab.note_control_timeout(self.slot);
        ctx.metrics()
            .incr_key(self.group.keys.device_control_timeout);
        self.consecutive_timeouts += 1;
        match self.group.arch.control() {
            ControlPlacement::EdgeWithFailover
                if self.consecutive_timeouts >= FAILOVER_AFTER_TIMEOUTS
                    && !self.group.backup_edges.is_empty() =>
            {
                // The group's edges are process ids, so their count fits a u32.
                let controllers = self.group.backup_edges.len() as u32 + 1;
                self.controller_idx = (self.controller_idx + 1) % controllers;
                self.on_backup_since = if self.controller_idx == 0 {
                    NOT_ON_BACKUP
                } else {
                    ctx.now()
                };
                self.consecutive_timeouts = 0;
                ctx.metrics().incr_key(self.group.keys.device_failover);
                if ctx.wants(EventMask::NOTE) {
                    ctx.annotate(format!("failover to {}", self.current_edge()));
                }
            }
            ControlPlacement::Edge if self.consecutive_timeouts >= ML3_FALLBACK_TIMEOUTS => {
                self.controller_idx = 1 - self.controller_idx.min(1);
                self.on_backup_since = if self.controller_idx == 0 {
                    NOT_ON_BACKUP
                } else {
                    ctx.now()
                };
                self.consecutive_timeouts = 0;
                ctx.metrics().incr_key(self.group.keys.device_ml3_fallback);
            }
            _ => {}
        }
    }
}

/// The device's callbacks: [`riot_sim::Process`]'s, with the slab lent
/// beside the [`Ctx`].
impl DeviceProcess {
    /// Staggers the first sense and control tick.
    pub(crate) fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Stagger periodic activity so devices do not phase-lock.
        let sense_jitter = ctx.rng().range_u64(0, SENSE_PERIOD.as_micros().max(1));
        let control_jitter = ctx.rng().range_u64(0, CONTROL_PERIOD.as_micros().max(1));
        ctx.schedule(riot_sim::SimDuration::from_micros(sense_jitter), TAG_SENSE);
        ctx.schedule(
            riot_sim::SimDuration::from_micros(control_jitter),
            TAG_CONTROL,
        );
    }

    /// Handles a control reply or a restart command.
    pub(crate) fn on_message(
        &mut self,
        slab: &mut NodeSlab,
        ctx: &mut Ctx<'_, Msg>,
        _from: ProcessId,
        msg: Msg,
    ) {
        match msg {
            Msg::App(AppMsg::ControlReply { req_id, issued_at })
                if self.take_pending(req_id).is_some() =>
            {
                let latency_ms = (ctx.now() - issued_at).as_millis_f64();
                slab.note_control_ok(self.slot, latency_ms);
                self.consecutive_timeouts = 0;
                let key = self.group.keys.device_control_latency_ms;
                ctx.metrics().observe_key(key, latency_ms);
                // Same value onto the observability bus for streaming
                // consumers; one branch when nobody listens.
                ctx.measure(key, latency_ms);
            }
            Msg::App(AppMsg::Restart { component })
                if component == component_of(ctx.id()) && self.state == ComponentState::Failed =>
            {
                ctx.schedule(RESTART_DELAY, TAG_RESTART_DONE);
            }
            _ => {}
        }
    }

    /// Fires a sense, control, restart or control-deadline timer.
    pub(crate) fn on_timer(&mut self, slab: &mut NodeSlab, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        match tag {
            TAG_SENSE => {
                self.sense(slab, ctx);
                ctx.schedule(SENSE_PERIOD, TAG_SENSE);
            }
            TAG_CONTROL => {
                self.run_control(slab, ctx);
                ctx.schedule(CONTROL_PERIOD, TAG_CONTROL);
            }
            TAG_RESTART_DONE if self.state == ComponentState::Failed => {
                self.state = ComponentState::Running;
                slab.set_serving(self.slot, true);
                ctx.metrics()
                    .incr_key(self.group.keys.device_component_restarted);
            }
            t if t >= TAG_TIMEOUT_BASE => {
                self.on_control_timeout(slab, ctx, t - TAG_TIMEOUT_BASE);
            }
            _ => {}
        }
    }

    /// One load in each line the device can straddle — `slot` opens it,
    /// `group` closes it (pinned by `prefetch_reads_every_line_…`) — and the
    /// slab row `slot` names: everything a sense or control tick misses on
    /// at 10⁵ devices.
    pub(crate) fn prefetch(&self, slab: &NodeSlab) {
        slab.prefetch(self.slot);
        std::hint::black_box(Rc::as_ptr(&self.group));
    }
}

/// `id` as the `u32` the device keeps.
///
/// # Panics
///
/// Panics past `u32::MAX`: a spec with that many nodes fails validation
/// (`SpecError::TooManyNodes`).
fn process_index(id: ProcessId) -> u32 {
    assert!(id.0 <= u32::MAX as usize, "process id {id} exceeds u32");
    id.0 as u32
}

/// The component a device hosts: the one numbered like its process.
fn component_of(device: ProcessId) -> ComponentId {
    ComponentId(device.0 as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_model::MaturityLevel;
    use riot_sim::{Metrics, Process, Sim, SimBuilder};

    fn device_cfg(level: MaturityLevel, metrics: &mut Metrics) -> DeviceConfig {
        device_cfg_in(level, metrics, DomainId(0))
    }

    fn device_cfg_in(
        level: MaturityLevel,
        metrics: &mut Metrics,
        domain: DomainId,
    ) -> DeviceConfig {
        DeviceConfig {
            group: DeviceGroup::new(
                ArchitectureConfig::for_level(level),
                vec![ProcessId(1)],
                ProcessId(2),
                domain,
                riot_data::KeySpace::new().mint_run(1),
                MetricKeys::mint(metrics),
            ),
            primary_edge: ProcessId(0),
            sensitivity: Sensitivity::Internal,
        }
    }

    /// A one-row slab, for a device outside a scenario.
    fn one_row() -> NodeSlab {
        NodeSlab::new(riot_sim::SimDuration::from_secs(3), 1)
    }

    /// A device outside a scenario, as a process of the boxed world: it owns
    /// the one-row slab the scenario's world would lend its callbacks.
    struct Solo {
        dev: DeviceProcess,
        slab: NodeSlab,
    }

    impl Process<Msg> for Solo {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            self.dev.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcessId, msg: Msg) {
            self.dev.on_message(&mut self.slab, ctx, from, msg);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
            self.dev.on_timer(&mut self.slab, ctx, tag);
        }
    }

    fn solo(cfg: DeviceConfig) -> Solo {
        Solo {
            dev: DeviceProcess::new(cfg, 0),
            slab: one_row(),
        }
    }

    /// The device of the [`Solo`] at `id`.
    fn device(sim: &Sim<Msg>, id: ProcessId) -> &DeviceProcess {
        &sim.process::<Solo>(id).unwrap().dev
    }

    /// Drains the control window from `dev`'s slab row.
    fn drain(sim: &mut Sim<Msg>, dev: ProcessId) -> DeviceWindow {
        let now = sim.now();
        let solo = sim.process_mut::<Solo>(dev).unwrap();
        solo.slab.sample_fold(now).window
    }

    /// A controller stub that answers every request instantly.
    struct EchoController {
        requests: u32,
        readings: u32,
    }

    impl Process<Msg> for EchoController {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcessId, msg: Msg) {
            match msg {
                Msg::App(AppMsg::ControlRequest { req_id, issued_at }) => {
                    self.requests += 1;
                    ctx.send(from, Msg::App(AppMsg::ControlReply { req_id, issued_at }));
                }
                Msg::App(AppMsg::Reading(_)) => self.readings += 1,
                _ => {}
            }
        }
    }

    fn world(level: MaturityLevel) -> (Sim<Msg>, ProcessId, ProcessId, ProcessId) {
        let mut sim: Sim<Msg> = SimBuilder::new(7).build();
        let primary = sim.add_process(EchoController {
            requests: 0,
            readings: 0,
        });
        let _backup = sim.add_process(EchoController {
            requests: 0,
            readings: 0,
        });
        let cloud = sim.add_process(EchoController {
            requests: 0,
            readings: 0,
        });
        let cfg = device_cfg(level, sim.metrics_mut());
        let dev = sim.add_process(solo(cfg));
        (sim, primary, cloud, dev)
    }

    /// A controller that notes each request, with when it arrived, and
    /// never answers: the test delivers the replies.
    #[derive(Default)]
    struct Mute {
        requests: Vec<(u64, SimTime, SimTime)>,
    }

    impl Process<Msg> for Mute {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ProcessId, msg: Msg) {
            if let Msg::App(AppMsg::ControlRequest { req_id, issued_at }) = msg {
                self.requests.push((req_id, issued_at, ctx.now()));
            }
        }
    }

    /// A crash drops the device's timers but not its outstanding requests:
    /// a reply that arrives after the revive matches, is counted once with
    /// its full latency, and neither a duplicate nor an unknown id — one
    /// that agrees with it in the low 32 bits included — matches anything.
    #[test]
    fn a_request_outstanding_across_a_crash_matches_its_late_reply() {
        let mut sim: Sim<Msg> = SimBuilder::new(7).build();
        let primary = sim.add_process(Mute::default());
        let _backup = sim.add_process(Mute::default());
        let _cloud = sim.add_process(Mute::default());
        let cfg = device_cfg(MaturityLevel::Ml3, sim.metrics_mut());
        let dev = sim.add_process(solo(cfg));
        let step = riot_sim::SimDuration::from_millis(1);
        while sim.process::<Mute>(primary).unwrap().requests.is_empty() {
            let next = sim.now() + step;
            sim.run_until(next);
        }
        let (req_id, issued_at, arrived_at) = sim.process::<Mute>(primary).unwrap().requests[0];
        // Down before the deadline, back up after it: the deadline's timer
        // died with the crash, and the request is still outstanding.
        sim.set_down(dev);
        let revive_at = issued_at + CONTROL_DEADLINE * 2;
        sim.run_until(revive_at);
        sim.set_up(dev);
        assert_eq!(device(&sim, dev).pending, vec![(req_id as u32, issued_at)]);
        let before = drain(&mut sim, dev);
        assert_eq!((before.control_ok, before.control_timeout), (0, 0));

        let reply = |req_id| Msg::App(AppMsg::ControlReply { req_id, issued_at });
        sim.send_external(dev, reply(req_id));
        let hop = arrived_at - issued_at;
        sim.run_until(revive_at + hop);
        let w = drain(&mut sim, dev);
        assert_eq!(
            (w.control_ok, w.control_timeout, w.latency_count),
            (1, 0, 1)
        );
        assert_eq!(
            w.latency_sum_ms,
            (revive_at + hop - issued_at).as_millis_f64()
        );
        let observed = sim.metrics().histogram("device.control.latency_ms");
        assert_eq!(observed.map(|h| h.count()), Some(1), "observed once");

        sim.send_external(dev, reply(req_id));
        sim.send_external(dev, reply(req_id + (1 << 32)));
        sim.send_external(dev, reply(req_id + 1_000));
        sim.run_until(revive_at + hop * 2 + step);
        assert_eq!(drain(&mut sim, dev), DeviceWindow::default());
    }

    #[test]
    fn ml3_device_talks_to_its_edge() {
        let (mut sim, primary, cloud, dev) = world(MaturityLevel::Ml3);
        sim.run_until(SimTime::from_secs(10));
        let edge = sim.process::<EchoController>(primary).unwrap();
        assert!(
            edge.requests >= 15,
            "control loop exercised: {}",
            edge.requests
        );
        assert!(edge.readings >= 8, "readings pushed: {}", edge.readings);
        assert_eq!(sim.process::<EchoController>(cloud).unwrap().requests, 0);
        let w = drain(&mut sim, dev);
        assert!(w.control_ok >= 15);
        assert_eq!(w.control_timeout, 0);
        assert!(w.availability().unwrap() == 1.0);
        assert!(w.mean_latency_ms().unwrap() < 1.0, "ideal medium: ~0ms");
    }

    #[test]
    fn ml2_device_talks_to_cloud() {
        let (mut sim, primary, cloud, _dev) = world(MaturityLevel::Ml2);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.process::<EchoController>(primary).unwrap().requests, 0);
        assert!(sim.process::<EchoController>(cloud).unwrap().requests > 0);
    }

    #[test]
    fn ml1_device_is_self_contained() {
        let (mut sim, primary, cloud, dev) = world(MaturityLevel::Ml1);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.process::<EchoController>(primary).unwrap().requests, 0);
        assert_eq!(sim.process::<EchoController>(cloud).unwrap().requests, 0);
        assert!(
            drain(&mut sim, dev).control_ok > 0,
            "local control succeeds"
        );
        assert_eq!(
            sim.metrics().counter("sim.msg.sent"),
            0,
            "no traffic at ML1"
        );
    }

    #[test]
    fn failed_component_times_out_locally_and_restarts_on_command() {
        let (mut sim, _, _, dev) = world(MaturityLevel::Ml1);
        sim.run_until(SimTime::from_secs(2));
        sim.process_mut::<Solo>(dev).unwrap().dev.fail_component();
        sim.run_until(SimTime::from_secs(6));
        assert_eq!(device(&sim, dev).component_state(), ComponentState::Failed);
        let w = drain(&mut sim, dev);
        assert!(w.control_timeout > 0, "local control fails while down");
        sim.send_external(
            dev,
            Msg::App(AppMsg::Restart {
                component: ComponentId(dev.0 as u32),
            }),
        );
        sim.run_until(SimTime::from_secs(8));
        assert_eq!(device(&sim, dev).component_state(), ComponentState::Running);
        assert_eq!(sim.metrics().counter("device.component.restarted"), 1);
    }

    #[test]
    fn ml4_device_fails_over_when_edge_dies() {
        let (mut sim, primary, _, dev) = world(MaturityLevel::Ml4);
        sim.run_until(SimTime::from_secs(3));
        sim.set_down(primary);
        sim.run_until(SimTime::from_secs(10));
        assert!(
            sim.metrics().counter("device.failover") >= 1,
            "device re-homed"
        );
        let d = device(&sim, dev);
        assert_eq!(d.current_edge(), ProcessId(1));
        // Control is succeeding again on the backup edge.
        assert!(sim.metrics().counter("device.control.timeout") > 0);
    }

    #[test]
    fn ml4_device_returns_to_its_primary_after_rehome_after() {
        let (mut sim, primary, _, dev) = world(MaturityLevel::Ml4);
        sim.run_until(SimTime::from_secs(3));
        sim.set_down(primary);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(
            device(&sim, dev).current_edge(),
            ProcessId(1),
            "parked on the backup"
        );
        // The failover came after two timeouts, no earlier than 3.25 s.
        sim.set_up(primary);
        let served_before = sim.process::<EchoController>(primary).unwrap().requests;
        sim.run_until(SimTime::from_secs(3) + REHOME_AFTER);
        assert_eq!(
            device(&sim, dev).current_edge(),
            ProcessId(1),
            "a backup is left only once REHOME_AFTER has passed"
        );
        assert_eq!(
            sim.process::<EchoController>(primary).unwrap().requests,
            served_before
        );
        sim.run_until(SimTime::from_secs(6) + REHOME_AFTER);
        assert_eq!(device(&sim, dev).current_edge(), primary);
        assert!(
            sim.process::<EchoController>(primary).unwrap().requests > served_before,
            "the primary serves control requests again"
        );
    }

    #[test]
    fn ml3_device_falls_back_to_cloud_slowly() {
        let (mut sim, primary, cloud, _dev) = world(MaturityLevel::Ml3);
        sim.run_until(SimTime::from_secs(3));
        sim.set_down(primary);
        // ML4 would have failed over within ~1s (2 timeouts); ML3 needs 12.
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(
            sim.metrics().counter("device.ml3_fallback"),
            0,
            "still waiting"
        );
        sim.run_until(SimTime::from_secs(20));
        assert!(
            sim.metrics().counter("device.ml3_fallback") >= 1,
            "remote redirection eventually happened"
        );
        // Requests now reach the cloud, not a backup edge.
        assert!(sim.process::<EchoController>(cloud).unwrap().requests > 0);
    }

    #[test]
    fn reading_metadata_carries_origin_and_sensitivity() {
        struct Inspect {
            seen: Option<DataMeta>,
        }
        impl Process<Msg> for Inspect {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ProcessId, msg: Msg) {
                if let Msg::App(AppMsg::Reading(ReadingPayload { meta, .. })) = msg {
                    self.seen = Some(meta);
                }
            }
        }
        let mut sim: Sim<Msg> = SimBuilder::new(7).build();
        let host = sim.add_process(Inspect { seen: None });
        let _b = sim.add_process(Inspect { seen: None });
        let _c = sim.add_process(Inspect { seen: None });
        let mut cfg = device_cfg_in(MaturityLevel::Ml3, sim.metrics_mut(), DomainId(9));
        cfg.primary_edge = host;
        cfg.sensitivity = Sensitivity::Personal;
        sim.add_process(solo(cfg));
        sim.run_until(SimTime::from_secs(3));
        let meta = sim.process::<Inspect>(host).unwrap().seen.unwrap();
        assert_eq!(meta.sensitivity, Sensitivity::Personal);
        assert_eq!(meta.origin, DomainId(9));
    }

    #[test]
    fn layout_keeps_a_tick_inside_the_first_two_lines() {
        use std::mem::{offset_of, size_of};
        // What a sense or control tick reads or writes: every field. Each
        // ends inside the first 64 bytes, and those straddle at most two
        // lines wherever the node table places the device.
        for hot in [
            offset_of!(DeviceProcess, slot) + size_of::<u32>(),
            offset_of!(DeviceProcess, consecutive_timeouts) + size_of::<u32>(),
            offset_of!(DeviceProcess, on_backup_since) + size_of::<SimTime>(),
            offset_of!(DeviceProcess, controller_idx) + size_of::<u32>(),
            offset_of!(DeviceProcess, next_req) + size_of::<u32>(),
            offset_of!(DeviceProcess, reading_seq) + size_of::<u8>(),
            offset_of!(DeviceProcess, state) + size_of::<ComponentState>(),
            offset_of!(DeviceProcess, sensitivity) + size_of::<Sensitivity>(),
            offset_of!(DeviceProcess, primary_edge) + size_of::<u32>(),
            offset_of!(DeviceProcess, pending) + size_of::<Vec<(u32, SimTime)>>(),
            offset_of!(DeviceProcess, group) + size_of::<Rc<DeviceGroup>>(),
        ] {
            assert!(hot <= 64, "a hot field ends at byte {hot}");
        }
    }

    #[test]
    fn a_message_still_fits_a_56_byte_slab_slot() {
        // What a payload-slab slot holds. `AppMsg`'s reading variants carry
        // one `ReadingPayload` (48 bytes) where they spelt its six fields;
        // `AppMsg` grew a tag word for it and `Msg` found its own tag there.
        assert!(std::mem::size_of::<Msg>() <= 56);
    }

    #[test]
    fn prefetch_reads_every_line_of_the_hot_prefix() {
        use std::mem::{align_of, offset_of};
        // The fields `DeviceProcess::prefetch` loads. The node table places
        // a device at any multiple of its alignment; at every such offset
        // into a line, each line the device covers must hold a load. A
        // field shuffle that leaves one without fails here instead of
        // silently un-staging that line.
        let read = [
            offset_of!(DeviceProcess, slot),
            offset_of!(DeviceProcess, group),
        ];
        let size = size_of::<DeviceProcess>();
        for at in (0..64).step_by(align_of::<DeviceProcess>()) {
            for line in at / 64..=(at + size - 1) / 64 {
                assert!(
                    read.iter().any(|field| (at + field) / 64 == line),
                    "placed at byte {at} of a line, no load in line {line}"
                );
            }
        }
    }

    /// The budget that keeps 10⁵ devices in 6.4 MB, one line each: a field
    /// added here shows up in review.
    #[test]
    fn a_device_is_at_most_64_bytes() {
        assert!(size_of::<DeviceProcess>() <= 64);
    }

    #[test]
    fn window_and_last_sense_live_in_the_slab_row_when_one_is_attached() {
        let (mut sim, _, _, dev) = world(MaturityLevel::Ml3);
        // The slab the device's callbacks are lent from here on is another.
        let mut first =
            std::mem::replace(&mut sim.process_mut::<Solo>(dev).unwrap().slab, one_row());
        sim.run_until(SimTime::from_secs(5));
        let left = first.sample_fold(SimTime::from_secs(5));
        assert_eq!(left.window, DeviceWindow::default(), "the row moved");
        assert_eq!(left.covered, 0, "the row moved");
        let slab = &mut sim.process_mut::<Solo>(dev).unwrap().slab;
        let fold = slab.sample_fold(SimTime::from_secs(5));
        assert!(fold.window.control_ok >= 8, "{:?}", fold.window);
        assert_eq!(fold.window.latency_count, fold.window.control_ok);
        assert_eq!(fold.covered, 1, "the row saw the senses");
    }

    #[test]
    fn window_drain_resets() {
        let (mut sim, _, _, dev) = world(MaturityLevel::Ml3);
        sim.run_until(SimTime::from_secs(5));
        let w = drain(&mut sim, dev);
        assert!(w.control_ok > 0);
        let w2 = drain(&mut sim, dev);
        assert_eq!(w2, DeviceWindow::default());
        assert_eq!(w2.availability(), None);
        assert_eq!(w2.mean_latency_ms(), None);
    }
}
