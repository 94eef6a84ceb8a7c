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

use crate::config::{ArchitectureConfig, ControlPlacement};
use crate::msg::{AppMsg, Msg, ReadingPayload};
use crate::state::NodeSlab;
use riot_data::{DataKey, DataMeta, PurposeSet, Sensitivity};
use riot_model::{ComponentId, ComponentState, DomainId};
use riot_sim::{Ctx, EventMask, MetricKey, Metrics, Process, ProcessId, SimTime};
use std::rc::Rc;

const TAG_SENSE: u64 = 1;
const TAG_CONTROL: u64 = 2;
const TAG_RESTART_DONE: u64 = 3;
const TAG_TIMEOUT_BASE: u64 = 1 << 32;

/// What every device of one edge group has in common, built once and
/// shared: a [`DeviceProcess`] carries only what differs between devices
/// (the architecture alone is 176 bytes).
#[derive(Debug)]
pub struct DeviceGroup {
    /// The architecture being realized.
    pub arch: ArchitectureConfig,
    /// Backup edges, in failover order (used at ML4).
    pub backup_edges: Vec<ProcessId>,
    /// The cloud node.
    pub cloud: ProcessId,
    keys: DeviceKeys,
}

impl DeviceGroup {
    /// Builds one group's shared configuration, interning the devices'
    /// metric names in the run's `metrics`.
    pub fn new(
        arch: ArchitectureConfig,
        backup_edges: Vec<ProcessId>,
        cloud: ProcessId,
        metrics: &mut Metrics,
    ) -> Rc<Self> {
        Rc::new(DeviceGroup {
            arch,
            backup_edges,
            cloud,
            keys: DeviceKeys::new(metrics),
        })
    }
}

/// Static configuration of one device: its group's shared part, and what
/// differs from device to device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Architecture, failover list and cloud, shared by the edge group.
    pub group: Rc<DeviceGroup>,
    /// The device's primary edge.
    pub primary_edge: ProcessId,
    /// The device's component.
    pub component: ComponentId,
    /// Data key this device writes (interned in the run's
    /// [`riot_data::KeySpace`]).
    pub data_key: DataKey,
    /// Sensitivity of the produced data.
    pub sensitivity: Sensitivity,
    /// The device's administrative domain (data origin).
    pub domain: DomainId,
}

/// Control-loop statistics accumulated since the last sample; the scenario
/// runner drains this window every sampling period.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceWindow {
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
    pub fn availability(&self) -> Option<f64> {
        let total = self.control_ok + self.control_timeout;
        if total == 0 {
            None
        } else {
            Some(self.control_ok as f64 / total as f64)
        }
    }

    /// Mean latency over the window, or `None` without observations.
    pub fn mean_latency_ms(&self) -> Option<f64> {
        if self.latency_count == 0 {
            None
        } else {
            Some(self.latency_sum_ms / self.latency_count as f64)
        }
    }
}

/// Pre-interned keys for the device's metric names, minted once per
/// [`DeviceGroup`] — the control loop's metric writes never allocate.
#[derive(Debug, Clone, Copy)]
struct DeviceKeys {
    rehome: MetricKey,
    control_timeout: MetricKey,
    failover: MetricKey,
    ml3_fallback: MetricKey,
    control_latency_ms: MetricKey,
    component_restarted: MetricKey,
}

impl DeviceKeys {
    fn new(m: &mut Metrics) -> Self {
        DeviceKeys {
            rehome: m.intern("device.rehome"),
            control_timeout: m.intern("device.control.timeout"),
            failover: m.intern("device.failover"),
            ml3_fallback: m.intern("device.ml3_fallback"),
            control_latency_ms: m.intern("device.control.latency_ms"),
            component_restarted: m.intern("device.component.restarted"),
        }
    }
}

/// The device process.
///
/// `repr(C)` pins the declared order: the fields a sense or control tick
/// reads and writes come first and fill the first 64 bytes, `group` — the
/// one other thing such a tick follows — starts the next, and what only
/// message handling, failover or the rescan oracle touches sits behind
/// (DESIGN.md §9, "Per-event memory"; pinned by `layout_keeps_a_tick_…`).
#[derive(Debug)]
#[repr(C)]
pub struct DeviceProcess {
    /// Scenario node-state slab and this device's slot in it. When
    /// attached, the sampling window and the last-sense instant live in
    /// the slab row and nowhere else.
    slab: Option<(NodeSlab, u32)>,
    on_backup_since: Option<SimTime>,
    /// 0 = primary edge; `i > 0` = `backup_edges[i - 1]`.
    controller_idx: usize,
    reading_seq: u64,
    next_req: u64,
    consecutive_timeouts: u32,
    state: ComponentState,
    group: Rc<DeviceGroup>,
    primary_edge: ProcessId,
    data_key: DataKey,
    component: ComponentId,
    domain: DomainId,
    sensitivity: Sensitivity,
    /// Outstanding control requests, newest last. Lookup is by linear scan:
    /// at most a handful of requests are ever in flight (the control period
    /// exceeds the deadline), and a short `Vec` beats a tree here.
    pending: Vec<(u64, SimTime)>,
    failovers: u64,
    /// The sampling window and last-sense instant of a device *without* a
    /// slab (the `#[cfg(test)]` rescan oracle and bare-`Sim` tests); never
    /// written once a slab is attached, so the oracle reads state the slab
    /// path has no hand in.
    window: DeviceWindow,
    last_reading_at: Option<SimTime>,
}

impl DeviceProcess {
    /// Creates a device with its component running.
    pub fn new(cfg: DeviceConfig) -> Self {
        DeviceProcess {
            slab: None,
            on_backup_since: None,
            controller_idx: 0,
            reading_seq: 0,
            next_req: 0,
            consecutive_timeouts: 0,
            state: ComponentState::Running,
            group: cfg.group,
            primary_edge: cfg.primary_edge,
            data_key: cfg.data_key,
            component: cfg.component,
            domain: cfg.domain,
            sensitivity: cfg.sensitivity,
            pending: Vec::new(),
            failovers: 0,
            window: DeviceWindow::default(),
            last_reading_at: None,
        }
    }

    /// Connects this device to the scenario's node-state slab at `slot`.
    pub(crate) fn attach_slab(&mut self, slab: NodeSlab, slot: u32) {
        self.slab = Some((slab, slot));
    }

    /// Back to a bare device, for the `#[cfg(test)]` rescan oracle.
    #[cfg(test)]
    pub(crate) fn detach_slab(&mut self) {
        self.slab = None;
    }

    /// The component's current lifecycle state.
    pub fn component_state(&self) -> ComponentState {
        self.state
    }

    /// Injects a component fault (used by disruption schedules).
    pub fn fail_component(&mut self) {
        self.state = ComponentState::Failed;
        if let Some((slab, slot)) = &self.slab {
            slab.set_serving(*slot, false);
        }
    }

    /// Drains and resets the local sampling window — empty when a slab is
    /// attached, which then holds the window.
    #[cfg(test)]
    pub(crate) fn take_window(&mut self) -> DeviceWindow {
        std::mem::take(&mut self.window)
    }

    /// When the device last produced a reading — `None` when a slab is
    /// attached, which then holds the instant.
    #[cfg(test)]
    pub(crate) fn last_reading_at(&self) -> Option<SimTime> {
        self.last_reading_at
    }

    /// How many times the device failed over to a backup edge.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Re-homes the device to a new primary edge (the mobility disruption:
    /// the device roamed and re-associated).
    pub fn rehome(&mut self, new_primary: ProcessId) {
        self.primary_edge = new_primary;
        self.controller_idx = 0;
        self.consecutive_timeouts = 0;
        self.on_backup_since = None;
    }

    /// The edge currently serving this device.
    pub fn current_edge(&self) -> ProcessId {
        if self.controller_idx == 0 {
            self.primary_edge
        } else {
            // riot-lint: allow(P1, reason = "controller_idx wraps mod backup_edges.len() + 1 on failover")
            self.group.backup_edges[self.controller_idx - 1]
        }
    }

    /// Counts one control round-trip into the sampling window.
    fn note_control_ok(&mut self, latency_ms: f64) {
        match &self.slab {
            Some((slab, slot)) => slab.note_control_ok(*slot, latency_ms),
            None => {
                self.window.control_ok += 1;
                self.window.latency_sum_ms += latency_ms;
                self.window.latency_count += 1;
            }
        }
    }

    /// Counts one timed-out control request into the sampling window.
    fn note_control_timeout(&mut self) {
        match &self.slab {
            Some((slab, slot)) => slab.note_control_timeout(*slot),
            None => self.window.control_timeout += 1,
        }
    }

    fn controller(&self) -> Option<ProcessId> {
        match self.group.arch.control {
            ControlPlacement::LocalOnly => None,
            ControlPlacement::Cloud => Some(self.group.cloud),
            ControlPlacement::Edge => Some(if self.controller_idx == 0 {
                self.primary_edge
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
            origin: self.domain,
            produced_at: now,
        }
    }

    /// Removes `req_id` from the in-flight set, returning its issue time.
    fn take_pending(&mut self, req_id: u64) -> Option<SimTime> {
        let pos = self.pending.iter().position(|(id, _)| *id == req_id)?;
        Some(self.pending.swap_remove(pos).1)
    }

    fn sense(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.state.provides_service() {
            return;
        }
        self.reading_seq += 1;
        let now = ctx.now();
        match &self.slab {
            Some((slab, slot)) => slab.note_sense(*slot, now),
            None => self.last_reading_at = Some(now),
        }
        let value = 20.0 + (self.reading_seq % 10) as f64 + ctx.rng().unit();
        if let Some(host) = self.data_host() {
            let meta = self.meta(now);
            ctx.send(
                host,
                Msg::App(AppMsg::Reading(ReadingPayload {
                    key: self.data_key,
                    value,
                    meta,
                    component: self.component,
                    state: self.state,
                    device: ctx.id(),
                })),
            );
        }
    }

    fn run_control(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // A device parked on a backup edge re-probes its primary after a
        // while: backup residency is a refuge, not a new home.
        if let Some(since) = self.on_backup_since {
            if ctx.now().saturating_since(since) >= self.group.arch.rehome_after {
                self.controller_idx = 0;
                self.on_backup_since = None;
                self.consecutive_timeouts = 0;
                ctx.metrics().incr_key(self.group.keys.rehome);
            }
        }
        match self.controller() {
            None => {
                // ML1: the bundled local controller decides. It works iff
                // the component is alive — and there is nobody to fix it.
                if self.state.provides_service() {
                    self.note_control_ok(1.0);
                } else {
                    self.note_control_timeout();
                }
            }
            Some(controller) => {
                let req_id = self.next_req;
                self.next_req += 1;
                let issued_at = ctx.now();
                self.pending.push((req_id, issued_at));
                ctx.send(
                    controller,
                    Msg::App(AppMsg::ControlRequest { req_id, issued_at }),
                );
                ctx.schedule(self.group.arch.control_deadline, TAG_TIMEOUT_BASE + req_id);
            }
        }
    }

    fn on_control_timeout(&mut self, ctx: &mut Ctx<'_, Msg>, req_id: u64) {
        if self.take_pending(req_id).is_none() {
            return; // reply beat the deadline
        }
        self.note_control_timeout();
        ctx.metrics().incr_key(self.group.keys.control_timeout);
        self.consecutive_timeouts += 1;
        match self.group.arch.control {
            ControlPlacement::EdgeWithFailover
                if self.consecutive_timeouts >= self.group.arch.failover_after_timeouts
                    && !self.group.backup_edges.is_empty() =>
            {
                self.controller_idx =
                    (self.controller_idx + 1) % (self.group.backup_edges.len() + 1);
                self.on_backup_since = if self.controller_idx == 0 {
                    None
                } else {
                    Some(ctx.now())
                };
                self.consecutive_timeouts = 0;
                self.failovers += 1;
                ctx.metrics().incr_key(self.group.keys.failover);
                if ctx.wants(EventMask::NOTE) {
                    ctx.annotate(format!("failover to {}", self.current_edge()));
                }
            }
            ControlPlacement::Edge
                if self.consecutive_timeouts >= self.group.arch.ml3_fallback_timeouts =>
            {
                self.controller_idx = 1 - self.controller_idx.min(1);
                self.on_backup_since = if self.controller_idx == 0 {
                    None
                } else {
                    Some(ctx.now())
                };
                self.consecutive_timeouts = 0;
                self.failovers += 1;
                ctx.metrics().incr_key(self.group.keys.ml3_fallback);
            }
            _ => {}
        }
    }
}

impl Process<Msg> for DeviceProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Stagger periodic activity so devices do not phase-lock.
        let arch = &self.group.arch;
        let sense_jitter = ctx.rng().range_u64(0, arch.sense_period.as_micros().max(1));
        let control_jitter = ctx
            .rng()
            .range_u64(0, arch.control_period.as_micros().max(1));
        ctx.schedule(riot_sim::SimDuration::from_micros(sense_jitter), TAG_SENSE);
        ctx.schedule(
            riot_sim::SimDuration::from_micros(control_jitter),
            TAG_CONTROL,
        );
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ProcessId, msg: Msg) {
        match msg {
            Msg::App(AppMsg::ControlReply { req_id, issued_at })
                if self.take_pending(req_id).is_some() =>
            {
                let latency_ms = (ctx.now() - issued_at).as_millis_f64();
                self.note_control_ok(latency_ms);
                self.consecutive_timeouts = 0;
                let key = self.group.keys.control_latency_ms;
                ctx.metrics().observe_key(key, latency_ms);
                // Same value onto the observability bus for streaming
                // consumers; one branch when nobody listens.
                ctx.measure(key, latency_ms);
            }
            Msg::App(AppMsg::Restart { component })
                if component == self.component && self.state == ComponentState::Failed =>
            {
                ctx.schedule(self.group.arch.restart_delay, TAG_RESTART_DONE);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        match tag {
            TAG_SENSE => {
                self.sense(ctx);
                ctx.schedule(self.group.arch.sense_period, TAG_SENSE);
            }
            TAG_CONTROL => {
                self.run_control(ctx);
                ctx.schedule(self.group.arch.control_period, TAG_CONTROL);
            }
            TAG_RESTART_DONE if self.state == ComponentState::Failed => {
                self.state = ComponentState::Running;
                if let Some((slab, slot)) = &self.slab {
                    slab.set_serving(*slot, true);
                }
                ctx.metrics().incr_key(self.group.keys.component_restarted);
            }
            t if t >= TAG_TIMEOUT_BASE => {
                self.on_control_timeout(ctx, t - TAG_TIMEOUT_BASE);
            }
            _ => {}
        }
    }

    /// One load in each line of the hot prefix — `slab` opens the first,
    /// `group` the second (pinned by `prefetch_reads_every_line_…`) — and the
    /// slab row behind the first: everything a sense or control tick misses
    /// on at 10⁵ devices.
    fn prefetch(&self) {
        if let Some((slab, slot)) = &self.slab {
            slab.prefetch(*slot);
        }
        std::hint::black_box(Rc::as_ptr(&self.group));
    }

    fn name(&self) -> &str {
        "device"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_model::MaturityLevel;
    use riot_sim::{Sim, SimBuilder};

    fn device_cfg(level: MaturityLevel, metrics: &mut Metrics) -> DeviceConfig {
        DeviceConfig {
            group: DeviceGroup::new(
                ArchitectureConfig::for_level(level),
                vec![ProcessId(1)],
                ProcessId(2),
                metrics,
            ),
            primary_edge: ProcessId(0),
            component: ComponentId(0),
            data_key: riot_data::KeySpace::new().intern("dev/reading"),
            sensitivity: Sensitivity::Internal,
            domain: DomainId(0),
        }
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
        let dev = sim.add_process(DeviceProcess::new(cfg));
        (sim, primary, cloud, dev)
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
        let d = sim.process::<DeviceProcess>(dev).unwrap();
        assert!(d.window.control_ok >= 15);
        assert_eq!(d.window.control_timeout, 0);
        assert!(d.window.availability().unwrap() == 1.0);
        assert!(
            d.window.mean_latency_ms().unwrap() < 1.0,
            "ideal medium: ~0ms"
        );
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
        let d = sim.process::<DeviceProcess>(dev).unwrap();
        assert!(d.window.control_ok > 0, "local control succeeds");
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
        sim.process_mut::<DeviceProcess>(dev)
            .unwrap()
            .fail_component();
        sim.run_until(SimTime::from_secs(6));
        {
            let d = sim.process_mut::<DeviceProcess>(dev).unwrap();
            assert_eq!(d.component_state(), ComponentState::Failed);
            let w = d.take_window();
            assert!(w.control_timeout > 0, "local control fails while down");
        }
        sim.send_external(
            dev,
            Msg::App(AppMsg::Restart {
                component: ComponentId(0),
            }),
        );
        sim.run_until(SimTime::from_secs(8));
        assert_eq!(
            sim.process::<DeviceProcess>(dev).unwrap().component_state(),
            ComponentState::Running
        );
        assert_eq!(sim.metrics().counter("device.component.restarted"), 1);
    }

    #[test]
    fn ml4_device_fails_over_when_edge_dies() {
        let (mut sim, primary, _, dev) = world(MaturityLevel::Ml4);
        sim.run_until(SimTime::from_secs(3));
        sim.set_down(primary);
        sim.run_until(SimTime::from_secs(10));
        let d = sim.process::<DeviceProcess>(dev).unwrap();
        assert!(d.failovers() >= 1, "device re-homed");
        assert_eq!(d.current_edge(), ProcessId(1));
        assert!(sim.metrics().counter("device.failover") >= 1);
        // Control is succeeding again on the backup edge.
        assert!(sim.metrics().counter("device.control.timeout") > 0);
    }

    #[test]
    fn ml3_device_falls_back_to_cloud_slowly() {
        let (mut sim, primary, cloud, dev) = world(MaturityLevel::Ml3);
        sim.run_until(SimTime::from_secs(3));
        sim.set_down(primary);
        // ML4 would have failed over within ~1s (2 timeouts); ML3 needs 12.
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(
            sim.process::<DeviceProcess>(dev).unwrap().failovers(),
            0,
            "still waiting"
        );
        sim.run_until(SimTime::from_secs(20));
        let d = sim.process::<DeviceProcess>(dev).unwrap();
        assert!(d.failovers() >= 1, "remote redirection eventually happened");
        assert!(sim.metrics().counter("device.ml3_fallback") >= 1);
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
        let mut cfg = device_cfg(MaturityLevel::Ml3, sim.metrics_mut());
        cfg.primary_edge = host;
        cfg.sensitivity = Sensitivity::Personal;
        cfg.domain = DomainId(9);
        sim.add_process(DeviceProcess::new(cfg));
        sim.run_until(SimTime::from_secs(3));
        let meta = sim.process::<Inspect>(host).unwrap().seen.unwrap();
        assert_eq!(meta.sensitivity, Sensitivity::Personal);
        assert_eq!(meta.origin, DomainId(9));
    }

    #[test]
    fn layout_keeps_a_tick_inside_the_first_two_lines() {
        use std::mem::{offset_of, size_of};
        assert!(size_of::<DeviceProcess>() <= 192);
        // What an ML1 sense or control tick reads or writes: the first 64
        // bytes, and the shared-config pointer right behind them.
        for hot in [
            offset_of!(DeviceProcess, slab) + size_of::<Option<(NodeSlab, u32)>>(),
            offset_of!(DeviceProcess, on_backup_since) + size_of::<Option<SimTime>>(),
            offset_of!(DeviceProcess, controller_idx) + size_of::<usize>(),
            offset_of!(DeviceProcess, reading_seq) + size_of::<u64>(),
            offset_of!(DeviceProcess, next_req) + size_of::<u64>(),
            offset_of!(DeviceProcess, consecutive_timeouts) + size_of::<u32>(),
            offset_of!(DeviceProcess, state) + size_of::<ComponentState>(),
        ] {
            assert!(hot <= 64, "a hot field ends at byte {hot}");
        }
        assert!(offset_of!(DeviceProcess, group) + size_of::<Rc<DeviceGroup>>() <= 128);
        // The no-slab window is the one thing a slab-attached tick never
        // touches; it may sit anywhere behind.
        assert!(offset_of!(DeviceProcess, window) >= 64);
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
        use std::mem::offset_of;
        // The fields `DeviceProcess::prefetch` loads. A field shuffle that
        // leaves a line of the prefix without one fails here instead of
        // silently un-staging that line.
        let read = [
            offset_of!(DeviceProcess, slab),
            offset_of!(DeviceProcess, group),
        ];
        let hot_end = offset_of!(DeviceProcess, group) + size_of::<Rc<DeviceGroup>>();
        for line in 0..hot_end.div_ceil(64) {
            assert!(
                read.iter().any(|at| at / 64 == line),
                "no load in bytes {}..{}",
                line * 64,
                line * 64 + 64
            );
        }
    }

    #[test]
    fn window_and_last_sense_live_in_the_slab_row_when_one_is_attached() {
        let (mut sim, _, _, dev) = world(MaturityLevel::Ml3);
        let slab = NodeSlab::new(riot_sim::SimDuration::from_secs(3), vec![false]);
        sim.process_mut::<DeviceProcess>(dev)
            .unwrap()
            .attach_slab(slab.clone(), 0);
        sim.run_until(SimTime::from_secs(5));
        let d = sim.process_mut::<DeviceProcess>(dev).unwrap();
        assert_eq!(d.take_window(), DeviceWindow::default(), "no second copy");
        assert_eq!(d.last_reading_at(), None, "no second copy");
        let fold = slab.sample_fold(SimTime::from_secs(5), 1.0e6);
        assert!(fold.window.control_ok >= 8, "{:?}", fold.window);
        assert_eq!(fold.window.latency_count, fold.window.control_ok);
        assert_eq!(fold.covered, 1, "the row saw the senses");
    }

    #[test]
    fn window_drain_resets() {
        let (mut sim, _, _, dev) = world(MaturityLevel::Ml3);
        sim.run_until(SimTime::from_secs(5));
        let w = sim.process_mut::<DeviceProcess>(dev).unwrap().take_window();
        assert!(w.control_ok > 0);
        let w2 = sim.process_mut::<DeviceProcess>(dev).unwrap().take_window();
        assert_eq!(w2, DeviceWindow::default());
        assert_eq!(w2.availability(), None);
        assert_eq!(w2.mean_latency_ms(), None);
    }
}
