//! The MAPE loop an archetype runs inside a cloud or edge process.
//!
//! §VII of the paper brings the self-adaptive-systems playbook to IoT: a
//! MAPE loop — Monitor, Analyze, Plan, Execute over Knowledge — whose
//! analysis and planning sit on edge components (or, in the legacy
//! archetypes, the cloud). The scenarios' self-healing need is concrete:
//! every component believed failed should be restarted on its host.
//! [`MapeHost`] is that loop for both placements: failure detection by
//! silence (Monitor), one requirement — full coverage — checked per cycle
//! (Analyze), one restart per component believed failed when it is unmet
//! (Plan), and execution with a restart cooldown (Execute). Recovery time
//! is therefore detection time plus one cycle, the restart delay and
//! transport.

use crate::config::{ArchitectureConfig, MapePlacement, SILENCE_THRESHOLD};
use crate::msg::{AppMsg, Msg};
use riot_model::{ComponentId, ComponentState};
use riot_sim::{Ctx, MetricKey, ProcessId, SimTime};

/// `MapeHost::row_of` for a component with no row.
const NO_ROW: u32 = u32::MAX;

/// What a host knows of one component it has heard from.
#[derive(Debug, Clone, Copy)]
struct Row {
    component: ComponentId,
    /// The device hosting it, as of its last report.
    device: ProcessId,
    /// When it was last heard; `None` after a host restart until it
    /// reports again.
    heard_at: Option<SimTime>,
    /// When a restart was last commanded for it (the execute stage's
    /// cooldown); `None` after a host restart.
    restart_sent_at: Option<SimTime>,
    /// The state it last reported.
    reported: ComponentState,
    /// It reported since the loop last looked at this row.
    unseen: bool,
    /// The state the loop believes it in (the K of MAPE-K): last cycle's
    /// verdict, or the report a host restart took in.
    believed: ComponentState,
}

/// The MAPE loop of a cloud or edge process, when the architecture places
/// one there: one row per component heard, holding its telemetry, the
/// loop's belief about it and the execute stage's restart cooldown.
///
/// A host restart ([`MapeHost::clear`]) forgets the telemetry and the
/// cooldowns but not the beliefs. After a crash, a component the loop
/// last believed failed is restarted again at the next uncovered cycle,
/// even if it is never heard from again; one last believed running is not
/// reconsidered until it reports again.
pub(crate) struct MapeHost {
    /// This node runs the loop. A host without one keeps no rows: nothing
    /// would read them.
    hosted: bool,
    /// One row per component heard, in id order: the order restarts are
    /// planned in, and so the order their commands are sent.
    rows: Vec<Row>,
    /// Component id → position of its row in `rows` (`NO_ROW`: never
    /// heard). Component ids are the scenario's dense device indices, so
    /// this is four bytes per device up to the largest id heard.
    row_of: Vec<u32>,
}

impl MapeHost {
    /// A host at `here`; it runs a loop only when the architecture places
    /// MAPE there.
    pub(crate) fn new(arch: &ArchitectureConfig, here: MapePlacement) -> Self {
        MapeHost {
            hosted: arch.mape == here,
            rows: Vec::new(),
            row_of: Vec::new(),
        }
    }

    /// `true` when this node runs a loop and needs its timer.
    pub(crate) fn hosted(&self) -> bool {
        self.hosted
    }

    /// Telemetry from `component` on `device` arrived: one write to its
    /// row. The loop sees it at the next cycle, or at [`MapeHost::clear`].
    pub(crate) fn heard(
        &mut self,
        component: ComponentId,
        state: ComponentState,
        device: ProcessId,
        now: SimTime,
    ) {
        if !self.hosted {
            return;
        }
        let at = match self.row_index(component) {
            Some(at) => at,
            None => self.add_row(component),
        };
        if let Some(row) = self.rows.get_mut(at) {
            row.device = device;
            row.heard_at = Some(now);
            row.reported = state;
            row.unseen = true;
        }
    }

    /// The position of `component`'s row, if it has one.
    fn row_index(&self, component: ComponentId) -> Option<usize> {
        let at = *self.row_of.get(component.0 as usize)? as usize;
        (at < self.rows.len()).then_some(at)
    }

    /// Gives a first-heard `component` a row in id order and returns its
    /// position; the rows after it move up one.
    fn add_row(&mut self, component: ComponentId) -> usize {
        let at = self.rows.partition_point(|r| r.component < component);
        // riot-lint: allow(A1, reason = "one row per component, grown when the component is first heard and never again; steady-state readings find their row")
        self.rows.insert(
            at,
            Row {
                component,
                device: ProcessId(0),
                heard_at: None,
                restart_sent_at: None,
                reported: ComponentState::Running,
                unseen: false,
                believed: ComponentState::Running,
            },
        );
        let id = component.0 as usize;
        if self.row_of.len() <= id {
            // riot-lint: allow(A1, reason = "the index grows to the largest component id heard (the scenario's device count) and then never again")
            self.row_of.resize(id + 1, NO_ROW);
        }
        for (moved, row) in self.rows.iter().enumerate().skip(at) {
            if let Some(slot) = self.row_of.get_mut(row.component.0 as usize) {
                *slot = moved as u32;
            }
        }
        at
    }

    /// One MAPE cycle, counting each restart command under `restart_sent`.
    pub(crate) fn run(&mut self, ctx: &mut Ctx<'_, Msg>, restart_sent: MetricKey) {
        let now = ctx.now();
        self.cycle(now, |component, device| {
            ctx.metrics().incr_key(restart_sent);
            ctx.send(device, Msg::App(AppMsg::Restart { component }));
        });
    }

    /// One MAPE cycle at `now`: `send` receives each component to restart
    /// and its device, as the cooldown lets them through, in id order.
    fn cycle(&mut self, now: SimTime, mut send: impl FnMut(ComponentId, ProcessId)) {
        // Monitor: failure detection by silence. A component not heard
        // from within the threshold is believed failed (Figure 5's Monitor
        // activity); one unheard since a host restart keeps its belief.
        let (mut heard, mut fresh) = (0usize, 0usize);
        for row in &mut self.rows {
            let Some(seen) = row.heard_at else {
                continue;
            };
            heard += 1;
            row.believed = if now.saturating_since(seen) < SILENCE_THRESHOLD {
                fresh += 1;
                ComponentState::Running
            } else {
                ComponentState::Failed
            };
            row.unseen = false;
        }
        // Analyze: the scope's one requirement is full coverage.
        if fresh == heard {
            return;
        }
        // Plan and Execute: restart every component believed failed, with a
        // per-component cooldown: a restart command is given time to act
        // (and to traverse a possibly degraded network) before it is
        // repeated.
        for row in &mut self.rows {
            if row.believed != ComponentState::Failed
                || row
                    .restart_sent_at
                    .is_some_and(|at| now.saturating_since(at) < SILENCE_THRESHOLD)
            {
                continue;
            }
            row.restart_sent_at = Some(now);
            send(row.component, row.device);
        }
    }

    /// Forgets the telemetry and the pending cooldowns: the host crashed
    /// and both lived in volatile memory. The beliefs survive, so the loop
    /// first takes in every report it has not yet seen: it holds each
    /// component's last report or last cycle's verdict, whichever is newer.
    pub(crate) fn clear(&mut self) {
        for row in &mut self.rows {
            if row.unseen {
                row.believed = row.reported;
            }
            row.unseen = false;
            row.heard_at = None;
            row.restart_sent_at = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_model::MaturityLevel;
    use riot_sim::{Process, Sim, SimBuilder, SimDuration, SimRng};
    use std::collections::BTreeMap;

    /// A cloud-placed host that hears `components` (all running, hosted
    /// on the sink) at start and runs one cycle at `cycle_at`.
    struct Host {
        host: MapeHost,
        components: Vec<ComponentId>,
        sink: ProcessId,
        cycle_at: SimDuration,
    }

    impl Process<Msg> for Host {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            for &c in &self.components {
                self.host
                    .heard(c, ComponentState::Running, self.sink, ctx.now());
            }
            ctx.schedule(self.cycle_at, 0);
        }

        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ProcessId, _msg: Msg) {}

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
            let keys = crate::keys::MetricKeys::mint(ctx.metrics());
            self.host.run(ctx, keys.mape_restart_sent);
        }
    }

    /// Counts the restart commands it receives.
    #[derive(Default)]
    struct Sink {
        restarts: Vec<ComponentId>,
    }

    impl Process<Msg> for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ProcessId, msg: Msg) {
            if let Msg::App(AppMsg::Restart { component }) = msg {
                self.restarts.push(component);
            }
        }
    }

    /// Runs one host cycle `cycle_at` after two components were heard.
    fn one_cycle(cycle_at: SimDuration) -> (Sim<Msg>, ProcessId) {
        let arch = ArchitectureConfig::for_level(MaturityLevel::Ml2);
        assert_eq!(arch.mape, MapePlacement::Cloud);
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        let sink = sim.add_process(Sink::default());
        sim.add_process(Host {
            host: MapeHost::new(&arch, MapePlacement::Cloud),
            components: vec![ComponentId(1), ComponentId(2)],
            sink,
            cycle_at,
        });
        sim.run_until(SimTime::ZERO + cycle_at + SimDuration::from_secs(1));
        (sim, sink)
    }

    #[test]
    fn healthy_model_plans_nothing() {
        let (sim, sink) = one_cycle(SimDuration::from_millis(500));
        assert!(sim.process::<Sink>(sink).unwrap().restarts.is_empty());
        assert_eq!(sim.metrics().counter("mape.restart_sent"), 0);
    }

    #[test]
    fn silent_components_are_restarted_on_their_host() {
        let (sim, sink) = one_cycle(SimDuration::from_secs(10));
        assert_eq!(
            sim.process::<Sink>(sink).unwrap().restarts,
            vec![ComponentId(1), ComponentId(2)]
        );
        assert_eq!(sim.metrics().counter("mape.restart_sent"), 2);
    }

    /// The host as it was before its rows, kept as the reference: ordered
    /// maps for the telemetry, the cooldowns and the loop's knowledge, and
    /// the loop's planning inline.
    struct MapModel {
        silence: SimDuration,
        last_seen: BTreeMap<ComponentId, (ProcessId, SimTime)>,
        restart_sent_at: BTreeMap<ComponentId, SimTime>,
        knowledge: BTreeMap<ComponentId, (ComponentState, ProcessId)>,
    }

    impl MapModel {
        fn heard(
            &mut self,
            c: ComponentId,
            state: ComponentState,
            device: ProcessId,
            now: SimTime,
        ) {
            self.last_seen.insert(c, (device, now));
            self.knowledge.insert(c, (state, device));
        }

        fn cycle(&mut self, now: SimTime, sent: &mut Vec<(ComponentId, ProcessId, SimTime)>) {
            let mut fresh = 0usize;
            for (c, (device, seen)) in &self.last_seen {
                let state = if now.saturating_since(*seen) < self.silence {
                    fresh += 1;
                    ComponentState::Running
                } else {
                    ComponentState::Failed
                };
                self.knowledge.insert(*c, (state, *device));
            }
            if fresh == self.last_seen.len() {
                return;
            }
            for (&c, &(state, host)) in &self.knowledge {
                if state != ComponentState::Failed {
                    continue;
                }
                let recently = self
                    .restart_sent_at
                    .get(&c)
                    .is_some_and(|at| now.saturating_since(*at) < self.silence);
                if !recently {
                    self.restart_sent_at.insert(c, now);
                    sent.push((c, host, now));
                }
            }
        }

        fn clear(&mut self) {
            self.last_seen.clear();
            self.restart_sent_at.clear();
        }
    }

    #[test]
    fn rows_send_what_the_ordered_maps_sent() {
        let arch = ArchitectureConfig::for_level(MaturityLevel::Ml2);
        // Sparse ids, first heard out of order.
        let ids = [7u32, 3, 1_024, 0, 65, 4_000, 12, 999, 2];
        for seed in 0..32 {
            let mut rng = SimRng::seed_from(seed);
            let mut host = MapeHost::new(&arch, MapePlacement::Cloud);
            let mut model = MapModel {
                silence: SILENCE_THRESHOLD,
                last_seen: BTreeMap::new(),
                restart_sent_at: BTreeMap::new(),
                knowledge: BTreeMap::new(),
            };
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut now = SimTime::ZERO;
            for _ in 0..400 {
                now += SimDuration::from_millis(rng.range_u64(0, 2_000));
                let op = rng.unit();
                if op < 0.7 {
                    let c = ComponentId(*rng.pick(&ids).unwrap());
                    let state = if rng.chance(0.3) {
                        ComponentState::Failed
                    } else {
                        ComponentState::Running
                    };
                    let device = ProcessId(rng.range_u64(0, 4) as usize);
                    host.heard(c, state, device, now);
                    model.heard(c, state, device, now);
                } else if op < 0.95 {
                    host.cycle(now, |component, device| got.push((component, device, now)));
                    model.cycle(now, &mut want);
                    assert_eq!(got, want, "seed {seed}");
                } else {
                    host.clear();
                    model.clear();
                }
            }
            assert!(!want.is_empty(), "seed {seed} restarts nothing");
            assert_eq!(got.len(), want.len(), "restart_sent, seed {seed}");
        }
    }

    #[test]
    fn a_host_without_a_loop_keeps_no_telemetry() {
        let arch = ArchitectureConfig::for_level(MaturityLevel::Ml3);
        let mut host = MapeHost::new(&arch, MapePlacement::Edge);
        assert!(!host.hosted());
        host.heard(
            ComponentId(5),
            ComponentState::Running,
            ProcessId(5),
            SimTime::ZERO,
        );
        assert!(host.rows.is_empty() && host.row_of.is_empty());
    }
}
