//! The host that runs an archetype's MAPE loop inside a cloud or edge
//! process.
//!
//! The scenarios' self-healing need is concrete: every component believed
//! failed should be restarted on its host. [`riot_adapt::MapeLoop`] plans
//! exactly that — one restart per failed component per cycle — which keeps
//! experiment results easy to reason about: recovery time is detection time
//! plus one cycle, the restart delay and transport. [`MapeHost`] is the part
//! both placements share: failure detection by silence (Monitor), and
//! execution with a restart cooldown (Execute).

use crate::config::{ArchitectureConfig, MapePlacement};
use crate::msg::{AppMsg, Msg};
use riot_adapt::{MapeLoop, MapeStats, Restart};
use riot_model::{ComponentId, ComponentState};
use riot_sim::{Ctx, MetricKey, ProcessId, SimDuration, SimTime};
use std::collections::BTreeMap;

/// The MAPE side of a cloud or edge process: the component telemetry it
/// has heard, the loop itself when the architecture places one here, and
/// the execute stage's restart cooldowns.
///
/// A host restart ([`MapeHost::clear`]) forgets the telemetry and the
/// cooldowns but not the loop's knowledge. After a crash, a component the
/// loop last held failed is restarted again at the next uncovered cycle,
/// even if it is never heard from again; one last held running is not
/// reconsidered until it reports again.
pub(crate) struct MapeHost {
    /// The loop, when this node hosts one.
    mape: Option<MapeLoop>,
    /// A component silent for this long is believed failed; also how long
    /// a restart command is given to act before it is repeated.
    silence: SimDuration,
    /// Component telemetry: component → (hosting device, last heard).
    last_seen: BTreeMap<ComponentId, (ProcessId, SimTime)>,
    /// Execute-stage dedup: component → when we last commanded a restart.
    restart_sent_at: BTreeMap<ComponentId, SimTime>,
}

impl MapeHost {
    /// A host at `here`; it runs a loop only when the architecture places
    /// MAPE there.
    pub(crate) fn new(arch: &ArchitectureConfig, here: MapePlacement) -> Self {
        MapeHost {
            mape: (arch.mape == here).then(MapeLoop::new),
            silence: arch.silence_threshold,
            last_seen: BTreeMap::new(),
            restart_sent_at: BTreeMap::new(),
        }
    }

    /// `true` when this node runs a loop and needs its timer.
    pub(crate) fn hosted(&self) -> bool {
        self.mape.is_some()
    }

    /// Telemetry from `component` on `device` arrived.
    pub(crate) fn heard(
        &mut self,
        component: ComponentId,
        state: ComponentState,
        device: ProcessId,
        now: SimTime,
    ) {
        self.last_seen.insert(component, (device, now));
        if let Some(mape) = self.mape.as_mut() {
            mape.observe_component(component, state, device);
        }
    }

    /// One MAPE cycle, counting each restart command under `restart_sent`.
    pub(crate) fn run(&mut self, ctx: &mut Ctx<'_, Msg>, restart_sent: MetricKey) {
        let Some(mape) = self.mape.as_mut() else {
            return;
        };
        let now = ctx.now();
        // Failure detection by silence: a component not heard from within
        // the threshold is believed failed (Figure 5's Monitor activity).
        let mut fresh = 0usize;
        for (component, (device, seen)) in &self.last_seen {
            let state = if now.saturating_since(*seen) < self.silence {
                fresh += 1;
                ComponentState::Running
            } else {
                ComponentState::Failed
            };
            mape.observe_component(*component, state, *device);
        }
        // Execute with a per-component cooldown: a restart command is given
        // time to act (and to traverse a possibly degraded network) before
        // being repeated.
        mape.cycle(
            fresh == self.last_seen.len(),
            |Restart { component, host }| {
                let recently = self
                    .restart_sent_at
                    .get(&component)
                    .is_some_and(|at| now.saturating_since(*at) < self.silence);
                if recently {
                    return;
                }
                self.restart_sent_at.insert(component, now);
                ctx.metrics().incr_key(restart_sent);
                ctx.send(host, Msg::App(AppMsg::Restart { component }));
            },
        );
    }

    /// Forgets the telemetry and the pending cooldowns: the host crashed
    /// and both lived in volatile memory.
    pub(crate) fn clear(&mut self) {
        self.last_seen.clear();
        self.restart_sent_at.clear();
    }

    /// The loop's statistics, when this node hosts one.
    pub(crate) fn stats(&self) -> Option<MapeStats> {
        self.mape.as_ref().map(|m| m.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_model::MaturityLevel;
    use riot_sim::{Process, Sim, SimBuilder};

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
            let restart_sent = ctx.metrics().intern("mape.restart_sent");
            self.host.run(ctx, restart_sent);
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
    fn one_cycle(cycle_at: SimDuration) -> (Sim<Msg>, ProcessId, ProcessId) {
        let arch = ArchitectureConfig::for_level(MaturityLevel::Ml2);
        assert_eq!(arch.mape, MapePlacement::Cloud);
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        let sink = sim.add_process(Sink::default());
        let host = sim.add_process(Host {
            host: MapeHost::new(&arch, MapePlacement::Cloud),
            components: vec![ComponentId(1), ComponentId(2)],
            sink,
            cycle_at,
        });
        sim.run_until(SimTime::ZERO + cycle_at + SimDuration::from_secs(1));
        (sim, host, sink)
    }

    #[test]
    fn healthy_model_plans_nothing() {
        let (sim, host, sink) = one_cycle(SimDuration::from_millis(500));
        let stats = sim.process::<Host>(host).unwrap().host.stats().unwrap();
        assert_eq!(
            stats,
            MapeStats {
                cycles: 1,
                issues_found: 0,
                actions_planned: 0
            }
        );
        assert!(sim.process::<Sink>(sink).unwrap().restarts.is_empty());
        assert_eq!(sim.metrics().counter("mape.restart_sent"), 0);
    }

    #[test]
    fn silent_components_are_restarted_on_their_host() {
        let (sim, host, sink) = one_cycle(SimDuration::from_secs(10));
        let stats = sim.process::<Host>(host).unwrap().host.stats().unwrap();
        assert_eq!(stats.issues_found, 1);
        assert_eq!(stats.actions_planned, 2);
        assert_eq!(
            sim.process::<Sink>(sink).unwrap().restarts,
            vec![ComponentId(1), ComponentId(2)]
        );
        assert_eq!(sim.metrics().counter("mape.restart_sent"), 2);
    }
}
