//! The recovery planner used by the archetype MAPE loops, and the host
//! that runs such a loop inside a cloud or edge process.
//!
//! The scenarios' self-healing need is concrete: every component the
//! knowledge base believes failed should be restarted on its host.
//! [`RecoveryPlanner`] plans exactly that — one `RestartComponent` per
//! failed component per cycle — which keeps experiment results easy to
//! reason about (recovery time = detection time + one cycle + restart
//! delay + transport). [`MapeHost`] is the part both placements share:
//! failure detection by silence, and execution with a restart cooldown.

use crate::config::{ArchitectureConfig, MapePlacement};
use crate::msg::{AppMsg, Msg};
use riot_adapt::{
    AdaptationAction, Issue, KnowledgeBase, MapeLoop, MapeStats, Placement, Plan, Planner,
};
use riot_model::{
    ComponentId, ComponentState, Predicate, Requirement, RequirementId, RequirementKind,
    RequirementSet,
};
use riot_sim::{Ctx, MetricKey, ProcessId, SimDuration, SimTime};
use std::collections::BTreeMap;

/// The requirement the archetype MAPE loops maintain: full component
/// coverage in their scope. A silent/failed component drops the
/// `scope.coverage` metric below 1, raising the issue that triggers
/// planning.
pub fn scope_requirements() -> RequirementSet {
    vec![Requirement::new(
        RequirementId(0),
        "all scope components alive",
        RequirementKind::Coverage,
        "scope.coverage",
        Predicate::AtLeast(1.0),
    )]
    .into_iter()
    .collect()
}

/// Plans a restart for every failed component in the knowledge base.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryPlanner;

impl Planner for RecoveryPlanner {
    fn plan(&mut self, _issues: &[Issue], kb: &KnowledgeBase) -> Plan {
        let mut plan = Plan::empty();
        for (component, host) in kb.components_in_state(ComponentState::Failed) {
            plan.actions
                .push(AdaptationAction::RestartComponent { component, host });
            plan.rationale
                .push(format!("component {component} on {host} believed failed"));
        }
        plan
    }
}

/// The MAPE side of a cloud or edge process: the component telemetry it
/// has heard, the loop itself when the architecture places one here, and
/// the execute stage's restart cooldowns.
pub(crate) struct MapeHost {
    /// The loop, when this node hosts one.
    mape: Option<MapeLoop<RecoveryPlanner>>,
    /// A component silent for this long is believed failed; also how long
    /// a restart command is given to act before it is repeated.
    silence: SimDuration,
    /// Component telemetry: component → (hosting device, last heard).
    last_seen: BTreeMap<ComponentId, (ProcessId, SimTime)>,
    /// Execute-stage dedup: component → when we last commanded a restart.
    restart_sent_at: BTreeMap<ComponentId, SimTime>,
}

impl MapeHost {
    /// A host at `placement`; it runs a loop only when the architecture
    /// places MAPE there.
    pub(crate) fn new(arch: &ArchitectureConfig, placement: Placement) -> Self {
        let hosted = matches!(
            (arch.mape, placement),
            (MapePlacement::Cloud, Placement::Cloud) | (MapePlacement::Edge, Placement::Edge)
        );
        MapeHost {
            mape: hosted.then(|| {
                MapeLoop::new(
                    scope_requirements(),
                    RecoveryPlanner,
                    placement,
                    arch.mape_period,
                    arch.knowledge_freshness,
                )
            }),
            silence: arch.silence_threshold,
            last_seen: BTreeMap::new(),
            restart_sent_at: BTreeMap::new(),
        }
    }

    /// `true` when this node runs a loop and needs its timer.
    pub(crate) fn hosted(&self) -> bool {
        self.mape.is_some()
    }

    /// Membership reported `node` alive or dead.
    pub(crate) fn observe_node(&mut self, node: ProcessId, alive: bool, now: SimTime) {
        if let Some(mape) = self.mape.as_mut() {
            mape.observe_node(node, alive, now);
        }
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
            mape.observe_component(component, state, device, now);
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
            mape.observe_component(*component, state, *device, now);
        }
        let coverage = if self.last_seen.is_empty() {
            1.0
        } else {
            fresh as f64 / self.last_seen.len() as f64
        };
        mape.observe_metric("scope.coverage", coverage, now);
        let (_, plan) = mape.cycle(now);
        // Execute with a per-component cooldown: a restart command is given
        // time to act (and to traverse a possibly degraded network) before
        // being repeated.
        for action in plan.actions {
            if let AdaptationAction::RestartComponent { component, host } = action {
                let recently = self
                    .restart_sent_at
                    .get(&component)
                    .is_some_and(|at| now.saturating_since(*at) < self.silence);
                if recently {
                    continue;
                }
                self.restart_sent_at.insert(component, now);
                ctx.metrics().incr_key(restart_sent);
                ctx.send(host, Msg::App(AppMsg::Restart { component }));
            }
        }
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

    #[test]
    fn restarts_every_failed_component() {
        let mut kb = KnowledgeBase::new(SimDuration::from_secs(10));
        kb.set_component(
            ComponentId(1),
            ComponentState::Failed,
            ProcessId(5),
            SimTime::ZERO,
        );
        kb.set_component(
            ComponentId(2),
            ComponentState::Running,
            ProcessId(6),
            SimTime::ZERO,
        );
        kb.set_component(
            ComponentId(3),
            ComponentState::Failed,
            ProcessId(7),
            SimTime::ZERO,
        );
        let plan = RecoveryPlanner.plan(&[], &kb);
        assert_eq!(plan.len(), 2);
        assert!(plan.actions.contains(&AdaptationAction::RestartComponent {
            component: ComponentId(1),
            host: ProcessId(5)
        }));
        assert!(plan.actions.contains(&AdaptationAction::RestartComponent {
            component: ComponentId(3),
            host: ProcessId(7)
        }));
    }

    #[test]
    fn healthy_model_plans_nothing() {
        let mut kb = KnowledgeBase::new(SimDuration::from_secs(10));
        kb.set_component(
            ComponentId(1),
            ComponentState::Running,
            ProcessId(5),
            SimTime::ZERO,
        );
        assert!(RecoveryPlanner.plan(&[], &kb).is_empty());
    }
}
