//! The Plan activity: from issues to adaptation actions.
//!
//! Two planners are provided, mirroring the spectrum §VII sketches:
//!
//! * [`RulePlanner`] — condition→action rules: cheap, predictable, the kind
//!   of planning a constrained edge component can always afford.
//! * [`SearchPlanner`] — model-based greedy search: candidate actions are
//!   simulated against a predictive [`ActionModel`] of the knowledge base
//!   and chosen by expected requirement-satisfaction gain per unit cost
//!   ("model-based planning … using contextual information", §V-B).

use crate::analyze::Issue;
use crate::knowledge::KnowledgeBase;
use riot_model::{ComponentId, RequirementSet};
use riot_sim::ProcessId;

/// Where control decisions for a scope are taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlMode {
    /// Decisions deferred to the cloud (the ML2 archetype).
    Cloud,
    /// Decisions taken locally at the edge (the ML4 archetype).
    Local,
}

/// An adaptation the Execute stage can actuate.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptationAction {
    /// Restart a failed component in place.
    RestartComponent {
        /// The component.
        component: ComponentId,
        /// Its host node.
        host: ProcessId,
    },
    /// Move a component to a healthier host.
    MigrateComponent {
        /// The component.
        component: ComponentId,
        /// Current host.
        from: ProcessId,
        /// New host.
        to: ProcessId,
    },
    /// Switch a scope's control placement (cloud ↔ edge).
    SwitchControlMode {
        /// The edge scope.
        scope: u32,
        /// New mode.
        mode: ControlMode,
    },
    /// Scale the data-plane anti-entropy period by a factor (<1 = sync
    /// more often, improving freshness at bandwidth cost).
    AdjustSyncPeriod {
        /// Multiplicative factor applied to the period.
        factor: f64,
    },
    /// Appoint a coordinator for a scope.
    PromoteCoordinator {
        /// The scope.
        scope: u32,
        /// The appointee.
        node: ProcessId,
    },
}

/// A planned sequence of actions with a human-readable rationale.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// Actions in execution order.
    pub actions: Vec<AdaptationAction>,
    /// Why each action was chosen (parallel to `actions`).
    pub rationale: Vec<String>,
}

impl Plan {
    /// The empty plan.
    pub fn empty() -> Self {
        Plan::default()
    }

    /// `true` when nothing is planned.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Number of planned actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    fn push(&mut self, action: AdaptationAction, why: impl Into<String>) {
        self.actions.push(action);
        self.rationale.push(why.into());
    }
}

/// A planning strategy.
pub trait Planner {
    /// Produces a plan for the current issues and runtime model.
    fn plan(&mut self, issues: &[Issue], kb: &KnowledgeBase) -> Plan;
}

/// The callback type of a [`PlanningRule`]: maps one issue (plus the
/// knowledge base) to at most one action.
pub type RuleFn = Box<dyn FnMut(&Issue, &KnowledgeBase) -> Option<AdaptationAction>>;

/// One condition→action rule.
pub struct PlanningRule {
    /// Name for rationale strings.
    pub name: String,
    /// Fires at most one action per issue.
    pub apply: RuleFn,
}

impl std::fmt::Debug for PlanningRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanningRule")
            .field("name", &self.name)
            .finish()
    }
}

/// A first-match rule-based planner. Independent of issue order, each rule
/// is offered each issue; the first rule to fire for an issue plans its
/// action, deduplicated across issues.
#[derive(Debug, Default)]
pub struct RulePlanner {
    rules: Vec<PlanningRule>,
}

impl RulePlanner {
    /// A planner with no rules (plans nothing).
    pub fn new() -> Self {
        RulePlanner::default()
    }

    /// Appends a rule.
    pub fn rule(
        mut self,
        name: impl Into<String>,
        apply: impl FnMut(&Issue, &KnowledgeBase) -> Option<AdaptationAction> + 'static,
    ) -> Self {
        self.rules.push(PlanningRule {
            name: name.into(),
            apply: Box::new(apply),
        });
        self
    }

    /// The standard self-healing rule set used by the ML2+/ML4 archetypes:
    /// restart any component the model believes failed (one action per
    /// failed component, regardless of which requirement flagged it).
    pub fn standard() -> Self {
        RulePlanner::new().rule("restart-failed-components", |_, kb| {
            kb.components_in_state(riot_model::ComponentState::Failed)
                .first()
                .map(|(c, h)| AdaptationAction::RestartComponent {
                    component: *c,
                    host: *h,
                })
        })
    }
}

impl Planner for RulePlanner {
    fn plan(&mut self, issues: &[Issue], kb: &KnowledgeBase) -> Plan {
        let mut plan = Plan::empty();
        for issue in issues {
            for rule in &mut self.rules {
                if let Some(action) = (rule.apply)(issue, kb) {
                    if !plan.actions.contains(&action) {
                        plan.push(action, format!("rule '{}' on {}", rule.name, issue.metric));
                    }
                    break;
                }
            }
        }
        plan
    }
}

/// A predictive model of how actions change the runtime model — supplied
/// by whoever owns the execution semantics (`riot-core` in the framework,
/// mocks in tests).
pub trait ActionModel {
    /// Candidate actions worth considering for the current situation.
    fn candidates(&self, issues: &[Issue], kb: &KnowledgeBase) -> Vec<AdaptationAction>;

    /// The predicted knowledge base after executing `action`.
    fn predict(&self, action: &AdaptationAction, kb: &KnowledgeBase) -> KnowledgeBase;

    /// Cost of the action (actuation risk, bandwidth, downtime).
    fn cost(&self, action: &AdaptationAction) -> f64;
}

/// Greedy model-based planner: repeatedly picks the candidate with the
/// best `(predicted satisfaction gain) − λ·cost` until no candidate
/// improves or `max_actions` is reached.
pub struct SearchPlanner<M> {
    model: M,
    requirements: RequirementSet,
    /// Cost weight λ.
    pub cost_weight: f64,
    /// Plan length bound.
    pub max_actions: usize,
}

impl<M: std::fmt::Debug> std::fmt::Debug for SearchPlanner<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchPlanner")
            .field("model", &self.model)
            .field("cost_weight", &self.cost_weight)
            .field("max_actions", &self.max_actions)
            .finish()
    }
}

impl<M: ActionModel> SearchPlanner<M> {
    /// Creates a planner over the given predictive model and requirements.
    pub fn new(model: M, requirements: RequirementSet) -> Self {
        SearchPlanner {
            model,
            requirements,
            cost_weight: 0.01,
            max_actions: 4,
        }
    }

    /// The requirement-satisfaction fraction of a (predicted) model.
    fn score(&self, kb: &KnowledgeBase) -> f64 {
        self.requirements.satisfaction_fraction(kb)
    }
}

impl<M: ActionModel> Planner for SearchPlanner<M> {
    fn plan(&mut self, issues: &[Issue], kb: &KnowledgeBase) -> Plan {
        let mut plan = Plan::empty();
        let mut current = kb.clone();
        let mut current_score = self.score(&current);
        for _ in 0..self.max_actions {
            let candidates = self.model.candidates(issues, &current);
            let mut best: Option<(AdaptationAction, KnowledgeBase, f64, f64)> = None;
            for action in candidates {
                if plan.actions.contains(&action) {
                    continue;
                }
                let predicted = self.model.predict(&action, &current);
                let gain = self.score(&predicted) - current_score;
                let utility = gain - self.cost_weight * self.model.cost(&action);
                let better = match &best {
                    None => utility > 0.0,
                    Some((_, _, _, bu)) => utility > *bu,
                };
                if better {
                    best = Some((action, predicted, gain, utility));
                }
            }
            match best {
                Some((action, predicted, gain, _)) => {
                    plan.push(action, format!("predicted satisfaction gain {:+.3}", gain));
                    current = predicted;
                    current_score = self.score(&current);
                }
                None => break,
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_model::{
        ComponentState, Predicate, Requirement, RequirementId, RequirementKind, Verdict,
    };
    use riot_sim::{SimDuration, SimTime};

    fn kb_with_failure() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new(SimDuration::from_secs(60));
        kb.set_component(
            ComponentId(7),
            ComponentState::Failed,
            ProcessId(3),
            SimTime::ZERO,
        );
        kb.record("service_up", 0.0, SimTime::ZERO);
        kb
    }

    fn issue() -> Issue {
        Issue {
            requirement: RequirementId(0),
            verdict: Verdict::Violated,
            margin: Some(-1.0),
            metric: "service_up".into(),
        }
    }

    #[test]
    fn empty_rule_planner_plans_nothing() {
        let mut p = RulePlanner::new();
        let plan = p.plan(&[issue()], &kb_with_failure());
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
    }

    #[test]
    fn standard_rules_restart_failed_component() {
        let mut p = RulePlanner::standard();
        let plan = p.plan(&[issue()], &kb_with_failure());
        assert_eq!(
            plan.actions,
            vec![AdaptationAction::RestartComponent {
                component: ComponentId(7),
                host: ProcessId(3)
            }]
        );
        assert!(plan.rationale[0].contains("restart-failed-components"));
    }

    #[test]
    fn rule_planner_deduplicates_actions_across_issues() {
        let mut p = RulePlanner::standard();
        let issues = vec![issue(), issue()];
        let plan = p.plan(&issues, &kb_with_failure());
        assert_eq!(plan.len(), 1, "same action planned once");
    }

    #[test]
    fn no_issues_no_plan() {
        let mut p = RulePlanner::standard();
        assert!(p.plan(&[], &kb_with_failure()).is_empty());
    }

    /// A toy model where restarting the failed component fixes
    /// `service_up` and a migration fixes `latency`, at different costs.
    #[derive(Debug)]
    struct ToyModel;

    impl ActionModel for ToyModel {
        fn candidates(&self, _issues: &[Issue], kb: &KnowledgeBase) -> Vec<AdaptationAction> {
            let mut c = Vec::new();
            for (comp, host) in kb.components_in_state(ComponentState::Failed) {
                c.push(AdaptationAction::RestartComponent {
                    component: comp,
                    host,
                });
            }
            c.push(AdaptationAction::MigrateComponent {
                component: ComponentId(7),
                from: ProcessId(3),
                to: ProcessId(4),
            });
            c.push(AdaptationAction::AdjustSyncPeriod { factor: 0.5 });
            c
        }

        fn predict(&self, action: &AdaptationAction, kb: &KnowledgeBase) -> KnowledgeBase {
            let mut next = kb.clone();
            match action {
                AdaptationAction::RestartComponent { component, host } => {
                    next.set_component(*component, ComponentState::Running, *host, kb.now());
                    next.record("service_up", 1.0, kb.now());
                }
                AdaptationAction::MigrateComponent { .. } => {
                    next.record("latency_ms", 50.0, kb.now());
                }
                _ => {}
            }
            next
        }

        fn cost(&self, action: &AdaptationAction) -> f64 {
            match action {
                AdaptationAction::RestartComponent { .. } => 1.0,
                AdaptationAction::MigrateComponent { .. } => 5.0,
                _ => 0.1,
            }
        }
    }

    fn search_requirements() -> RequirementSet {
        vec![
            Requirement::new(
                RequirementId(0),
                "svc",
                RequirementKind::Availability,
                "service_up",
                Predicate::AtLeast(1.0),
            ),
            Requirement::new(
                RequirementId(1),
                "lat",
                RequirementKind::Latency,
                "latency_ms",
                Predicate::AtMost(100.0),
            ),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn search_planner_fixes_both_issues_in_gain_order() {
        let mut kb = kb_with_failure();
        kb.record("latency_ms", 500.0, SimTime::ZERO);
        let mut p = SearchPlanner::new(ToyModel, search_requirements());
        let plan = p.plan(&[issue()], &kb);
        assert_eq!(plan.len(), 2, "both fixes are worth their cost: {plan:?}");
        // Both actions gain 0.5 satisfaction; the restart is cheaper, so it
        // is picked first.
        assert!(matches!(
            plan.actions[0],
            AdaptationAction::RestartComponent { .. }
        ));
        assert!(matches!(
            plan.actions[1],
            AdaptationAction::MigrateComponent { .. }
        ));
    }

    #[test]
    fn search_planner_stops_when_nothing_helps() {
        let mut kb = KnowledgeBase::new(SimDuration::from_secs(60));
        kb.record("service_up", 1.0, SimTime::ZERO);
        kb.record("latency_ms", 10.0, SimTime::ZERO);
        let mut p = SearchPlanner::new(ToyModel, search_requirements());
        let plan = p.plan(&[], &kb);
        assert!(
            plan.is_empty(),
            "all satisfied: no action has positive utility"
        );
    }

    #[test]
    fn search_planner_respects_action_bound() {
        let mut kb = kb_with_failure();
        kb.record("latency_ms", 500.0, SimTime::ZERO);
        let mut p = SearchPlanner::new(ToyModel, search_requirements());
        p.max_actions = 1;
        let plan = p.plan(&[issue()], &kb);
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn high_cost_weight_suppresses_expensive_fixes() {
        let mut kb = KnowledgeBase::new(SimDuration::from_secs(60));
        kb.record("service_up", 1.0, SimTime::ZERO);
        kb.record("latency_ms", 500.0, SimTime::ZERO); // only the migration helps
        let mut p = SearchPlanner::new(ToyModel, search_requirements());
        p.cost_weight = 0.2; // 0.5 gain - 0.2*5 cost = -0.5 < 0
        let plan = p.plan(&[], &kb);
        assert!(plan.is_empty(), "migration no longer worth it: {plan:?}");
    }
}
