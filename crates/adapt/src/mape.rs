//! The MAPE-K loop: Monitor → Analyze → Plan → Execute over Knowledge.
//!
//! Figure 5 of the paper places the loop's activities across the IoT
//! landscape: *monitoring and execution "may be referred to as sensing and
//! actuation, as they are dominant in the IoT end-devices"*, while
//! *analysis and planning* belong on edge components (or, in the legacy
//! archetype, the cloud). [`MapeLoop`] owns the A and P stages plus the
//! knowledge base; the M and E boundaries are the caller's: feed
//! observations in with the `observe_*` methods, actuate the returned
//! [`Plan`]s.
//!
//! [`Placement`] records where the loop runs; experiment E6 compares
//! cloud-placed and edge-placed loops under cloud-link disruption.

use crate::analyze::{Analyzer, Issue};
use crate::knowledge::KnowledgeBase;
use crate::plan::{AdaptationAction, Plan, Planner};
use riot_model::{ComponentId, ComponentState, RequirementSet};
use riot_sim::{ProcessId, SimDuration, SimTime};
use std::collections::VecDeque;

/// Where a MAPE loop's analysis and planning run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// In the cloud (ML2/ML3 archetypes): global view, but reachable only
    /// through the cloud link.
    Cloud,
    /// On an edge component (ML4): local view, survives cloud outages.
    Edge,
}

/// One entry of the adaptation audit log: what a cycle saw and decided.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleRecord {
    /// When the cycle ran.
    pub at: SimTime,
    /// How many issues analysis raised.
    pub issues: usize,
    /// The actions planned (empty when nothing was wrong or plannable).
    pub actions: Vec<AdaptationAction>,
}

/// Cycle statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapeStats {
    /// Analysis cycles run.
    pub cycles: u64,
    /// Issues detected across all cycles.
    pub issues_found: u64,
    /// Actions planned across all cycles.
    pub actions_planned: u64,
}

/// A self-adaptation loop for one scope.
pub struct MapeLoop<P> {
    kb: KnowledgeBase,
    analyzer: Analyzer,
    planner: P,
    requirements: RequirementSet,
    placement: Placement,
    period: SimDuration,
    last_cycle: Option<SimTime>,
    stats: MapeStats,
    /// Ring buffer of the most recent *eventful* cycles (issues or actions).
    history: VecDeque<CycleRecord>,
}

/// Length of the audit log: the newest eventful cycles kept.
const HISTORY_CAP: usize = 64;

impl<P: std::fmt::Debug> std::fmt::Debug for MapeLoop<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapeLoop")
            .field("placement", &self.placement)
            .field("period", &self.period)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<P: Planner> MapeLoop<P> {
    /// Creates a loop.
    pub fn new(
        requirements: RequirementSet,
        planner: P,
        placement: Placement,
        period: SimDuration,
        knowledge_freshness: SimDuration,
    ) -> Self {
        MapeLoop {
            kb: KnowledgeBase::new(knowledge_freshness),
            analyzer: Analyzer::new(),
            planner,
            requirements,
            placement,
            period,
            last_cycle: None,
            stats: MapeStats::default(),
            history: VecDeque::new(),
        }
    }

    /// The audit log of recent eventful cycles (bounded; oldest evicted).
    /// "Obtaining assurances" (§III-A challenge 3) includes being able to
    /// answer *what did the loop decide, and when* after the fact.
    pub fn history(&self) -> impl Iterator<Item = &CycleRecord> {
        self.history.iter()
    }

    /// Where this loop runs.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The loop period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Cycle statistics so far.
    pub fn stats(&self) -> MapeStats {
        self.stats
    }

    /// The knowledge base (the K in MAPE-K).
    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// Mutable access to the analyzer, to install formal monitors and atom
    /// bindings before the run.
    pub fn analyzer_mut(&mut self) -> &mut Analyzer {
        &mut self.analyzer
    }

    /// The requirements this loop maintains.
    pub fn requirements(&self) -> &RequirementSet {
        &self.requirements
    }

    /// Monitor boundary: a metric observation arrived.
    pub fn observe_metric(&mut self, metric: &str, value: f64, at: SimTime) {
        self.kb.record(metric, value, at);
    }

    /// Monitor boundary: a component state report arrived.
    pub fn observe_component(
        &mut self,
        id: ComponentId,
        state: ComponentState,
        host: ProcessId,
        at: SimTime,
    ) {
        self.kb.set_component(id, state, host, at);
    }

    /// Monitor boundary: a node liveness report arrived.
    pub fn observe_node(&mut self, node: ProcessId, up: bool, at: SimTime) {
        self.kb.set_node(node, up, at);
    }

    /// `true` when a cycle is due at `now`.
    pub fn due(&self, now: SimTime) -> bool {
        match self.last_cycle {
            None => true,
            Some(t) => now.saturating_since(t) >= self.period,
        }
    }

    /// Runs one Analyze+Plan cycle. Returns the issues observed and the
    /// plan; the caller executes the plan (the E of MAPE) and keeps feeding
    /// observations (the M).
    pub fn cycle(&mut self, now: SimTime) -> (Vec<Issue>, Plan) {
        self.last_cycle = Some(now);
        self.kb.set_now(now);
        self.stats.cycles += 1;
        let issues = self.analyzer.analyze(&self.requirements, &self.kb);
        self.stats.issues_found += issues.len() as u64;
        let plan = if issues.is_empty() {
            Plan::empty()
        } else {
            self.planner.plan(&issues, &self.kb)
        };
        self.stats.actions_planned += plan.len() as u64;
        if !issues.is_empty() || !plan.is_empty() {
            self.history.push_back(CycleRecord {
                at: now,
                issues: issues.len(),
                actions: plan.actions.clone(),
            });
            if self.history.len() > HISTORY_CAP {
                self.history.pop_front();
            }
        }
        (issues, plan)
    }

    /// Current requirement-satisfaction fraction as seen by this loop's
    /// knowledge.
    pub fn satisfaction(&self) -> f64 {
        self.requirements.satisfaction_fraction(&self.kb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AdaptationAction, RulePlanner};
    use riot_model::{Predicate, Requirement, RequirementId, RequirementKind};

    fn requirements() -> RequirementSet {
        vec![Requirement::new(
            RequirementId(0),
            "service up",
            RequirementKind::Availability,
            "service_up",
            Predicate::AtLeast(1.0),
        )]
        .into_iter()
        .collect()
    }

    fn loop_with_standard_rules() -> MapeLoop<RulePlanner> {
        MapeLoop::new(
            requirements(),
            RulePlanner::standard(),
            Placement::Edge,
            SimDuration::from_secs(1),
            SimDuration::from_secs(30),
        )
    }

    #[test]
    fn healthy_system_plans_nothing() {
        let mut m = loop_with_standard_rules();
        m.observe_metric("service_up", 1.0, SimTime::ZERO);
        let (issues, plan) = m.cycle(SimTime::from_secs(1));
        assert!(issues.is_empty());
        assert!(plan.is_empty());
        assert_eq!(m.stats().cycles, 1);
        assert_eq!(m.satisfaction(), 1.0);
    }

    #[test]
    fn failure_detected_and_repair_planned() {
        let mut m = loop_with_standard_rules();
        m.observe_metric("service_up", 0.0, SimTime::from_secs(1));
        m.observe_component(
            ComponentId(2),
            ComponentState::Failed,
            ProcessId(5),
            SimTime::from_secs(1),
        );
        let (issues, plan) = m.cycle(SimTime::from_secs(2));
        assert_eq!(issues.len(), 1);
        assert_eq!(
            plan.actions,
            vec![AdaptationAction::RestartComponent {
                component: ComponentId(2),
                host: ProcessId(5)
            }]
        );
        assert_eq!(m.stats().issues_found, 1);
        assert_eq!(m.stats().actions_planned, 1);
        assert_eq!(m.satisfaction(), 0.0);
    }

    #[test]
    fn due_respects_period() {
        let mut m = loop_with_standard_rules();
        assert!(m.due(SimTime::ZERO), "first cycle is always due");
        m.cycle(SimTime::ZERO);
        assert!(!m.due(SimTime::from_millis(500)));
        assert!(m.due(SimTime::from_secs(1)));
    }

    #[test]
    fn stale_knowledge_yields_unknown_issue_not_violation() {
        let mut m = MapeLoop::new(
            requirements(),
            RulePlanner::standard(),
            Placement::Cloud,
            SimDuration::from_secs(1),
            SimDuration::from_secs(5), // short freshness horizon
        );
        m.observe_metric("service_up", 1.0, SimTime::ZERO);
        // 100 s later the observation is stale: the cloud lost sight of the
        // system (e.g. partition) — analysis must say Unknown.
        let (issues, _) = m.cycle(SimTime::from_secs(100));
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].verdict, riot_model::Verdict::Unknown);
        assert_eq!(m.placement(), Placement::Cloud);
    }

    #[test]
    fn history_records_only_eventful_cycles_and_is_bounded() {
        let mut m = loop_with_standard_rules();
        // Healthy cycles leave no trace.
        m.observe_metric("service_up", 1.0, SimTime::ZERO);
        m.cycle(SimTime::from_secs(1));
        assert_eq!(m.history().count(), 0);
        // Violations do — and the log is capped.
        let last = 2 + HISTORY_CAP as u64 + 5;
        for t in 2..=last {
            m.observe_metric("service_up", 0.0, SimTime::from_secs(t));
            m.observe_component(
                ComponentId(1),
                ComponentState::Failed,
                ProcessId(4),
                SimTime::from_secs(t),
            );
            m.cycle(SimTime::from_secs(t));
        }
        let records: Vec<_> = m.history().cloned().collect();
        assert_eq!(records.len(), HISTORY_CAP, "capped");
        assert_eq!(
            records.last().unwrap().at,
            SimTime::from_secs(last),
            "newest kept"
        );
        assert_eq!(
            records[0].at,
            SimTime::from_secs(last + 1 - HISTORY_CAP as u64)
        );
        assert_eq!(records[0].issues, 1);
        assert!(matches!(
            records[0].actions[0],
            AdaptationAction::RestartComponent { .. }
        ));
    }

    #[test]
    fn node_observations_are_kept() {
        let mut m = loop_with_standard_rules();
        m.observe_node(ProcessId(1), true, SimTime::ZERO);
        m.observe_node(ProcessId(2), false, SimTime::ZERO);
        assert_eq!(m.knowledge().nodes_up(), vec![ProcessId(1)]);
    }
}
