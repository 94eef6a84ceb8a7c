//! The knowledge base: a model of the system kept alive at runtime.
//!
//! §VII-B: "a composite model of the environment must be kept alive at
//! runtime and populated with information as they become available".
//! [`KnowledgeBase`] is that model: timestamped metrics, component
//! lifecycle states, and node liveness — each with a freshness horizon so
//! that analysis distinguishes *stale* knowledge (→ `Unknown` verdicts)
//! from *observed* violations, exactly the uncertainty treatment §V calls
//! for.

use riot_model::{ComponentId, ComponentState, Telemetry};
use riot_sim::{ProcessId, SimDuration, SimTime};
use std::collections::BTreeMap;

/// A timestamped scalar observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// The value.
    pub value: f64,
    /// When it was observed.
    pub at: SimTime,
}

/// The runtime model backing MAPE analysis and planning.
///
/// # Examples
///
/// ```
/// use riot_adapt::KnowledgeBase;
/// use riot_model::Telemetry;
/// use riot_sim::{SimDuration, SimTime};
///
/// let mut kb = KnowledgeBase::new(SimDuration::from_secs(30));
/// kb.record("zone/occupancy", 12.0, SimTime::from_secs(10));
/// kb.set_now(SimTime::from_secs(20));
/// assert_eq!(kb.value("zone/occupancy"), Some(12.0));
/// kb.set_now(SimTime::from_secs(120));
/// assert_eq!(kb.value("zone/occupancy"), None, "stale knowledge is unknown");
/// ```
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    metrics: BTreeMap<String, Observation>,
    components: BTreeMap<ComponentId, (ComponentState, ProcessId, SimTime)>,
    nodes: BTreeMap<ProcessId, (bool, SimTime)>,
    freshness: SimDuration,
    now: SimTime,
}

impl KnowledgeBase {
    /// Creates an empty knowledge base whose observations expire after
    /// `freshness`.
    pub fn new(freshness: SimDuration) -> Self {
        KnowledgeBase {
            metrics: BTreeMap::new(),
            components: BTreeMap::new(),
            nodes: BTreeMap::new(),
            freshness,
            now: SimTime::ZERO,
        }
    }

    /// Advances the knowledge base's notion of "now" (evaluation time).
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// The current evaluation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Records a metric observation, replacing the one held for `metric`.
    /// The name is copied only the first time a metric is seen.
    pub fn record(&mut self, metric: &str, value: f64, at: SimTime) {
        self.now = self.now.max(at);
        let observation = Observation { value, at };
        match self.metrics.get_mut(metric) {
            Some(held) => *held = observation,
            None => {
                self.metrics.insert(metric.to_owned(), observation);
            }
        }
    }

    /// The raw observation for a metric, fresh or not.
    pub fn observation(&self, metric: &str) -> Option<Observation> {
        self.metrics.get(metric).copied()
    }

    /// Age of a metric's last observation at the current time.
    pub fn age(&self, metric: &str) -> Option<SimDuration> {
        self.metrics
            .get(metric)
            .map(|o| self.now.saturating_since(o.at))
    }

    /// Records a component's lifecycle state on a host.
    pub fn set_component(
        &mut self,
        id: ComponentId,
        state: ComponentState,
        host: ProcessId,
        at: SimTime,
    ) {
        self.now = self.now.max(at);
        self.components.insert(id, (state, host, at));
    }

    /// A component's last known state and host.
    pub fn component(&self, id: ComponentId) -> Option<(ComponentState, ProcessId)> {
        self.components.get(&id).map(|(s, h, _)| (*s, *h))
    }

    /// Components currently believed in `state`, in id order.
    pub fn components_in_state(&self, state: ComponentState) -> Vec<(ComponentId, ProcessId)> {
        self.components
            .iter()
            .filter(|(_, (s, _, _))| *s == state)
            .map(|(id, (_, h, _))| (*id, *h))
            .collect()
    }

    /// Records node liveness.
    pub fn set_node(&mut self, node: ProcessId, up: bool, at: SimTime) {
        self.now = self.now.max(at);
        self.nodes.insert(node, (up, at));
    }

    /// A node's last known liveness.
    pub fn node_up(&self, node: ProcessId) -> Option<bool> {
        self.nodes.get(&node).map(|(up, _)| *up)
    }

    /// Nodes believed up, in id order.
    pub fn nodes_up(&self) -> Vec<ProcessId> {
        self.nodes
            .iter()
            .filter(|(_, (up, _))| *up)
            .map(|(n, _)| *n)
            .collect()
    }

    /// Number of metrics held (fresh or stale).
    pub fn metric_count(&self) -> usize {
        self.metrics.len()
    }

    /// Drops observations older than the freshness horizon (bounding memory
    /// on constrained hosts).
    pub fn prune(&mut self) {
        let horizon = self.freshness;
        let now = self.now;
        self.metrics
            .retain(|_, o| now.saturating_since(o.at) <= horizon);
    }
}

impl Telemetry for KnowledgeBase {
    /// A metric is readable only while fresh; stale observations read as
    /// `None`, which requirement evaluation maps to `Verdict::Unknown`.
    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics
            .get(metric)
            .filter(|o| self.now.saturating_since(o.at) <= self.freshness)
            .map(|o| o.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_fresh() {
        let mut kb = KnowledgeBase::new(SimDuration::from_secs(10));
        kb.record("m", 5.0, SimTime::from_secs(1));
        assert_eq!(kb.value("m"), Some(5.0));
        assert_eq!(kb.observation("m").unwrap().value, 5.0);
        assert_eq!(kb.age("m"), Some(SimDuration::ZERO));
        assert_eq!(kb.metric_count(), 1);
    }

    #[test]
    fn a_repeated_record_overwrites_in_place() {
        let mut kb = KnowledgeBase::new(SimDuration::from_secs(10));
        kb.record("m", 5.0, SimTime::from_secs(1));
        kb.record("m", 7.0, SimTime::from_secs(2));
        assert_eq!(kb.metric_count(), 1);
        let newer = Observation {
            value: 7.0,
            at: SimTime::from_secs(2),
        };
        assert_eq!(kb.observation("m"), Some(newer));
    }

    #[test]
    fn staleness_hides_metrics_but_keeps_observation() {
        let mut kb = KnowledgeBase::new(SimDuration::from_secs(10));
        kb.record("m", 5.0, SimTime::from_secs(1));
        kb.set_now(SimTime::from_secs(20));
        assert_eq!(kb.value("m"), None);
        assert!(
            kb.observation("m").is_some(),
            "raw observation still inspectable"
        );
        assert_eq!(kb.age("m"), Some(SimDuration::from_secs(19)));
    }

    #[test]
    fn record_advances_now_monotonically() {
        let mut kb = KnowledgeBase::new(SimDuration::from_secs(10));
        kb.record("a", 1.0, SimTime::from_secs(5));
        kb.record("b", 2.0, SimTime::from_secs(3)); // out-of-order arrival
        assert_eq!(kb.now(), SimTime::from_secs(5), "now never goes backwards");
        assert_eq!(kb.value("b"), Some(2.0));
    }

    #[test]
    fn component_tracking() {
        use riot_model::ComponentState::*;
        let mut kb = KnowledgeBase::new(SimDuration::from_secs(10));
        kb.set_component(ComponentId(1), Running, ProcessId(4), SimTime::ZERO);
        kb.set_component(ComponentId(2), Failed, ProcessId(5), SimTime::ZERO);
        assert_eq!(kb.component(ComponentId(1)), Some((Running, ProcessId(4))));
        assert_eq!(
            kb.components_in_state(Failed),
            vec![(ComponentId(2), ProcessId(5))]
        );
        kb.set_component(ComponentId(2), Running, ProcessId(5), SimTime::from_secs(1));
        assert!(kb.components_in_state(Failed).is_empty());
    }

    #[test]
    fn node_tracking() {
        let mut kb = KnowledgeBase::new(SimDuration::from_secs(10));
        kb.set_node(ProcessId(1), true, SimTime::ZERO);
        kb.set_node(ProcessId(2), false, SimTime::ZERO);
        assert_eq!(kb.node_up(ProcessId(1)), Some(true));
        assert_eq!(kb.node_up(ProcessId(2)), Some(false));
        assert_eq!(kb.node_up(ProcessId(9)), None);
        assert_eq!(kb.nodes_up(), vec![ProcessId(1)]);
    }

    #[test]
    fn prune_drops_stale_observations() {
        let mut kb = KnowledgeBase::new(SimDuration::from_secs(10));
        kb.record("old", 1.0, SimTime::ZERO);
        kb.record("new", 2.0, SimTime::from_secs(50));
        kb.prune();
        assert_eq!(kb.metric_count(), 1);
        assert!(kb.observation("old").is_none());
        assert!(kb.observation("new").is_some());
    }
}
