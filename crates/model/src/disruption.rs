//! The disruption taxonomy: adverse changes a resilient system must absorb.
//!
//! "Disruption is an adverse change to system stability, which fundamentally
//! affects system requirements" (§I). This module enumerates the concrete
//! change events the paper names — internal faults, connectivity changes,
//! non-persistent control structures, administrative-domain transfers,
//! mobility — and provides time-ordered schedules of them.
//! `riot-core` turns each scheduled [`Disruption`] into a simulator
//! injection.

use crate::domain::DomainId;
use crate::entity::ComponentId;
use riot_sim::{ProcessId, SimDuration, SimTime};

/// One adverse change event.
#[derive(Debug, Clone, PartialEq)]
pub enum Disruption {
    /// A whole node crashes (process down), optionally recovering.
    NodeCrash {
        /// The node.
        node: ProcessId,
        /// Recovery delay; `None` means the node stays down.
        recover_after: Option<SimDuration>,
    },
    /// A single software component on a node fails.
    ComponentFault {
        /// Hosting node.
        node: ProcessId,
        /// Failed component.
        component: ComponentId,
    },
    /// A link degrades: latency multiplied by `factor` until restored.
    LinkDegradation {
        /// One endpoint.
        a: ProcessId,
        /// Other endpoint.
        b: ProcessId,
        /// Latency multiplier (≥ 1).
        factor: f64,
        /// Restoration delay; `None` means the degradation is permanent.
        heal_after: Option<SimDuration>,
    },
    /// One link is cut, optionally healing.
    LinkCut {
        /// One endpoint.
        a: ProcessId,
        /// Other endpoint.
        b: ProcessId,
        /// Healing delay; `None` means the cut is permanent.
        heal_after: Option<SimDuration>,
    },
    /// The cloud becomes unreachable (§II: "connectivity to cloud control
    /// structures may not be persistent").
    CloudOutage {
        /// The cloud node.
        cloud: ProcessId,
        /// Healing delay; `None` means the outage is permanent.
        heal_after: Option<SimDuration>,
    },
    /// The network splits into groups.
    Partition {
        /// The groups; links across groups are cut.
        groups: Vec<Vec<ProcessId>>,
        /// Healing delay; `None` means the partition is permanent.
        heal_after: Option<SimDuration>,
    },
    /// An entity changes administrative domain at runtime.
    DomainTransfer {
        /// Entity key (model-level id).
        entity: u64,
        /// New owning domain.
        to: DomainId,
    },
    /// A device roams to a new parent edge.
    Mobility {
        /// Roaming device.
        device: ProcessId,
        /// New parent.
        new_parent: ProcessId,
    },
}

/// A disruption at a virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct DisruptionEvent {
    /// When it strikes.
    pub at: SimTime,
    /// What happens.
    pub disruption: Disruption,
}

/// A time-ordered schedule of disruptions.
///
/// # Examples
///
/// ```
/// use riot_model::{Disruption, DisruptionSchedule};
/// use riot_sim::{ProcessId, SimDuration, SimTime};
///
/// let schedule = DisruptionSchedule::new()
///     .at(
///         SimTime::from_secs(10),
///         Disruption::NodeCrash { node: ProcessId(3), recover_after: Some(SimDuration::from_secs(5)) },
///     )
///     .at(
///         SimTime::from_secs(5),
///         Disruption::CloudOutage { cloud: ProcessId(0), heal_after: None },
///     );
/// let times: Vec<u64> = schedule.events().iter().map(|e| e.at.as_micros()).collect();
/// assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted by time");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DisruptionSchedule {
    events: Vec<DisruptionEvent>,
}

impl DisruptionSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        DisruptionSchedule::default()
    }

    /// Adds a disruption at a given time (kept sorted).
    pub fn at(mut self, at: SimTime, disruption: Disruption) -> Self {
        self.push(at, disruption);
        self
    }

    /// Adds a disruption at a given time, in place.
    pub fn push(&mut self, at: SimTime, disruption: Disruption) {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, DisruptionEvent { at, disruption });
    }

    /// The events in time order.
    pub fn events(&self) -> &[DisruptionEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no disruption is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Merges another schedule into this one, preserving time order.
    pub fn merge(&mut self, other: DisruptionSchedule) {
        for e in other.events {
            self.push(e.at, e.disruption);
        }
    }

    /// Shifts every event later by `by`, in place. Event order — including
    /// the insertion order among equal timestamps — is preserved, so a
    /// block built at relative time zero can be composed onto an absolute
    /// timeline: build the block, `shift` it to its onset, then
    /// [`merge`](DisruptionSchedule::merge) it. This is the composition
    /// hook `riot-campaign` compiles disruption vectors through.
    pub fn shift(&mut self, by: SimDuration) {
        for e in &mut self.events {
            e.at += by;
        }
    }

    /// Drops every event scheduled at or after `horizon`, in place.
    /// Bounded-scenario composition hook: an event at or past the end of
    /// the run can never fire, so a schedule assembled from generated
    /// blocks clamps to the run duration instead of carrying dead events.
    pub fn clamp_to(&mut self, horizon: SimTime) {
        self.events.retain(|e| e.at < horizon);
    }

    /// The timestamp of the last scheduled event, if any.
    pub fn last_at(&self) -> Option<SimTime> {
        self.events.last().map(|e| e.at)
    }
}

impl IntoIterator for DisruptionSchedule {
    type Item = DisruptionEvent;
    type IntoIter = std::vec::IntoIter<DisruptionEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_keeps_time_order_with_stable_ties() {
        let s = DisruptionSchedule::new()
            .at(
                SimTime::from_secs(2),
                Disruption::NodeCrash {
                    node: ProcessId(1),
                    recover_after: None,
                },
            )
            .at(
                SimTime::from_secs(1),
                Disruption::NodeCrash {
                    node: ProcessId(2),
                    recover_after: None,
                },
            )
            .at(
                SimTime::from_secs(2),
                Disruption::NodeCrash {
                    node: ProcessId(3),
                    recover_after: None,
                },
            );
        let nodes: Vec<usize> = s
            .events()
            .iter()
            .map(|e| match &e.disruption {
                Disruption::NodeCrash { node, .. } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nodes, vec![2, 1, 3], "ties keep insertion order");
    }

    /// Marker helper: a crash of node `n`, used where only identity and
    /// ordering matter.
    fn crash(n: usize) -> Disruption {
        Disruption::NodeCrash {
            node: ProcessId(n),
            recover_after: None,
        }
    }

    /// Extracts the node-id markers in schedule order.
    fn marker_order(s: &DisruptionSchedule) -> Vec<usize> {
        s.events()
            .iter()
            .map(|e| match &e.disruption {
                Disruption::NodeCrash { node, .. } => node.0,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn push_interleaves_out_of_order_inserts_with_stable_ties() {
        // Pushes arrive out of time order, with three ties at t=5 and two
        // at t=1 interleaved between them: the schedule must sort by time
        // while keeping ties in insertion order (partition_point uses
        // `<=`, so an equal timestamp lands *after* its peers).
        let mut s = DisruptionSchedule::new();
        for (t, n) in [(5u64, 50), (1, 10), (5, 51), (0, 0), (5, 52), (1, 11)] {
            s.push(SimTime::from_secs(t), crash(n));
        }
        assert_eq!(marker_order(&s), vec![0, 10, 11, 50, 51, 52]);
        let times: Vec<u64> = s.events().iter().map(|e| e.at.as_micros()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn push_at_front_back_and_existing_boundary() {
        let mut s = DisruptionSchedule::new();
        s.push(SimTime::from_secs(10), crash(1));
        // Before everything, after everything, exactly on an occupied
        // timestamp — the three partition_point boundary cases.
        s.push(SimTime::from_secs(2), crash(2));
        s.push(SimTime::from_secs(99), crash(3));
        s.push(SimTime::from_secs(10), crash(4));
        assert_eq!(marker_order(&s), vec![2, 1, 4, 3]);
    }

    #[test]
    fn shift_preserves_order_and_tie_stability() {
        let mut s = DisruptionSchedule::new();
        for (t, n) in [(3u64, 30), (0, 1), (3, 31)] {
            s.push(SimTime::from_secs(t), crash(n));
        }
        s.shift(SimDuration::from_secs(40));
        assert_eq!(marker_order(&s), vec![1, 30, 31], "order survives shift");
        assert_eq!(s.events()[0].at, SimTime::from_secs(40));
        assert_eq!(s.last_at(), Some(SimTime::from_secs(43)));
        // Shift composes with merge: a second block shifted to the same
        // onset lands after the first block's equal-timestamp events.
        let mut block = DisruptionSchedule::new().at(SimTime::ZERO, crash(32));
        block.shift(SimDuration::from_secs(43));
        s.merge(block);
        assert_eq!(marker_order(&s), vec![1, 30, 31, 32]);
    }

    #[test]
    fn clamp_to_drops_events_at_and_after_horizon() {
        let mut s = DisruptionSchedule::new();
        for (t, n) in [(10u64, 1), (20, 2), (30, 3)] {
            s.push(SimTime::from_secs(t), crash(n));
        }
        s.clamp_to(SimTime::from_secs(20));
        assert_eq!(marker_order(&s), vec![1], "horizon is exclusive");
        s.clamp_to(SimTime::ZERO);
        assert!(s.is_empty());
        assert_eq!(s.last_at(), None);
    }

    #[test]
    fn merge_keeps_time_order() {
        let a = DisruptionSchedule::new().at(
            SimTime::from_secs(1),
            Disruption::DomainTransfer {
                entity: 3,
                to: DomainId(1),
            },
        );
        let mut b = DisruptionSchedule::new().at(
            SimTime::from_secs(2),
            Disruption::Mobility {
                device: ProcessId(4),
                new_parent: ProcessId(1),
            },
        );
        b.merge(a);
        assert_eq!(b.len(), 2);
        assert_eq!(b.events()[0].at, SimTime::from_secs(1));
        assert!(matches!(
            b.events()[0].disruption,
            Disruption::DomainTransfer { entity: 3, .. }
        ));
    }
}
