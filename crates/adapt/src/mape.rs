//! The MAPE-K loop: Monitor → Analyze → Plan → Execute over Knowledge.
//!
//! Figure 5 of the paper places the loop's activities across the IoT
//! landscape: *monitoring and execution "may be referred to as sensing and
//! actuation, as they are dominant in the IoT end-devices"*, while
//! *analysis and planning* belong on edge components (or, in the legacy
//! archetype, the cloud). [`MapeLoop`] owns the A and P stages plus the
//! knowledge; the M and E boundaries are the caller's: feed component
//! states in with [`MapeLoop::observe_component`], actuate the
//! [`Restart`]s that [`MapeLoop::cycle`] hands back.

use riot_model::{ComponentId, ComponentState};
use riot_sim::ProcessId;

/// The one adaptation the loop plans: restart a component on its host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Restart {
    /// The component believed failed.
    pub component: ComponentId,
    /// The node hosting it.
    pub host: ProcessId,
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
#[derive(Debug, Clone, Default)]
pub struct MapeLoop {
    /// The knowledge (the K in MAPE-K): each component's last reported
    /// lifecycle state and host, one entry per component observed, sorted
    /// by id.
    components: Vec<(ComponentId, ComponentState, ProcessId)>,
    /// The entry after the last one observed: where an ascending pass over
    /// the scope finds its next component without a search.
    next: usize,
    stats: MapeStats,
}

impl MapeLoop {
    /// A loop with empty knowledge.
    pub fn new() -> Self {
        MapeLoop::default()
    }

    /// Cycle statistics so far.
    pub fn stats(&self) -> MapeStats {
        self.stats
    }

    /// Monitor boundary: `id`, hosted on `host`, is in `state`.
    pub fn observe_component(&mut self, id: ComponentId, state: ComponentState, host: ProcessId) {
        let slot = match self.components.get(self.next) {
            Some(&(next, _, _)) if next == id => Ok(self.next),
            _ => self.components.binary_search_by_key(&id, |&(c, _, _)| c),
        };
        let at = match slot {
            Ok(at) => {
                if let Some(entry) = self.components.get_mut(at) {
                    *entry = (id, state, host);
                }
                at
            }
            Err(at) => {
                self.components.insert(at, (id, state, host));
                at
            }
        };
        self.next = at + 1;
    }

    /// Runs one Analyze+Plan cycle. The scope's one requirement is full
    /// coverage: when `covered` is false, that is one issue, and `execute`
    /// (the E of MAPE) receives a [`Restart`] for every component the
    /// knowledge holds as failed, in id order.
    pub fn cycle(&mut self, covered: bool, mut execute: impl FnMut(Restart)) {
        self.stats.cycles += 1;
        if covered {
            return;
        }
        self.stats.issues_found += 1;
        for &(component, state, host) in &self.components {
            if state == ComponentState::Failed {
                self.stats.actions_planned += 1;
                execute(Restart { component, host });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planned(m: &mut MapeLoop, covered: bool) -> Vec<Restart> {
        let mut restarts = Vec::new();
        m.cycle(covered, |r| restarts.push(r));
        restarts
    }

    #[test]
    fn healthy_system_plans_nothing() {
        let mut m = MapeLoop::new();
        m.observe_component(ComponentId(1), ComponentState::Running, ProcessId(5));
        assert!(planned(&mut m, true).is_empty());
        assert_eq!(
            m.stats(),
            MapeStats {
                cycles: 1,
                issues_found: 0,
                actions_planned: 0
            }
        );
    }

    #[test]
    fn failure_detected_and_repair_planned() {
        let mut m = MapeLoop::new();
        m.observe_component(ComponentId(2), ComponentState::Failed, ProcessId(5));
        assert_eq!(
            planned(&mut m, false),
            vec![Restart {
                component: ComponentId(2),
                host: ProcessId(5)
            }]
        );
        assert_eq!(m.stats().issues_found, 1);
        assert_eq!(m.stats().actions_planned, 1);
    }

    #[test]
    fn restarts_every_failed_component_in_id_order() {
        let mut m = MapeLoop::new();
        m.observe_component(ComponentId(3), ComponentState::Failed, ProcessId(7));
        m.observe_component(ComponentId(2), ComponentState::Running, ProcessId(6));
        m.observe_component(ComponentId(1), ComponentState::Failed, ProcessId(5));
        assert_eq!(
            planned(&mut m, false),
            vec![
                Restart {
                    component: ComponentId(1),
                    host: ProcessId(5)
                },
                Restart {
                    component: ComponentId(3),
                    host: ProcessId(7)
                },
            ]
        );
        assert_eq!(m.stats().actions_planned, 2);
    }

    #[test]
    fn a_covered_scope_plans_nothing_even_with_failed_knowledge() {
        let mut m = MapeLoop::new();
        m.observe_component(ComponentId(1), ComponentState::Failed, ProcessId(5));
        assert!(planned(&mut m, true).is_empty());
        assert_eq!(m.stats().issues_found, 0);
    }

    #[test]
    fn a_satisfied_scope_raises_no_issue_and_an_unsatisfied_one_raises_one() {
        let mut m = MapeLoop::new();
        m.observe_component(ComponentId(1), ComponentState::Failed, ProcessId(5));
        m.observe_component(ComponentId(2), ComponentState::Failed, ProcessId(6));
        for _ in 0..3 {
            assert!(planned(&mut m, true).is_empty());
        }
        assert_eq!(m.stats().cycles, 3);
        assert_eq!(m.stats().issues_found, 0);
        assert_eq!(planned(&mut m, false).len(), 2);
        assert_eq!(
            m.stats(),
            MapeStats {
                cycles: 4,
                issues_found: 1,
                actions_planned: 2
            }
        );
    }

    #[test]
    fn sparse_and_descending_ids_restart_in_id_order_from_a_small_table() {
        let mut m = MapeLoop::new();
        m.observe_component(ComponentId(u32::MAX), ComponentState::Failed, ProcessId(9));
        m.observe_component(ComponentId(0), ComponentState::Failed, ProcessId(1));
        for id in (1..=5u32).rev() {
            let state = if id % 2 == 0 {
                ComponentState::Running
            } else {
                ComponentState::Failed
            };
            m.observe_component(ComponentId(id * 1_000), state, ProcessId(id as usize));
        }
        // An ascending pass over the whole scope, as the host makes one
        // every cycle, changes one verdict and adds nothing.
        for &(id, state, host) in &[
            (0, ComponentState::Failed, 1),
            (1_000, ComponentState::Failed, 1),
            (2_000, ComponentState::Running, 2),
            (3_000, ComponentState::Running, 3),
            (4_000, ComponentState::Running, 4),
            (5_000, ComponentState::Failed, 5),
            (u32::MAX, ComponentState::Failed, 9),
        ] {
            m.observe_component(ComponentId(id), state, ProcessId(host));
        }
        let restarted: Vec<u32> = planned(&mut m, false)
            .iter()
            .map(|r| r.component.0)
            .collect();
        assert_eq!(restarted, vec![0, 1_000, 5_000, u32::MAX]);
        assert_eq!(m.components.len(), 7);
        assert!(
            m.components.capacity() < 64,
            "knowledge grows with the components observed, not the largest id"
        );
    }

    #[test]
    fn a_newer_report_replaces_the_held_state() {
        let mut m = MapeLoop::new();
        m.observe_component(ComponentId(1), ComponentState::Failed, ProcessId(5));
        m.observe_component(ComponentId(1), ComponentState::Running, ProcessId(5));
        assert!(planned(&mut m, false).is_empty());
        assert_eq!(
            m.stats(),
            MapeStats {
                cycles: 1,
                issues_found: 1,
                actions_planned: 0
            }
        );
    }
}
