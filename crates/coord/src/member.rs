//! Membership state and the SWIM update precedence rules.
//!
//! Every node keeps a local view of the cluster as a map from peer to
//! ([`MemberState`], incarnation). Views converge by exchanging [`Update`]s
//! piggybacked on protocol traffic; conflicts are resolved by the standard
//! SWIM precedence rules implemented in [`MemberInfo::apply`].

use riot_sim::{ProcessId, SimTime};
use std::collections::BTreeMap;

/// A peer's state as locally believed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemberState {
    /// Believed up.
    Alive,
    /// Failed a probe; grace period running.
    Suspect,
    /// Declared failed.
    Dead,
}

/// A disseminated membership assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Update {
    /// The subject node.
    pub node: ProcessId,
    /// Asserted state.
    pub state: MemberState,
    /// The subject's incarnation number the assertion refers to.
    pub incarnation: u64,
}

/// Locally-held facts about one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberInfo {
    /// Current believed state.
    pub state: MemberState,
    /// Highest incarnation seen.
    pub incarnation: u64,
    /// When the state last changed (drives suspicion expiry).
    pub since: SimTime,
}

impl MemberInfo {
    /// Applies an update under SWIM precedence. Returns `true` when the
    /// local view changed.
    ///
    /// Precedence: `Dead{i}` overrides `Alive`/`Suspect` at any incarnation;
    /// `Alive{i}` overrides `Alive{j}`/`Suspect{j}` iff `i > j`, and
    /// overrides `Dead{j}` iff `i > j` (a node that restarts announces a
    /// higher incarnation — the rejoin path); `Suspect{i}` overrides
    /// `Alive{j}` iff `i >= j` and `Suspect{j}` iff `i > j`, never `Dead`.
    pub fn apply(&mut self, update: Update, now: SimTime) -> bool {
        let accept = match (update.state, self.state) {
            (MemberState::Dead, MemberState::Dead) => false,
            (MemberState::Dead, _) => true,
            (MemberState::Alive, _) => update.incarnation > self.incarnation,
            (MemberState::Suspect, MemberState::Alive) => update.incarnation >= self.incarnation,
            (MemberState::Suspect, MemberState::Suspect) => update.incarnation > self.incarnation,
            (MemberState::Suspect, MemberState::Dead) => false,
        };
        if !accept {
            return false;
        }
        let changed = self.state != update.state || self.incarnation != update.incarnation;
        if self.state != update.state {
            self.since = now;
        }
        self.state = update.state;
        self.incarnation = self.incarnation.max(update.incarnation);
        changed
    }
}

/// A node's local membership view.
#[derive(Debug, Clone, Default)]
pub struct MembershipView {
    members: BTreeMap<ProcessId, MemberInfo>,
}

impl MembershipView {
    /// Creates a view seeded with peers believed alive at incarnation 0.
    pub fn seeded(peers: impl IntoIterator<Item = ProcessId>, now: SimTime) -> Self {
        let members = peers
            .into_iter()
            .map(|p| {
                (
                    p,
                    MemberInfo {
                        state: MemberState::Alive,
                        incarnation: 0,
                        since: now,
                    },
                )
            })
            .collect();
        MembershipView { members }
    }

    /// Applies an update; returns `Some(previous_state)` when the view
    /// changed.
    pub fn apply(&mut self, update: Update, now: SimTime) -> Option<MemberState> {
        match self.members.get_mut(&update.node) {
            Some(info) => {
                let before = info.state;
                if info.apply(update, now) {
                    Some(before)
                } else {
                    None
                }
            }
            None => {
                // First time we hear of this node.
                self.members.insert(
                    update.node,
                    MemberInfo {
                        state: update.state,
                        incarnation: update.incarnation,
                        since: now,
                    },
                );
                Some(update.state) // treat as a change from "unknown"
            }
        }
    }

    /// The info held about a peer.
    pub fn get(&self, node: ProcessId) -> Option<&MemberInfo> {
        self.members.get(&node)
    }

    /// Peers currently believed alive, in id order.
    pub fn alive(&self) -> Vec<ProcessId> {
        self.members
            .iter()
            .filter(|(_, i)| i.state == MemberState::Alive)
            .map(|(p, _)| *p)
            .collect()
    }

    /// All `(peer, info)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &MemberInfo)> {
        self.members.iter().map(|(p, i)| (*p, i))
    }

    /// Number of known peers.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when no peer is known.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn info(state: MemberState, inc: u64) -> MemberInfo {
        MemberInfo {
            state,
            incarnation: inc,
            since: T0,
        }
    }

    fn upd(node: usize, state: MemberState, inc: u64) -> Update {
        Update {
            node: ProcessId(node),
            state,
            incarnation: inc,
        }
    }

    #[test]
    fn alive_needs_strictly_higher_incarnation() {
        let mut m = info(MemberState::Alive, 3);
        assert!(!m.apply(upd(0, MemberState::Alive, 3), T0));
        assert!(!m.apply(upd(0, MemberState::Alive, 2), T0));
        assert!(m.apply(upd(0, MemberState::Alive, 4), T0));
        assert_eq!(m.incarnation, 4);
    }

    #[test]
    fn suspect_overrides_alive_at_same_incarnation() {
        let mut m = info(MemberState::Alive, 3);
        assert!(m.apply(upd(0, MemberState::Suspect, 3), T0));
        assert_eq!(m.state, MemberState::Suspect);
        // But not a second time at the same incarnation.
        assert!(!m.apply(upd(0, MemberState::Suspect, 3), T0));
    }

    #[test]
    fn alive_refutes_suspicion_with_higher_incarnation() {
        let mut m = info(MemberState::Suspect, 3);
        assert!(
            !m.apply(upd(0, MemberState::Alive, 3), T0),
            "same incarnation cannot refute"
        );
        assert!(m.apply(upd(0, MemberState::Alive, 4), T0));
        assert_eq!(m.state, MemberState::Alive);
    }

    #[test]
    fn dead_yields_only_to_higher_incarnation_alive() {
        let mut m = info(MemberState::Suspect, 3);
        assert!(
            m.apply(upd(0, MemberState::Dead, 0), T0),
            "confirm at any incarnation"
        );
        assert!(
            !m.apply(upd(0, MemberState::Suspect, 100), T0),
            "suspicion cannot resurrect"
        );
        assert!(
            !m.apply(upd(0, MemberState::Alive, 3), T0),
            "same incarnation cannot resurrect"
        );
        assert!(
            m.apply(upd(0, MemberState::Alive, 4), T0),
            "rejoin with fresh incarnation"
        );
        assert_eq!(m.state, MemberState::Alive);
        assert!(
            m.apply(upd(0, MemberState::Dead, 4), T0),
            "re-confirm allowed"
        );
    }

    #[test]
    fn since_tracks_state_changes_only() {
        let mut m = info(MemberState::Alive, 0);
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        assert!(m.apply(upd(0, MemberState::Alive, 5), t1));
        assert_eq!(m.since, T0, "same state keeps original timestamp");
        assert!(m.apply(upd(0, MemberState::Suspect, 5), t2));
        assert_eq!(m.since, t2);
    }

    #[test]
    fn view_seeding_and_queries() {
        let view = MembershipView::seeded([ProcessId(1), ProcessId(2), ProcessId(3)], T0);
        assert_eq!(view.len(), 3);
        assert_eq!(view.alive(), vec![ProcessId(1), ProcessId(2), ProcessId(3)]);
        assert_eq!(view.get(ProcessId(1)).unwrap().incarnation, 0);
    }

    #[test]
    fn view_apply_reports_previous_state() {
        let mut view = MembershipView::seeded([ProcessId(1)], T0);
        let prev = view.apply(upd(1, MemberState::Suspect, 0), SimTime::from_secs(1));
        assert_eq!(prev, Some(MemberState::Alive));
        let none = view.apply(upd(1, MemberState::Suspect, 0), SimTime::from_secs(2));
        assert_eq!(none, None, "duplicate update is absorbed");
        // Unknown nodes are learned.
        let learned = view.apply(upd(9, MemberState::Alive, 2), T0);
        assert_eq!(learned, Some(MemberState::Alive));
        assert_eq!(view.len(), 2);
    }
}
