//! Explicit-state Kripke structures.
//!
//! The verification picture of the paper (Figure 2) checks "a facet of an
//! IoT system model" against "resilience properties". The facet is encoded
//! here as a [`Kripke`] structure: states labeled with [`Valuation`]s and a
//! total transition relation; the properties are CTL ([`crate::Ctl`]) or
//! LTL ([`crate::Ltl`]) formulas.
//!
//! riot-lint: allow-file(P1, reason = "StateId-dense label/successor tables; out-of-range ids are rejected by documented `# Panics` asserts")

use crate::prop::Valuation;
use riot_sim::SimRng;
use std::fmt;

/// Index of a state within a [`Kripke`] structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// An explicit-state Kripke structure with a total transition relation.
///
/// # Examples
///
/// ```
/// use riot_formal::{Atoms, Kripke, Valuation};
///
/// let mut atoms = Atoms::new();
/// let up = atoms.intern("up");
///
/// let mut k = Kripke::new();
/// let s0 = k.add_state(Valuation::EMPTY.with(up));
/// let s1 = k.add_state(Valuation::EMPTY);
/// k.add_transition(s0, s1);
/// k.add_transition(s1, s0);
/// k.add_initial(s0);
/// assert!(k.validate().is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Kripke {
    labels: Vec<Valuation>,
    successors: Vec<Vec<StateId>>,
    initial: Vec<StateId>,
}

impl Kripke {
    /// Creates an empty structure.
    pub fn new() -> Self {
        Kripke::default()
    }

    /// Adds a state with the given labeling; returns its id.
    pub fn add_state(&mut self, label: Valuation) -> StateId {
        let id = StateId(self.labels.len() as u32);
        self.labels.push(label);
        self.successors.push(Vec::new());
        id
    }

    /// Adds a transition (duplicates are ignored).
    ///
    /// # Panics
    ///
    /// Panics if either state is unknown.
    pub fn add_transition(&mut self, from: StateId, to: StateId) {
        assert!(
            from.index() < self.labels.len() && to.index() < self.labels.len(),
            "unknown state"
        );
        let succ = &mut self.successors[from.index()];
        if !succ.contains(&to) {
            succ.push(to);
        }
    }

    /// Marks a state initial (duplicates are ignored).
    ///
    /// # Panics
    ///
    /// Panics if the state is unknown.
    pub fn add_initial(&mut self, s: StateId) {
        assert!(s.index() < self.labels.len(), "unknown state");
        if !self.initial.contains(&s) {
            self.initial.push(s);
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.successors.iter().map(Vec::len).sum()
    }

    /// The labeling of a state.
    pub fn label(&self, s: StateId) -> Valuation {
        self.labels[s.index()]
    }

    /// The successors of a state.
    pub fn successors(&self, s: StateId) -> &[StateId] {
        &self.successors[s.index()]
    }

    /// The initial states.
    pub fn initial(&self) -> &[StateId] {
        &self.initial
    }

    /// Iterates over all state ids.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.labels.len() as u32).map(StateId)
    }

    /// Predecessor lists (computed on demand; used by CTL fixpoints).
    pub fn predecessors(&self) -> Vec<Vec<StateId>> {
        let mut preds = vec![Vec::new(); self.labels.len()];
        for s in self.states() {
            for &t in self.successors(s) {
                preds[t.index()].push(s);
            }
        }
        preds
    }

    /// Checks well-formedness: at least one initial state and a total
    /// transition relation (CTL semantics assume every state has a
    /// successor).
    ///
    /// # Errors
    ///
    /// Returns a [`KripkeDefect`] naming the first problem found.
    pub fn validate(&self) -> Result<(), KripkeDefect> {
        if self.initial.is_empty() {
            return Err(KripkeDefect::NoInitialState);
        }
        for s in self.states() {
            if self.successors(s).is_empty() {
                return Err(KripkeDefect::Deadlock(s));
            }
        }
        Ok(())
    }

    /// Generates a pseudo-random structure with `n` states, out-degree
    /// `degree`, and each atom of `atom_count` true with probability 1/2 —
    /// the workload generator for verification benchmarks (experiment E3).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `degree == 0` or `atom_count > 64`.
    pub fn random(n: usize, degree: usize, atom_count: usize, rng: &mut SimRng) -> Kripke {
        assert!(n > 0 && degree > 0, "need states and transitions");
        assert!(atom_count <= 64, "too many atoms");
        let mut k = Kripke::new();
        for _ in 0..n {
            let mut v = Valuation::EMPTY;
            for a in 0..atom_count as u8 {
                if rng.chance(0.5) {
                    v.set(crate::prop::AtomId(a), true);
                }
            }
            k.add_state(v);
        }
        for s in 0..n {
            // Chain edge guarantees reachability of the whole structure.
            k.add_transition(StateId(s as u32), StateId(((s + 1) % n) as u32));
            for _ in 1..degree {
                let t = rng.range_u64(0, n as u64) as u32;
                k.add_transition(StateId(s as u32), StateId(t));
            }
        }
        k.add_initial(StateId(0));
        k
    }
}

/// A well-formedness defect in a [`Kripke`] structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KripkeDefect {
    /// No initial state was declared.
    NoInitialState,
    /// The given state has no successor.
    Deadlock(StateId),
}

impl fmt::Display for KripkeDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KripkeDefect::NoInitialState => write!(f, "no initial state declared"),
            KripkeDefect::Deadlock(s) => write!(f, "state {s} has no successor"),
        }
    }
}

impl std::error::Error for KripkeDefect {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::Atoms;

    #[test]
    fn build_and_query() {
        let mut atoms = Atoms::new();
        let p = atoms.intern("p");
        let mut k = Kripke::new();
        let s0 = k.add_state(Valuation::EMPTY.with(p));
        let s1 = k.add_state(Valuation::EMPTY);
        k.add_transition(s0, s1);
        k.add_transition(s0, s1); // duplicate ignored
        k.add_transition(s1, s1);
        k.add_initial(s0);
        k.add_initial(s0); // duplicate ignored
        assert_eq!(k.state_count(), 2);
        assert_eq!(k.transition_count(), 2);
        assert!(k.label(s0).contains(p));
        assert_eq!(k.successors(s0), &[s1]);
        assert_eq!(k.initial(), &[s0]);
        assert!(k.validate().is_ok());
    }

    #[test]
    fn validation_finds_defects() {
        let mut k = Kripke::new();
        let s0 = k.add_state(Valuation::EMPTY);
        assert_eq!(k.validate(), Err(KripkeDefect::NoInitialState));
        k.add_initial(s0);
        let deadlock = k.validate().unwrap_err();
        assert_eq!(deadlock, KripkeDefect::Deadlock(s0));
        assert_eq!(deadlock.to_string(), "state s0 has no successor");
        k.add_transition(s0, s0);
        assert!(k.validate().is_ok());
    }

    #[test]
    fn predecessors_invert_successors() {
        let mut k = Kripke::new();
        let s0 = k.add_state(Valuation::EMPTY);
        let s1 = k.add_state(Valuation::EMPTY);
        let s2 = k.add_state(Valuation::EMPTY);
        k.add_transition(s0, s1);
        k.add_transition(s2, s1);
        k.add_transition(s1, s0);
        let preds = k.predecessors();
        assert_eq!(preds[s1.index()], vec![s0, s2]);
        assert_eq!(preds[s0.index()], vec![s1]);
        assert!(preds[s2.index()].is_empty());
    }

    #[test]
    fn random_structures_are_total_and_deterministic() {
        let mut rng1 = SimRng::seed_from(3);
        let k1 = Kripke::random(100, 3, 4, &mut rng1);
        let mut rng2 = SimRng::seed_from(3);
        let k2 = Kripke::random(100, 3, 4, &mut rng2);
        assert!(k1.validate().is_ok());
        assert_eq!(k1.state_count(), k2.state_count());
        assert_eq!(k1.transition_count(), k2.transition_count());
        for s in k1.states() {
            assert_eq!(k1.label(s), k2.label(s));
            assert_eq!(k1.successors(s), k2.successors(s));
        }
    }

    #[test]
    #[should_panic(expected = "unknown state")]
    fn foreign_transition_panics() {
        let mut k = Kripke::new();
        let s0 = k.add_state(Valuation::EMPTY);
        k.add_transition(s0, StateId(9));
    }
}
