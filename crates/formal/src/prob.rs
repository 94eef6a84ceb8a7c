//! Probabilistic model checking over discrete-time Markov chains.
//!
//! §IV names "stochastic processes or uncertainty quantification
//! techniques" among the formal tools resilient IoT needs. A [`Dtmc`]
//! models a component or subsystem whose disruptions are probabilistic —
//! e.g. a device that fails with probability `p` per step and is repaired
//! with probability `q` — and the checker answers the PCTL-style queries
//! the roadmap's quantitative properties reduce to:
//!
//! * [`Dtmc::reach_within`] — `P(reach T within k steps)` per state, by
//!   backward value iteration;
//! * [`Dtmc::stationary`] — the long-run state distribution by power
//!   iteration (the fraction of time a component spends failed).
//!
//! riot-lint: allow-file(P1, reason = "row-stochastic matrix kernel: rows are sized to the state count at construction and StateId bounds are assert-checked on entry")

use crate::kripke::StateId;
use std::fmt;

/// A discrete-time Markov chain with dense state indexing.
///
/// # Examples
///
/// A component that fails with probability 0.1 and repairs with 0.6:
///
/// ```
/// use riot_formal::{Dtmc, StateId};
///
/// let mut m = Dtmc::new(2);
/// let up = StateId(0);
/// let down = StateId(1);
/// m.set_transition(up, down, 0.1);
/// m.set_transition(up, up, 0.9);
/// m.set_transition(down, up, 0.6);
/// m.set_transition(down, down, 0.4);
/// m.validate().unwrap();
///
/// // Recovery within 20 steps is almost sure (1 - 0.4^20).
/// let p = m.reach_within(&[up], 20);
/// assert!(p[down.index()] > 0.999);
/// // Long-run availability ≈ 0.857.
/// let pi = m.stationary(10_000);
/// assert!((pi[up.index()] - 6.0 / 7.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Dtmc {
    n: usize,
    /// Row-major transition probabilities: `p[i][j]`.
    rows: Vec<Vec<(usize, f64)>>,
}

/// A defect found by [`Dtmc::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum DtmcDefect {
    /// A row does not sum to 1 (within 1e-9).
    BadRowSum {
        /// The offending state.
        state: u32,
        /// The row's actual sum.
        sum: f64,
    },
    /// A negative probability was set.
    NegativeProbability {
        /// The offending state.
        state: u32,
    },
}

impl fmt::Display for DtmcDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtmcDefect::BadRowSum { state, sum } => {
                write!(
                    f,
                    "state s{state}: outgoing probabilities sum to {sum}, expected 1"
                )
            }
            DtmcDefect::NegativeProbability { state } => {
                write!(f, "state s{state}: negative probability")
            }
        }
    }
}

impl std::error::Error for DtmcDefect {}

impl Dtmc {
    /// Creates a chain with `n` states and no transitions.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a chain needs at least one state");
        Dtmc {
            n,
            rows: vec![Vec::new(); n],
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.n
    }

    /// Sets (or replaces) the probability of `from → to`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range states.
    pub fn set_transition(&mut self, from: StateId, to: StateId, p: f64) {
        assert!(
            from.index() < self.n && to.index() < self.n,
            "state out of range"
        );
        let row = &mut self.rows[from.index()];
        if let Some(entry) = row.iter_mut().find(|(j, _)| *j == to.index()) {
            entry.1 = p;
        } else {
            row.push((to.index(), p));
        }
    }

    /// Checks stochasticity: every row sums to 1 and is non-negative.
    ///
    /// # Errors
    ///
    /// Returns the first defect found.
    pub fn validate(&self) -> Result<(), DtmcDefect> {
        for (i, row) in self.rows.iter().enumerate() {
            if row.iter().any(|(_, p)| *p < 0.0) {
                return Err(DtmcDefect::NegativeProbability { state: i as u32 });
            }
            let sum: f64 = row.iter().map(|(_, p)| p).sum();
            if (sum - 1.0).abs() > 1e-9 {
                return Err(DtmcDefect::BadRowSum {
                    state: i as u32,
                    sum,
                });
            }
        }
        Ok(())
    }

    /// `P(reach any state in `targets` within `k` steps)`, per start state,
    /// by backward value iteration.
    pub fn reach_within(&self, targets: &[StateId], k: usize) -> Vec<f64> {
        let mut v = vec![0.0f64; self.n];
        for t in targets {
            v[t.index()] = 1.0;
        }
        for _ in 0..k {
            let mut next = v.clone();
            for (i, next_i) in next.iter_mut().enumerate() {
                if targets.iter().any(|t| t.index() == i) {
                    continue; // absorbing for the query
                }
                *next_i = self.rows[i].iter().map(|(j, p)| p * v[*j]).sum();
            }
            v = next;
        }
        v
    }

    /// The long-run distribution by power iteration from the uniform
    /// distribution, `sweeps` steps. For irreducible aperiodic chains this
    /// converges to the stationary distribution.
    pub fn stationary(&self, sweeps: usize) -> Vec<f64> {
        let mut pi = vec![1.0 / self.n as f64; self.n];
        for _ in 0..sweeps {
            let mut next = vec![0.0f64; self.n];
            for (i, row) in self.rows.iter().enumerate() {
                for (j, p) in row {
                    next[*j] += pi[i] * p;
                }
            }
            pi = next;
        }
        pi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> StateId {
        StateId(i)
    }

    /// The classic two-state availability model: failure probability
    /// `p_fail` and repair probability `p_repair` per step. State 0 is up,
    /// state 1 is down.
    fn availability_model(p_fail: f64, p_repair: f64) -> Dtmc {
        let mut m = Dtmc::new(2);
        m.set_transition(s(0), s(1), p_fail);
        m.set_transition(s(0), s(0), 1.0 - p_fail);
        m.set_transition(s(1), s(0), p_repair);
        m.set_transition(s(1), s(1), 1.0 - p_repair);
        m
    }

    #[test]
    fn validation_catches_defects() {
        let mut m = Dtmc::new(2);
        m.set_transition(s(0), s(1), 0.5);
        assert!(matches!(
            m.validate(),
            Err(DtmcDefect::BadRowSum { state: 0, .. })
        ));
        m.set_transition(s(0), s(0), 0.5);
        m.set_transition(s(1), s(1), 1.0);
        assert!(m.validate().is_ok());
        m.set_transition(s(1), s(0), -0.1);
        assert!(matches!(
            m.validate(),
            Err(DtmcDefect::NegativeProbability { state: 1 })
        ));
        let err = DtmcDefect::BadRowSum { state: 0, sum: 0.5 };
        assert!(err.to_string().contains("sum to 0.5"));
    }

    #[test]
    fn bounded_reachability_of_availability_model() {
        let m = availability_model(0.1, 0.6);
        m.validate().unwrap();
        // From down, P(up within 1 step) = 0.6.
        let p1 = m.reach_within(&[s(0)], 1);
        assert!((p1[1] - 0.6).abs() < 1e-12);
        // Within 2 steps: 0.6 + 0.4*0.6 = 0.84.
        let p2 = m.reach_within(&[s(0)], 2);
        assert!((p2[1] - 0.84).abs() < 1e-12);
        // From up, already there.
        assert_eq!(p2[0], 1.0);
        // 0 steps: only targets.
        let p0 = m.reach_within(&[s(0)], 0);
        assert_eq!(p0, vec![1.0, 0.0]);
    }

    #[test]
    fn stationary_availability_matches_formula() {
        // π_up = q / (p + q) for fail prob p, repair prob q.
        for (p, q) in [(0.1, 0.6), (0.01, 0.3), (0.5, 0.5)] {
            let m = availability_model(p, q);
            let pi = m.stationary(20_000);
            let expected = q / (p + q);
            assert!(
                (pi[0] - expected).abs() < 1e-9,
                "availability({p},{q}) = {} vs {expected}",
                pi[0]
            );
            assert!((pi[0] + pi[1] - 1.0).abs() < 1e-9, "distribution sums to 1");
        }
    }

    #[test]
    fn three_state_degradation_chain() {
        // Up → Degraded → Failed, with repair from both.
        let mut m = Dtmc::new(3);
        m.set_transition(s(0), s(1), 0.2);
        m.set_transition(s(0), s(0), 0.8);
        m.set_transition(s(1), s(2), 0.3);
        m.set_transition(s(1), s(0), 0.5);
        m.set_transition(s(1), s(1), 0.2);
        m.set_transition(s(2), s(0), 0.4);
        m.set_transition(s(2), s(2), 0.6);
        m.validate().unwrap();
        // Failure is reachable from Up but not certain within 1 step.
        let p = m.reach_within(&[s(2)], 1);
        assert_eq!(p[0], 0.0, "cannot fail directly from up");
        assert!((p[1] - 0.3).abs() < 1e-12);
        // Over a long horizon, failure is almost sure (recurrent chain).
        let p = m.reach_within(&[s(2)], 1_000);
        assert!(p[0] > 1.0 - 1e-6);
        // Long-run: mostly up.
        let pi = m.stationary(50_000);
        assert!(pi[0] > 0.5, "up dominates: {pi:?}");
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bounded_probability_is_monotone_in_k() {
        let m = availability_model(0.2, 0.3);
        let mut last = 0.0;
        for k in 0..20 {
            let p = m.reach_within(&[s(0)], k)[1];
            assert!(p >= last - 1e-15, "monotone in horizon");
            last = p;
        }
        let long_run = m.reach_within(&[s(0)], 1_000)[1];
        assert!(last <= long_run + 1e-12);
    }

    #[test]
    fn set_transition_replaces() {
        let mut m = Dtmc::new(2);
        m.set_transition(s(0), s(1), 0.3);
        m.set_transition(s(0), s(1), 0.7);
        assert_eq!(m.reach_within(&[s(1)], 1)[0], 0.7);
        assert_eq!(m.reach_within(&[s(0)], 1)[1], 0.0);
        assert_eq!(m.state_count(), 2);
    }
}
