//! Runtime verification by formula progression.
//!
//! §IV of the paper calls runtime assurance "naturally a port to runtime of
//! design time representations". A [`Monitor`] carries an LTL formula
//! through an executing trace one state at a time: after each state it
//! *progresses* the formula — rewriting it into the obligation on the rest
//! of the trace — and simplifies. The verdict becomes [`Verdict3::Satisfied`]
//! or [`Verdict3::Violated`] as soon as the residual collapses to a constant;
//! until then it is [`Verdict3::Inconclusive`].
//!
//! [`simplify`]'s normal form keeps the residuals of one property finitely
//! many, so the monitor remembers them: a residual met before is a state of
//! a lazily built automaton, and a step over a `(state, valuation)` pair met
//! before follows a recorded transition instead of rewriting the formula
//! (DESIGN.md §9, "Observed path").
//!
//! The progression relation is exactly consistent with
//! [`Ltl::evaluate`]: for any trace `t`, feeding `t` into a monitor and
//! resolving the residual on the empty suffix gives the same boolean as
//! `φ.evaluate(&t, 0)` — a property-tested invariant.

use crate::ltl::Ltl;
use crate::prop::Valuation;

mod progression;

pub use progression::{progress, simplify};

/// Three-valued runtime verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict3 {
    /// Every extension of the observed prefix satisfies the property.
    Satisfied,
    /// Every extension of the observed prefix violates the property.
    Violated,
    /// The prefix does not yet determine the outcome.
    Inconclusive,
}

impl Verdict3 {
    /// The canonical display name — the exact string scenario monitor
    /// outcomes and campaign oracles report (`"Satisfied"` / `"Violated"`
    /// / `"Inconclusive"`). Kept here so every consumer spells the wire
    /// format identically.
    pub fn name(self) -> &'static str {
        match self {
            Verdict3::Satisfied => "Satisfied",
            Verdict3::Violated => "Violated",
            Verdict3::Inconclusive => "Inconclusive",
        }
    }
}

/// Distinct residuals one monitor interns, and transitions it records per
/// residual. Requirement-shaped properties (`G (!p -> F p)`, `p U q`) reach
/// two or three; a monitor that would pass the cap stops interning and
/// progresses its residual directly, so memory stays bounded by the formula
/// and this constant whatever the property and the trace.
const TABLE_CAP: usize = 64;

/// One state of the automaton: a residual, and the
/// `(valuation & support, successor)` transitions recorded out of it.
#[derive(Debug, Clone)]
struct State {
    residual: Ltl,
    out: Vec<(Valuation, usize)>,
}

/// Where a monitor stands: on an interned residual, or past [`TABLE_CAP`]
/// on one it carries itself.
#[derive(Debug, Clone)]
enum Position {
    Interned(usize),
    Detached(Ltl),
}

/// An online monitor for one LTL property.
///
/// The monitor is a lazily built automaton: its states are the distinct
/// residuals progression has produced so far (in [`simplify`]'s normal form,
/// which keeps them finitely many), and a transition is recorded the first
/// time a residual meets a valuation. Only the atoms the property mentions
/// select a transition, so [`Monitor::step`] on a pair seen before is a
/// table walk that allocates nothing; [`progress`] runs once per new pair.
///
/// # Examples
///
/// ```
/// use riot_formal::{Atoms, Ltl, Monitor, Valuation, Verdict3};
///
/// let mut atoms = Atoms::new();
/// let fail = atoms.intern("failed");
/// let rec = atoms.intern("recovered");
///
/// // Every failure is eventually recovered.
/// let phi = Ltl::responds(Ltl::atom(fail), Ltl::atom(rec));
/// let mut mon = Monitor::new(phi);
///
/// mon.step(Valuation::EMPTY.with(fail));
/// assert_eq!(mon.verdict(), Verdict3::Inconclusive, "recovery still possible");
/// mon.step(Valuation::EMPTY.with(rec));
/// assert_eq!(mon.verdict(), Verdict3::Inconclusive, "future failures may occur");
/// // End of the run: residual obligations resolve on the empty suffix.
/// assert!(mon.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Monitor {
    original: Ltl,
    /// The atoms `original` mentions: the only part of a valuation that can
    /// influence progression, and so the only part a transition is keyed on.
    support: Valuation,
    /// Distinct residuals met so far; `states[0]` is the initial obligation.
    states: Vec<State>,
    position: Position,
    verdict: Verdict3,
    steps: usize,
    /// Steps that progressed the formula instead of following a recorded
    /// transition.
    misses: u64,
}

/// Two monitors are equal when they watch the same property and stand at the
/// same point of it; how much of the automaton each has built, and how much
/// progression that took, is not state.
impl PartialEq for Monitor {
    fn eq(&self, other: &Self) -> bool {
        self.original == other.original
            && self.residual() == other.residual()
            && self.verdict == other.verdict
            && self.steps == other.steps
    }
}

fn verdict_of(residual: &Ltl) -> Verdict3 {
    match residual {
        Ltl::True => Verdict3::Satisfied,
        Ltl::False => Verdict3::Violated,
        _ => Verdict3::Inconclusive,
    }
}

/// The atoms `phi` mentions, as a mask.
fn support(phi: &Ltl) -> Valuation {
    match phi {
        Ltl::True | Ltl::False => Valuation::EMPTY,
        Ltl::Atom(a) => Valuation::EMPTY.with(*a),
        Ltl::Not(f) | Ltl::Next(f) | Ltl::Globally(f) | Ltl::Eventually(f) => support(f),
        Ltl::And(a, b)
        | Ltl::Or(a, b)
        | Ltl::Implies(a, b)
        | Ltl::Until(a, b)
        | Ltl::Release(a, b) => support(a).union(support(b)),
    }
}

impl Monitor {
    /// Creates a monitor for a property.
    pub fn new(phi: Ltl) -> Self {
        let residual = simplify(phi.clone());
        Monitor {
            support: support(&phi),
            original: phi,
            verdict: verdict_of(&residual),
            states: vec![State {
                residual,
                out: Vec::new(),
            }],
            position: Position::Interned(0),
            steps: 0,
            misses: 0,
        }
    }

    /// Consumes one trace state. Returns the verdict after the step.
    /// Further steps after a definite verdict are no-ops.
    pub fn step(&mut self, state: Valuation) -> Verdict3 {
        if self.verdict != Verdict3::Inconclusive {
            return self.verdict;
        }
        self.steps += 1;
        let key = state.intersect(self.support);
        match &mut self.position {
            Position::Interned(at) => {
                let from = *at;
                let recorded = self
                    .states
                    .get(from)
                    .and_then(|s| s.out.iter().find(|(k, _)| *k == key));
                match recorded {
                    Some(&(_, to)) => *at = to,
                    None => self.miss(from, key),
                }
            }
            Position::Detached(residual) => {
                self.misses += 1;
                *residual = progress(residual, key);
            }
        }
        self.verdict = verdict_of(self.residual());
        self.verdict
    }

    /// A `(residual, valuation)` pair met for the first time: progress once,
    /// intern the successor and record the transition — or, with the table
    /// full, carry the successor outside it.
    fn miss(&mut self, from: usize, key: Valuation) {
        self.misses += 1;
        let next = progress(self.residual(), key);
        let to = match self.states.iter().position(|s| s.residual == next) {
            Some(to) => to,
            None if self.states.len() < TABLE_CAP => {
                self.states.push(State {
                    residual: next,
                    out: Vec::with_capacity(2),
                });
                self.states.len() - 1
            }
            None => {
                self.position = Position::Detached(next);
                return;
            }
        };
        if let Some(State { out, .. }) = self.states.get_mut(from) {
            if out.len() < TABLE_CAP {
                out.push((key, to));
            }
        }
        self.position = Position::Interned(to);
    }

    /// The current three-valued verdict.
    pub fn verdict(&self) -> Verdict3 {
        self.verdict
    }

    /// Ends the trace: resolves an inconclusive residual on the empty
    /// suffix and returns the final boolean.
    ///
    /// # Zero-event traces
    ///
    /// A monitor that never consumed a state resolves its *original*
    /// obligation on the empty trace, exactly like
    /// [`Ltl::evaluate`]`(&[], 0)`: `G φ` and `φ R ψ` hold vacuously, `F φ`,
    /// `φ U ψ`, `X φ` and bare atoms fail, and the verdict before `finish`
    /// stays [`Verdict3::Inconclusive`] (an empty prefix determines nothing —
    /// unless the formula simplified to a constant at construction). Online
    /// monitors that watch a run which produced no samples therefore report
    /// the same verdict a post-hoc replay of the empty series would.
    pub fn finish(&self) -> bool {
        match self.verdict {
            Verdict3::Satisfied => true,
            Verdict3::Violated => false,
            Verdict3::Inconclusive => self.residual().accepts_empty(),
        }
    }

    /// The residual obligation.
    pub fn residual(&self) -> &Ltl {
        match &self.position {
            // riot-lint: allow(P1, reason = "an interned position is always an index `miss` or `new` just pushed into `states`, which never shrinks")
            Position::Interned(at) => &self.states[*at].residual,
            Position::Detached(residual) => residual,
        }
    }

    /// Number of states consumed.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Of those steps, the ones that progressed the formula: a pair met for
    /// the first time, or any step once the table is full. The rest followed
    /// a recorded transition; hits are `steps() - misses()`.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{AtomId, Atoms};
    use riot_sim::SimRng;

    fn atoms2() -> (Atoms, AtomId, AtomId) {
        let mut a = Atoms::new();
        let p = a.intern("p");
        let q = a.intern("q");
        (a, p, q)
    }

    fn v(p_on: bool, q_on: bool, p: AtomId, q: AtomId) -> Valuation {
        let mut val = Valuation::EMPTY;
        val.set(p, p_on);
        val.set(q, q_on);
        val
    }

    #[test]
    fn safety_violation_is_definite() {
        let (_, p, q) = atoms2();
        let mut m = Monitor::new(Ltl::atom(p).globally());
        assert_eq!(m.step(v(true, false, p, q)), Verdict3::Inconclusive);
        assert_eq!(m.step(v(false, false, p, q)), Verdict3::Violated);
        // Further input cannot change a definite verdict.
        assert_eq!(m.step(v(true, true, p, q)), Verdict3::Violated);
        assert!(!m.finish());
    }

    #[test]
    fn liveness_satisfaction_is_definite() {
        let (_, p, q) = atoms2();
        let mut m = Monitor::new(Ltl::atom(q).eventually());
        assert_eq!(m.step(v(false, false, p, q)), Verdict3::Inconclusive);
        assert_eq!(m.step(v(false, true, p, q)), Verdict3::Satisfied);
        assert!(m.finish());
    }

    #[test]
    fn globally_stays_inconclusive_and_finishes_true() {
        let (_, p, q) = atoms2();
        let mut m = Monitor::new(Ltl::atom(p).globally());
        for _ in 0..50 {
            assert_eq!(m.step(v(true, false, p, q)), Verdict3::Inconclusive);
        }
        assert!(m.finish(), "no violation observed");
        assert_eq!(m.steps(), 50);
    }

    #[test]
    fn next_progression() {
        let (_, p, q) = atoms2();
        let mut m = Monitor::new(Ltl::atom(q).next());
        assert_eq!(m.step(v(false, false, p, q)), Verdict3::Inconclusive);
        assert_eq!(m.step(v(false, true, p, q)), Verdict3::Satisfied);

        let mut m = Monitor::new(Ltl::atom(q).next());
        m.step(v(false, true, p, q)); // q now is irrelevant to X q
        assert_eq!(m.step(v(false, false, p, q)), Verdict3::Violated);
    }

    #[test]
    fn until_progresses_correctly() {
        let (_, p, q) = atoms2();
        let phi = Ltl::atom(p).until(Ltl::atom(q));
        let mut m = Monitor::new(phi.clone());
        m.step(v(true, false, p, q));
        assert_eq!(m.verdict(), Verdict3::Inconclusive);
        m.step(v(false, false, p, q));
        assert_eq!(m.verdict(), Verdict3::Violated, "p broke before q");

        let mut m = Monitor::new(phi);
        m.step(v(true, false, p, q));
        m.step(v(false, true, p, q));
        assert_eq!(m.verdict(), Verdict3::Satisfied);
    }

    #[test]
    fn responds_pattern_lifecycle() {
        let (_, p, q) = atoms2();
        let mut m = Monitor::new(Ltl::responds(Ltl::atom(p), Ltl::atom(q)));
        m.step(v(false, false, p, q));
        m.step(v(true, false, p, q)); // trigger
        assert_eq!(m.verdict(), Verdict3::Inconclusive);
        assert!(!m.finish(), "pending obligation fails at trace end");
        m.step(v(false, true, p, q)); // response
        assert!(m.finish(), "obligation discharged");
    }

    #[test]
    fn zero_event_trace_has_empty_word_semantics() {
        let (_, p, q) = atoms2();
        let cases: Vec<(Ltl, bool)> = vec![
            (Ltl::atom(p).globally(), true),
            (Ltl::atom(p).eventually(), false),
            (Ltl::atom(p), false),
            (Ltl::atom(p).not(), true),
            (Ltl::atom(p).next(), false),
            (Ltl::atom(p).until(Ltl::atom(q)), false),
            (Ltl::atom(p).release(Ltl::atom(q)), true),
            (Ltl::responds(Ltl::atom(p), Ltl::atom(q)), true),
        ];
        for (phi, expected) in cases {
            let m = Monitor::new(phi.clone());
            assert_eq!(
                m.verdict(),
                Verdict3::Inconclusive,
                "no prefix observed for {phi}"
            );
            assert_eq!(m.steps(), 0);
            assert_eq!(m.finish(), expected, "empty-trace verdict for {phi}");
            assert_eq!(
                m.finish(),
                phi.evaluate(&[], 0),
                "finish agrees with Ltl::evaluate on the empty word for {phi}"
            );
        }
    }

    #[test]
    fn trivial_properties_start_definite() {
        assert_eq!(Monitor::new(Ltl::True).verdict(), Verdict3::Satisfied);
        assert_eq!(Monitor::new(Ltl::False).verdict(), Verdict3::Violated);
        assert_eq!(
            Monitor::new(Ltl::True.and(Ltl::False)).verdict(),
            Verdict3::Violated
        );
    }

    #[test]
    fn simplify_laws() {
        let (_, p, _) = atoms2();
        let a = Ltl::atom(p);
        assert_eq!(simplify(a.clone().and(Ltl::True)), a);
        assert_eq!(simplify(a.clone().and(Ltl::False)), Ltl::False);
        assert_eq!(simplify(a.clone().or(Ltl::True)), Ltl::True);
        assert_eq!(simplify(a.clone().or(Ltl::False)), a);
        assert_eq!(simplify(a.clone().and(a.clone())), a);
        assert_eq!(simplify(a.clone().or(a.clone())), a);
        assert_eq!(simplify(a.clone().not().not()), a);
        assert_eq!(simplify(Ltl::True.not()), Ltl::False);
        assert_eq!(simplify(Ltl::False.implies(a.clone())), Ltl::True);
    }

    #[test]
    fn simplify_is_aci_and_nothing_more() {
        let (_, p, q) = atoms2();
        let (a, b) = (Ltl::atom(p), Ltl::atom(q));
        let c = Ltl::atom(p).eventually();
        // Chains flatten, drop repeats wherever they sit, and come back
        // right-nested in first-occurrence order — for `&` and for `|`.
        assert_eq!(
            simplify(a.clone().and(b.clone().and(a.clone()))),
            a.clone().and(b.clone())
        );
        assert_eq!(
            simplify(a.clone().and(b.clone()).and(b.clone().and(c.clone()))),
            a.clone().and(b.clone().and(c.clone()))
        );
        assert_eq!(
            simplify(c.clone().or(a.clone()).or(c.clone())),
            c.clone().or(a.clone())
        );
        // A chain uncovered by double negation joins its parent's.
        assert_eq!(
            simplify(a.clone().and(b.clone()).not().not().and(a.clone())),
            a.clone().and(b.clone())
        );
        // No complement and no absorption: either could turn a residual
        // constant a step before constant folding does.
        let complement = a.clone().and(a.clone().not());
        assert_eq!(simplify(complement.clone()), complement);
        let absorption = a.clone().and(a.clone().or(b.clone()));
        assert_eq!(simplify(absorption.clone()), absorption);
        // Temporal bodies are left as written.
        let body = a.clone().and(a.clone()).globally();
        assert_eq!(simplify(body.clone()), body);
    }

    /// `X^n f`.
    fn nexts(n: usize, f: Ltl) -> Ltl {
        (0..n).fold(f, |f, _| f.next())
    }

    #[test]
    fn residuals_stay_bounded_and_progress_runs_once_per_pair() {
        let (_, p, q) = atoms2();
        let (a, b) = (Ltl::atom(p), Ltl::atom(q));
        let shapes = [
            Ltl::responds(a.clone().not(), a.clone()),
            Ltl::responds(a.clone().not(), b.clone()),
            Ltl::responds(a.clone(), b.clone()),
            a.clone().not().until(b.clone()),
            a.clone().release(b.clone().not()),
            Ltl::responds(a.clone().not(), a.clone())
                .and(a.clone().not().until(b.clone()).globally()),
        ];
        for phi in shapes {
            let mut m = Monitor::new(phi.clone());
            let mut pairs = std::collections::BTreeSet::new();
            let mut bound = 0;
            for step in 0..10_000 {
                pairs.insert(m.residual().to_string());
                m.step(Valuation::EMPTY);
                let len = m.residual().to_string().len();
                if step < 2 {
                    bound = bound.max(len);
                }
                assert!(len <= bound, "{phi}: residual grew to {len} at step {step}");
            }
            assert_eq!(m.verdict(), Verdict3::Inconclusive, "{phi}");
            assert_eq!(m.steps(), 10_000);
            // One valuation, so the distinct pairs are the distinct states.
            let calls = m.misses();
            assert!(
                calls <= pairs.len() as u64,
                "{phi}: {calls} progressions for {} (state, valuation) pairs",
                pairs.len()
            );
        }
    }

    #[test]
    fn transitions_are_keyed_on_the_atoms_the_property_mentions() {
        let mut atoms = Atoms::new();
        let p = atoms.intern("p");
        let q = atoms.intern("q");
        let r = atoms.intern("r");
        let mut m = Monitor::new(Ltl::responds(Ltl::atom(p).not(), Ltl::atom(q)));
        let mut rng = SimRng::seed_from(7);
        let mut pairs = std::collections::BTreeSet::new();
        for _ in 0..2_000 {
            let mut s = Valuation::EMPTY;
            s.set(p, rng.chance(0.5));
            s.set(q, rng.chance(0.2));
            s.set(r, rng.chance(0.5));
            pairs.insert((m.residual().to_string(), s.contains(p), s.contains(q)));
            m.step(s);
        }
        // `r` is not in the formula: a valuation that differs only there
        // must follow the recorded transition, not mint a new one.
        assert!(pairs.len() <= 2 * 4, "two residuals, four valuations");
        assert!(m.misses() <= pairs.len() as u64);
    }

    #[test]
    fn past_the_table_cap_the_monitor_progresses_directly_with_the_same_verdicts() {
        let (_, p, q) = atoms2();
        // Every `q` opens an obligation due eight states later, so the
        // residuals are the sets of pending deadlines: far more than the cap.
        let phi = Ltl::atom(q)
            .implies(nexts(8, Ltl::atom(p)))
            .globally()
            .and(Ltl::atom(p).not().globally().eventually());
        let mut rng = SimRng::seed_from(99);
        let mut spilled = 0;
        for case in 0..20 {
            // The last traces break a deadline; the rest never do.
            let p_on = if case < 15 { 1.0 } else { 0.9 };
            let trace: Vec<Valuation> = (0..400)
                .map(|_| v(rng.chance(p_on), rng.chance(0.5), p, q))
                .collect();
            let mut m = Monitor::new(phi.clone());
            let mut direct = simplify(phi.clone());
            for (i, s) in trace.iter().enumerate() {
                if !matches!(direct, Ltl::True | Ltl::False) {
                    direct = progress(&direct, *s);
                }
                let (steps, misses) = (m.steps(), m.misses());
                let detached = matches!(m.position, Position::Detached(_));
                assert_eq!(m.step(*s), verdict_of(&direct), "case {case} step {i}");
                if detached && m.steps() > steps {
                    assert_eq!(m.misses(), misses + 1, "a detached step is a miss");
                }
                assert_eq!(m.residual(), &direct, "case {case} step {i}");
                assert!(m.states.len() <= TABLE_CAP);
                assert!(m.states.iter().all(|s| s.out.len() <= TABLE_CAP));
            }
            assert_eq!(m.finish(), phi.evaluate(&trace, 0), "case {case}");
            spilled += usize::from(matches!(m.position, Position::Detached(_)));
        }
        assert!(spilled > 0, "the property must overflow the table");
    }

    /// Random formula generator for the equivalence test.
    fn random_formula(rng: &mut SimRng, depth: usize, p: AtomId, q: AtomId) -> Ltl {
        if depth == 0 {
            return match rng.range_u64(0, 4) {
                0 => Ltl::atom(p),
                1 => Ltl::atom(q),
                2 => Ltl::True,
                _ => Ltl::False,
            };
        }
        match rng.range_u64(0, 10) {
            0 => random_formula(rng, depth - 1, p, q).not(),
            1 => random_formula(rng, depth - 1, p, q).and(random_formula(rng, depth - 1, p, q)),
            2 => random_formula(rng, depth - 1, p, q).or(random_formula(rng, depth - 1, p, q)),
            3 => random_formula(rng, depth - 1, p, q).implies(random_formula(rng, depth - 1, p, q)),
            4 => random_formula(rng, depth - 1, p, q).next(),
            5 => random_formula(rng, depth - 1, p, q).globally(),
            6 => random_formula(rng, depth - 1, p, q).eventually(),
            7 => random_formula(rng, depth - 1, p, q).until(random_formula(rng, depth - 1, p, q)),
            8 => random_formula(rng, depth - 1, p, q).release(random_formula(rng, depth - 1, p, q)),
            _ => Ltl::atom(p),
        }
    }

    #[test]
    fn progression_equals_finite_trace_semantics_on_random_inputs() {
        let (_, p, q) = atoms2();
        let mut rng = SimRng::seed_from(2024);
        for _ in 0..300 {
            let phi = random_formula(&mut rng, 3, p, q);
            let len = rng.range_u64(0, 6) as usize;
            let trace: Vec<Valuation> = (0..len)
                .map(|_| v(rng.chance(0.5), rng.chance(0.5), p, q))
                .collect();
            let expected = phi.evaluate(&trace, 0);
            let mut m = Monitor::new(phi.clone());
            for s in &trace {
                m.step(*s);
            }
            assert_eq!(
                m.finish(),
                expected,
                "monitor disagrees with semantics for {phi} on {trace:?}"
            );
        }
    }
}
