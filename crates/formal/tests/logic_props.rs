//! Property tests for the formal toolbox: progression soundness, boolean
//! simplification, LTL dualities, and CTL duality laws on random models.
//!
//! Randomized formulas and traces are drawn from the workspace's own seeded
//! [`SimRng`] rather than `proptest`, so every run explores the same cases —
//! test determinism is part of the determinism policy (`DESIGN.md`).

use riot_formal::{simplify, Atoms, Ctl, CtlChecker, Kripke, Ltl, Monitor, Valuation};
use riot_sim::SimRng;

const CASES: usize = 128;

fn atoms3() -> (
    Atoms,
    riot_formal::AtomId,
    riot_formal::AtomId,
    riot_formal::AtomId,
) {
    let mut a = Atoms::new();
    let p = a.intern("p");
    let q = a.intern("q");
    let r = a.intern("r");
    (a, p, q, r)
}

/// A random LTL formula of bounded depth over three atoms.
fn ltl_formula(rng: &mut SimRng, depth: u32) -> Ltl {
    let (_, p, q, r) = atoms3();
    if depth == 0 || rng.chance(0.25) {
        return match rng.range_u64(0, 5) {
            0 => Ltl::True,
            1 => Ltl::False,
            2 => Ltl::atom(p),
            3 => Ltl::atom(q),
            _ => Ltl::atom(r),
        };
    }
    let d = depth - 1;
    match rng.range_u64(0, 9) {
        0 => ltl_formula(rng, d).not(),
        1 => ltl_formula(rng, d).and(ltl_formula(rng, d)),
        2 => ltl_formula(rng, d).or(ltl_formula(rng, d)),
        3 => ltl_formula(rng, d).implies(ltl_formula(rng, d)),
        4 => ltl_formula(rng, d).next(),
        5 => ltl_formula(rng, d).globally(),
        6 => ltl_formula(rng, d).eventually(),
        7 => ltl_formula(rng, d).until(ltl_formula(rng, d)),
        _ => ltl_formula(rng, d).release(ltl_formula(rng, d)),
    }
}

/// A random trace over the three atoms.
fn trace(rng: &mut SimRng, max_len: usize) -> Vec<Valuation> {
    let (_, p, q, r) = atoms3();
    let n = rng.range_u64(0, max_len as u64) as usize;
    (0..n)
        .map(|_| {
            let mut v = Valuation::EMPTY;
            v.set(p, rng.chance(0.5));
            v.set(q, rng.chance(0.5));
            v.set(r, rng.chance(0.5));
            v
        })
        .collect()
}

/// The crown jewel: the progression monitor agrees with the denotational
/// finite-trace semantics on every formula and every trace.
#[test]
fn monitor_agrees_with_trace_semantics() {
    let mut rng = SimRng::seed_from(0xF0_0001);
    for _ in 0..CASES {
        let phi = ltl_formula(&mut rng, 3);
        let t = trace(&mut rng, 8);
        let expected = phi.evaluate(&t, 0);
        let mut m = Monitor::new(phi);
        for s in &t {
            m.step(*s);
        }
        assert_eq!(m.finish(), expected);
    }
}

/// Boolean simplification never changes meaning, and is a normal form:
/// simplifying twice is simplifying once.
#[test]
fn simplify_preserves_semantics() {
    let mut rng = SimRng::seed_from(0xF0_0002);
    for _ in 0..CASES {
        let phi = ltl_formula(&mut rng, 3);
        let t = trace(&mut rng, 6);
        let simplified = simplify(phi.clone());
        for at in 0..=t.len() {
            assert_eq!(
                phi.evaluate(&t, at),
                simplified.evaluate(&t, at),
                "simplify changed meaning at {at}"
            );
        }
        assert_eq!(
            simplify(simplified.clone()),
            simplified,
            "simplify is not idempotent on {phi}"
        );
        // Note: simplify may grow `Implies` by one node (it desugars to
        // `!a | b`), so no size bound is asserted — only semantics.
    }
}

/// The progression and simplification `Monitor` ran before it kept a table:
/// constant folding plus `a == b` on adjacent operands, re-simplified at
/// every level. Kept verbatim as the reference the table and the ACI normal
/// form are compared against — under names of its own, because riot-lint
/// resolves calls by name and would wire `Monitor::step`'s hot cone into a
/// second `progress` or `step`.
mod oracle {
    use riot_formal::{Ltl, Valuation, Verdict3};

    pub fn old_progress(phi: &Ltl, state: Valuation) -> Ltl {
        let f = match phi {
            Ltl::True => Ltl::True,
            Ltl::False => Ltl::False,
            Ltl::Atom(a) => {
                if state.contains(*a) {
                    Ltl::True
                } else {
                    Ltl::False
                }
            }
            Ltl::Not(f) => old_progress(f, state).not(),
            Ltl::And(a, b) => old_progress(a, state).and(old_progress(b, state)),
            Ltl::Or(a, b) => old_progress(a, state).or(old_progress(b, state)),
            Ltl::Implies(a, b) => old_progress(a, state).not().or(old_progress(b, state)),
            Ltl::Next(f) => (**f).clone(),
            Ltl::Globally(f) => old_progress(f, state).and(phi.clone()),
            Ltl::Eventually(f) => old_progress(f, state).or(phi.clone()),
            Ltl::Until(a, b) => old_progress(b, state).or(old_progress(a, state).and(phi.clone())),
            Ltl::Release(a, b) => {
                old_progress(b, state).and(old_progress(a, state).or(phi.clone()))
            }
        };
        old_simplify(f)
    }

    pub fn old_simplify(phi: Ltl) -> Ltl {
        match phi {
            Ltl::Not(f) => match old_simplify(*f) {
                Ltl::True => Ltl::False,
                Ltl::False => Ltl::True,
                Ltl::Not(inner) => *inner,
                g => g.not(),
            },
            Ltl::And(a, b) => {
                let a = old_simplify(*a);
                let b = old_simplify(*b);
                match (a, b) {
                    (Ltl::False, _) | (_, Ltl::False) => Ltl::False,
                    (Ltl::True, g) | (g, Ltl::True) => g,
                    (a, b) if a == b => a,
                    (a, b) => a.and(b),
                }
            }
            Ltl::Or(a, b) => {
                let a = old_simplify(*a);
                let b = old_simplify(*b);
                match (a, b) {
                    (Ltl::True, _) | (_, Ltl::True) => Ltl::True,
                    (Ltl::False, g) | (g, Ltl::False) => g,
                    (a, b) if a == b => a,
                    (a, b) => a.or(b),
                }
            }
            Ltl::Implies(a, b) => old_simplify(Ltl::Or(Box::new(Ltl::Not(a)), b)),
            other => other,
        }
    }

    fn verdict_of(residual: &Ltl) -> Verdict3 {
        match residual {
            Ltl::True => Verdict3::Satisfied,
            Ltl::False => Verdict3::Violated,
            _ => Verdict3::Inconclusive,
        }
    }

    /// The monitor as it was: one residual, progressed on every step.
    pub struct OldMonitor {
        pub residual: Ltl,
        pub verdict: Verdict3,
        pub steps: usize,
    }

    impl OldMonitor {
        pub fn new(phi: Ltl) -> Self {
            let residual = old_simplify(phi);
            OldMonitor {
                verdict: verdict_of(&residual),
                residual,
                steps: 0,
            }
        }

        pub fn feed(&mut self, state: Valuation) -> Verdict3 {
            if self.verdict != Verdict3::Inconclusive {
                return self.verdict;
            }
            self.steps += 1;
            self.residual = old_progress(&self.residual, state);
            self.verdict = verdict_of(&self.residual);
            self.verdict
        }

        pub fn finish(&self) -> bool {
            match self.verdict {
                Verdict3::Satisfied => true,
                Verdict3::Violated => false,
                Verdict3::Inconclusive => self.residual.accepts_empty(),
            }
        }
    }
}

/// `phi` up to associativity, commutativity and idempotence of `&` and `|`
/// in its boolean skeleton (temporal bodies verbatim, as `simplify` leaves
/// them): chains flattened, operands sorted and deduplicated, a chain of one
/// being its operand. Two formulas with the same key differ by those three
/// laws only.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum AciKey {
    Leaf(String),
    Chain(bool, Vec<AciKey>),
}

fn aci_key(phi: &Ltl) -> AciKey {
    match phi {
        Ltl::And(a, b) | Ltl::Or(a, b) => {
            let conj = matches!(phi, Ltl::And(..));
            let mut operands = Vec::new();
            for side in [a, b] {
                match aci_key(side) {
                    AciKey::Chain(c, inner) if c == conj => operands.extend(inner),
                    key => operands.push(key),
                }
            }
            operands.sort();
            operands.dedup();
            if operands.len() == 1 {
                operands.remove(0)
            } else {
                AciKey::Chain(conj, operands)
            }
        }
        Ltl::Not(f) => AciKey::Leaf(format!("!{:?}", aci_key(f))),
        other => AciKey::Leaf(other.to_string()),
    }
}

/// A trace of up to `max_len` states made of long constant runs — the shape
/// of a sampled requirement series, where an outage holds one valuation for
/// many samples and the old residuals grew by a conjunct a sample.
fn run_trace(rng: &mut SimRng, max_len: usize) -> Vec<Valuation> {
    let (_, p, q, r) = atoms3();
    let n = rng.range_u64(0, max_len as u64 + 1) as usize;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut v = Valuation::EMPTY;
        v.set(p, rng.chance(0.5));
        v.set(q, rng.chance(0.5));
        v.set(r, rng.chance(0.5));
        let run = rng.range_u64(1, 25) as usize;
        out.extend(std::iter::repeat_n(v, run.min(n - out.len())));
    }
    out
}

/// The table-driven monitor over the ACI normal form is the old monitor:
/// same verdict after every state (so the same first-violation and
/// first-satisfaction instants), same step count, same end-of-trace
/// resolution, and a residual that differs from the old one by
/// associativity, commutativity and idempotence only. A rule that collapses
/// more (complement, absorption), or a transition keyed on less than the
/// atoms the formula mentions, breaks one of these.
#[test]
fn table_monitor_matches_the_old_progression() {
    let mut rng = SimRng::seed_from(0xF0_0008);
    let mut definite = 0;
    for case in 0..2_048 {
        let phi = ltl_formula(&mut rng, 4);
        let t = run_trace(&mut rng, 64);
        assert_eq!(
            aci_key(&simplify(phi.clone())),
            aci_key(&oracle::old_simplify(phi.clone())),
            "case {case}: simplify did more than ACI on {phi}"
        );
        let mut old = oracle::OldMonitor::new(phi.clone());
        let mut new = Monitor::new(phi.clone());
        assert_eq!(
            new.verdict(),
            old.verdict,
            "case {case}: {phi} before any state"
        );
        for (i, s) in t.iter().enumerate() {
            assert_eq!(
                new.step(*s),
                old.feed(*s),
                "case {case}: {phi} after state {i}"
            );
            assert_eq!(new.steps(), old.steps, "case {case}: {phi} after state {i}");
            assert_eq!(
                aci_key(new.residual()),
                aci_key(&old.residual),
                "case {case}: {phi} after state {i}"
            );
        }
        assert_eq!(new.finish(), old.finish(), "case {case}: {phi}");
        assert_eq!(new.finish(), phi.evaluate(&t, 0), "case {case}: {phi}");
        definite += usize::from(new.verdict() != riot_formal::Verdict3::Inconclusive);
    }
    assert!(
        (256..1_792).contains(&definite),
        "the sample must mix definite and open verdicts, got {definite}"
    );
}

/// The classical dualities hold under the finite-trace semantics.
#[test]
fn ltl_dualities() {
    let mut rng = SimRng::seed_from(0xF0_0003);
    for _ in 0..CASES {
        let a = ltl_formula(&mut rng, 2);
        let b = ltl_formula(&mut rng, 2);
        let t = trace(&mut rng, 6);
        for at in 0..=t.len() {
            // ¬(a U b) ≡ ¬a R ¬b
            assert_eq!(
                !a.clone().until(b.clone()).evaluate(&t, at),
                a.clone().not().release(b.clone().not()).evaluate(&t, at)
            );
            // G a ≡ false R a ; F a ≡ true U a
            assert_eq!(
                a.clone().globally().evaluate(&t, at),
                Ltl::False.release(a.clone()).evaluate(&t, at)
            );
            assert_eq!(
                a.clone().eventually().evaluate(&t, at),
                Ltl::True.until(a.clone()).evaluate(&t, at)
            );
            // ¬F¬a ≡ G a
            assert_eq!(
                a.clone().not().eventually().not().evaluate(&t, at),
                a.clone().globally().evaluate(&t, at)
            );
        }
    }
}

/// Monitors are prefix-sound: a definite verdict never flips with more
/// input.
#[test]
fn monitor_verdicts_are_stable() {
    use riot_formal::Verdict3;
    let mut rng = SimRng::seed_from(0xF0_0004);
    for _ in 0..CASES {
        let phi = ltl_formula(&mut rng, 3);
        let t = trace(&mut rng, 10);
        let mut m = Monitor::new(phi);
        let mut definite: Option<Verdict3> = None;
        for s in &t {
            let v = m.step(*s);
            if let Some(d) = definite {
                assert_eq!(v, d, "definite verdict flipped");
            } else if v != Verdict3::Inconclusive {
                definite = Some(v);
            }
        }
    }
}

/// Render → parse is the identity on LTL formulas (the parser and the
/// renderer agree on the grammar).
#[test]
fn ltl_render_parse_round_trip() {
    let mut rng = SimRng::seed_from(0xF0_0005);
    for _ in 0..CASES {
        let phi = ltl_formula(&mut rng, 3);
        let (mut atoms, _, _, _) = atoms3();
        let rendered = phi.render(&atoms);
        let reparsed = riot_formal::parse_ltl(&rendered, &mut atoms)
            .unwrap_or_else(|e| panic!("{rendered}: {e}"));
        assert_eq!(phi, reparsed, "{rendered}");
    }
}

/// CTL dualities on random Kripke structures.
#[test]
fn ctl_dualities_on_random_models() {
    let mut meta = SimRng::seed_from(0xF0_0006);
    for _ in 0..CASES {
        let seed = meta.range_u64(0, 500);
        let states = meta.range_u64(10, 60) as usize;
        let mut rng = SimRng::seed_from(seed);
        let k = Kripke::random(states, 3, 2, &mut rng);
        let checker = CtlChecker::new(&k);
        let mut vocab = Atoms::new();
        let p = Ctl::atom(vocab.intern("p0"));
        let pairs = [
            (p.clone().ag(), p.clone().not().ef().not()),
            (p.clone().af(), p.clone().not().eg().not()),
            (p.clone().ax(), p.clone().not().ex().not()),
            (p.clone().ef(), Ctl::True.eu(p.clone())),
        ];
        for (lhs, rhs) in pairs {
            assert_eq!(checker.check(&lhs), checker.check(&rhs), "duality failed");
        }
    }
}

/// `AG φ` implies `φ` everywhere it holds; `φ` implies `EF φ`.
#[test]
fn ctl_fixpoint_sanity() {
    let mut meta = SimRng::seed_from(0xF0_0007);
    for _ in 0..CASES {
        let seed = meta.range_u64(0, 500);
        let mut rng = SimRng::seed_from(seed);
        let k = Kripke::random(40, 3, 2, &mut rng);
        let checker = CtlChecker::new(&k);
        let mut vocab = Atoms::new();
        let p = Ctl::atom(vocab.intern("p0"));
        let ag = checker.check(&p.clone().ag());
        let now = checker.check(&p.clone());
        let ef = checker.check(&p.clone().ef());
        for s in k.states() {
            if ag.contains(s) {
                assert!(now.contains(s), "AG p ⊆ p");
            }
            if now.contains(s) {
                assert!(ef.contains(s), "p ⊆ EF p");
            }
        }
    }
}
