//! Cold formula progression: everything [`Monitor::step`](super::Monitor::step)
//! does on a table miss (DESIGN.md §9, "Observed path").
//!
//! [`progress`] rewrites a formula into the obligation on the rest of the
//! trace and normalises the result once; [`simplify`] is the normal form.
//! Both build fresh formula trees, which is why they live apart from the
//! table walk in `monitor.rs`.
//!
//! riot-lint: allow-file(A1, reason = "reached from Monitor::step only on a table miss, once per distinct (residual, valuation & support) pair with at most TABLE_CAP distinct residuals per monitor; a monitor past the cap pays one progression per step, the cost every step had before the table")

use crate::ltl::Ltl;
use crate::prop::Valuation;

#[cfg(test)]
thread_local! {
    /// Calls to [`progress`] on this thread: the noise-free measure of
    /// monitoring work the tests bound.
    pub(super) static PROGRESS_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Progresses `φ` through one state: the result is the obligation on the
/// remaining suffix, in [`simplify`]'s normal form.
pub fn progress(phi: &Ltl, state: Valuation) -> Ltl {
    #[cfg(test)]
    PROGRESS_CALLS.with(|c| c.set(c.get() + 1));
    simplify(unfold(phi, state))
}

/// One unfolding of the temporal operators against `state`, not simplified:
/// [`simplify`] is bottom-up, so one pass over the whole result equals a
/// pass at every level.
fn unfold(phi: &Ltl, state: Valuation) -> Ltl {
    match phi {
        Ltl::True => Ltl::True,
        Ltl::False => Ltl::False,
        Ltl::Atom(a) => {
            if state.contains(*a) {
                Ltl::True
            } else {
                Ltl::False
            }
        }
        Ltl::Not(f) => not(unfold(f, state)),
        Ltl::And(a, b) => and(unfold(a, state), unfold(b, state)),
        Ltl::Or(a, b) => or(unfold(a, state), unfold(b, state)),
        Ltl::Implies(a, b) => or(not(unfold(a, state)), unfold(b, state)),
        Ltl::Next(f) => (**f).clone(),
        Ltl::Globally(f) => and(unfold(f, state), phi.clone()),
        Ltl::Eventually(f) => or(unfold(f, state), phi.clone()),
        Ltl::Until(a, b) => or(unfold(b, state), and(unfold(a, state), phi.clone())),
        Ltl::Release(a, b) => and(unfold(b, state), or(unfold(a, state), phi.clone())),
    }
}

// Local constructors, so the hot cone riot-lint derives from `Monitor::step`
// ends in this file instead of running on into `Ltl`'s builder methods.
fn not(f: Ltl) -> Ltl {
    Ltl::Not(Box::new(f))
}

fn and(a: Ltl, b: Ltl) -> Ltl {
    Ltl::And(Box::new(a), Box::new(b))
}

fn or(a: Ltl, b: Ltl) -> Ltl {
    Ltl::Or(Box::new(a), Box::new(b))
}

/// Boolean normal form, applied bottom-up to the boolean skeleton (the
/// bodies of temporal operators are left as written): constants are folded,
/// double negation is removed, `a -> b` becomes `!a | b`, and every chain of
/// `&` (or of `|`) is flattened, stripped of repeated operands and rebuilt
/// right-nested in first-occurrence order.
///
/// Those are the associativity, commutativity and idempotence laws and
/// nothing else — no complement (`a & !a`), no absorption (`a & (a | b)`) —
/// so a formula simplifies to a constant exactly when constant folding alone
/// would have made it one, and a [`Monitor`](super::Monitor)'s verdict turns
/// definite on the same step with or without the normal form. What the
/// normal form buys is a bound: the operands of a progressed chain are
/// progressions of subformulas of the monitored property, so residuals are
/// drawn from a finite set and an open obligation (`F c & (F c & … φ)`)
/// cannot grow by a conjunct a step. The function is idempotent.
pub fn simplify(phi: Ltl) -> Ltl {
    match phi {
        Ltl::Not(f) => match simplify(*f) {
            Ltl::True => Ltl::False,
            Ltl::False => Ltl::True,
            Ltl::Not(inner) => *inner,
            g => not(g),
        },
        Ltl::And(a, b) => match (simplify(*a), simplify(*b)) {
            (Ltl::False, _) | (_, Ltl::False) => Ltl::False,
            (Ltl::True, g) | (g, Ltl::True) => g,
            (a, b) => chain(true, a, b),
        },
        Ltl::Or(a, b) => match (simplify(*a), simplify(*b)) {
            (Ltl::True, _) | (_, Ltl::True) => Ltl::True,
            (Ltl::False, g) | (g, Ltl::False) => g,
            (a, b) => chain(false, a, b),
        },
        Ltl::Implies(a, b) => simplify(Ltl::Or(Box::new(Ltl::Not(a)), b)),
        other => other,
    }
}

/// Joins two normal-form, non-constant operands under `&` (`conj`) or `|`:
/// the distinct operands of both chains, right-nested.
fn chain(conj: bool, a: Ltl, b: Ltl) -> Ltl {
    let mut operands = Vec::with_capacity(4);
    flatten(conj, a, &mut operands);
    flatten(conj, b, &mut operands);
    let join = if conj { and } else { or };
    let unit = if conj { Ltl::True } else { Ltl::False };
    operands
        .into_iter()
        .rev()
        .reduce(|tail, head| join(head, tail))
        .unwrap_or(unit)
}

/// Appends the operands of a normal-form chain to `out`, skipping the ones
/// already there.
fn flatten(conj: bool, f: Ltl, out: &mut Vec<Ltl>) {
    match f {
        Ltl::And(a, b) if conj => {
            flatten(conj, *a, out);
            flatten(conj, *b, out);
        }
        Ltl::Or(a, b) if !conj => {
            flatten(conj, *a, out);
            flatten(conj, *b, out);
        }
        operand => {
            if !out.contains(&operand) {
                out.push(operand);
            }
        }
    }
}
