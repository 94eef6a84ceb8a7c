//! The rule set: token-level checks over scrubbed lines.
//!
//! | id | violation | scope |
//! |----|-----------|-------|
//! | `D1` | `HashMap`/`HashSet` use (unordered iteration) | sim-visible crates |
//! | `D2` | ambient wall-clock (`Instant::now`, `SystemTime::now`) | everywhere |
//! | `D3` | ambient entropy (`thread_rng`, `rand::random`, `RandomState`, ...) | everywhere |
//! | `P1` | panic paths (`.unwrap()`, `.expect(`, `panic!`, bare indexing) | non-test library code |
//! | `A1` | allocating/formatting calls (`format!`, `.to_string()`, `Box::new`, un-pre-sized `Vec::new`/`.collect()`, `.clone()`, …) | functions reachable from a declared hot root |
//! | `P2` | panic paths, transitively | functions reachable from a declared sim-visible entry point |
//!
//! `A1` and `P2` are *reachability-scoped*: their sites only fire inside
//! functions the call-graph pass proves reachable from the roots declared
//! in `lint-hotpaths.toml` (see [`crate::reach`]), and their diagnostics
//! carry the `root → … → site` chain. A `P2` site is excused by either an
//! `allow(P2)` or an `allow(P1)` directive — a reviewed panic invariant
//! covers both the lexical and the transitive rule.
//!
//! `D1` deliberately flags *any* use of the hashed collections, not just
//! loops over them: whether a given map is ever iterated is a whole-program
//! property a lexical pass cannot decide, and the deterministic
//! alternatives (`BTreeMap`/`BTreeSet`) are drop-in for every use in this
//! workspace. A reviewed exception can always be carried via an allow
//! directive.

use crate::RuleId;

/// A single rule finding on one line: `(rule, message, suggestion)`.
pub type Finding = (RuleId, String, String);

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Does `code` contain `tok` as a token? Identifier-boundary checks are
/// applied automatically on whichever ends of `tok` are identifier
/// characters, so `HashMap` does not match `MyHashMapLike` while tokens
/// framed by punctuation (`.unwrap()`) need no extra guard.
fn has_token(code: &str, tok: &str) -> bool {
    let bytes = code.as_bytes();
    let needs_left = tok.bytes().next().is_some_and(is_ident_byte);
    let needs_right = tok.bytes().last().is_some_and(is_ident_byte);
    code.match_indices(tok).any(|(pos, _)| {
        let left_ok =
            !needs_left || pos == 0 || !bytes.get(pos - 1).copied().is_some_and(is_ident_byte);
        let right_ok = !needs_right
            || !bytes
                .get(pos + tok.len())
                .copied()
                .is_some_and(is_ident_byte);
        left_ok && right_ok
    })
}

/// Finds `expr[...]`-style indexing: a `[` immediately preceded (no
/// whitespace — rustfmt never separates them) by a character that ends an
/// expression. Attribute (`#[...]`), macro (`vec![...]`), slice-pattern
/// (`let [a, b] = ..`), array-literal and array-type brackets all follow
/// punctuation or whitespace instead and are not flagged.
fn has_bare_indexing(code: &str) -> bool {
    let mut prev = '\0';
    for c in code.chars() {
        if c == '['
            && (prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']' || prev == '?')
        {
            return true;
        }
        prev = c;
    }
    false
}

/// Runs rule `D1` (hashed collections) against one scrubbed line.
pub fn check_d1(code: &str) -> Option<Finding> {
    for tok in ["HashMap", "HashSet"] {
        if has_token(code, tok) {
            return Some((
                RuleId::D1,
                format!("`{tok}` in a sim-visible crate: iteration order is seeded per-process"),
                "use BTreeMap/BTreeSet (deterministic order), or sort before iterating".into(),
            ));
        }
    }
    None
}

/// Runs rule `D2` (ambient wall-clock time) against one scrubbed line.
pub fn check_d2(code: &str) -> Option<Finding> {
    for tok in ["Instant::now", "SystemTime::now"] {
        if has_token(code, tok) {
            return Some((
                RuleId::D2,
                format!("ambient wall-clock `{tok}()`"),
                "thread SimTime from the simulation clock; operator-facing timing goes through \
                 the benchmark's clock.rs (crates/bench/src/bin/benchmark/)"
                    .into(),
            ));
        }
    }
    None
}

/// Runs rule `D3` (ambient entropy) against one scrubbed line.
pub fn check_d3(code: &str) -> Option<Finding> {
    for tok in [
        "thread_rng",
        "rand::random",
        "RandomState",
        "from_entropy",
        "OsRng",
        "getrandom",
    ] {
        if has_token(code, tok) {
            return Some((
                RuleId::D3,
                format!("ambient entropy source `{tok}`"),
                "draw randomness from riot_sim::SimRng, seeded by the scenario".into(),
            ));
        }
    }
    None
}

/// Runs rule `P1` (panic paths in library code) against one scrubbed line.
pub fn check_p1(code: &str) -> Option<Finding> {
    // Tokens ending in punctuation need no right-boundary check; `.expect(`
    // cannot match `.expect_err(` because the `(` is part of the token.
    for (tok, what) in [
        (".unwrap()", "`.unwrap()`"),
        (".expect(", "`.expect(..)`"),
        ("panic!", "`panic!`"),
        ("todo!", "`todo!`"),
        ("unimplemented!", "`unimplemented!`"),
    ] {
        if has_token(code, tok) {
            return Some((
                RuleId::P1,
                format!("{what} in non-test library code"),
                "return a Result / pattern-match the None case; if the invariant is \
                 structural, annotate: // riot-lint: allow(P1, reason = \"...\")"
                    .into(),
            ));
        }
    }
    if has_bare_indexing(code) {
        return Some((
            RuleId::P1,
            "bare slice/array indexing in non-test library code".into(),
            "use .get()/.get_mut() or an iterator; if the bound is a structural \
             invariant, annotate: // riot-lint: allow(P1, reason = \"...\")"
                .into(),
        ));
    }
    None
}

/// The allocation site tokens rule `A1` looks for in hot-reachable code.
/// `String::new`, `String::with_capacity` and `Vec::with_capacity` are
/// deliberately absent: an empty `String` does not allocate and pre-sized
/// buffers are the *fix* for `A1`, not a violation. `.push(..)` is also
/// absent — amortized growth of a pre-sized buffer is the accepted idiom.
const A1_TOKENS: &[(&str, &str)] = &[
    ("format!", "`format!`"),
    (".to_string()", "`.to_string()`"),
    (".to_owned()", "`.to_owned()`"),
    (".to_vec()", "`.to_vec()`"),
    ("String::from(", "`String::from(..)`"),
    ("Box::new(", "`Box::new(..)`"),
    ("Rc::new(", "`Rc::new(..)`"),
    ("Arc::new(", "`Arc::new(..)`"),
    ("vec!", "`vec!`"),
    ("Vec::new(", "un-pre-sized `Vec::new()`"),
    (".collect(", "`.collect(..)`"),
    (".collect::<", "`.collect::<..>()`"),
    (".clone()", "`.clone()`"),
];

/// Returns the first `A1` (allocation/formatting) site on a scrubbed line,
/// as its human-readable token label.
pub fn a1_site(code: &str) -> Option<&'static str> {
    A1_TOKENS
        .iter()
        .find(|(tok, _)| has_token(code, tok))
        .map(|(_, label)| *label)
}

/// Returns the first `P2` (panic path) site on a scrubbed line. The site
/// set matches `P1` exactly; the difference is the scope (reachability
/// instead of file class).
pub fn p2_site(code: &str) -> Option<&'static str> {
    for (tok, label) in [
        (".unwrap()", "`.unwrap()`"),
        (".expect(", "`.expect(..)`"),
        ("panic!", "`panic!`"),
        ("todo!", "`todo!`"),
        ("unimplemented!", "`unimplemented!`"),
    ] {
        if has_token(code, tok) {
            return Some(label);
        }
    }
    has_bare_indexing(code).then_some("bare indexing")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d1_flags_hash_collections_with_boundaries() {
        assert!(check_d1("use std::collections::HashMap;").is_some());
        assert!(check_d1("let s: HashSet<u32> = x;").is_some());
        assert!(check_d1("struct MyHashMapLike;").is_none());
        assert!(check_d1("let m = BTreeMap::new();").is_none());
    }

    #[test]
    fn d2_flags_ambient_clocks() {
        assert!(check_d2("let t = Instant::now();").is_some());
        assert!(check_d2("let t = std::time::SystemTime::now();").is_some());
        assert!(check_d2("let t = sim.now();").is_none());
    }

    #[test]
    fn d3_flags_ambient_entropy() {
        assert!(check_d3("let mut rng = thread_rng();").is_some());
        assert!(check_d3("let x: f64 = rand::random();").is_some());
        assert!(check_d3("let h = RandomState::new();").is_some());
        assert!(check_d3("let mut rng = SimRng::seed_from(7);").is_none());
    }

    #[test]
    fn p1_flags_panic_paths() {
        assert!(check_p1("let v = map.get(&k).unwrap();").is_some());
        assert!(check_p1("let v = x.expect();").is_some());
        assert!(check_p1("panic!();").is_some());
        // unwrap_or and expect_err are fine.
        assert!(check_p1("let v = o.unwrap_or(0);").is_none());
        assert!(check_p1("let v = r.expect_err();").is_none());
        assert!(check_p1("assert!(o.is_some());").is_none());
    }

    #[test]
    fn p1_indexing_heuristics() {
        assert!(check_p1("let v = xs[i];").is_some());
        assert!(check_p1("let v = grid[r][c];").is_some());
        assert!(check_p1("let v = f()[0];").is_some());
        // Not indexing: attributes, macros, array literals/types, patterns.
        assert!(check_p1("#[derive(Debug)]").is_none());
        assert!(check_p1("let v = vec![1, 2];").is_none());
        assert!(check_p1("let a = [0u8; 4];").is_none());
        assert!(check_p1("let [a, b] = pair;").is_none());
        assert!(check_p1("fn f(x: &[u8]) -> [u8; 2] { g(x) }").is_none());
    }
}
