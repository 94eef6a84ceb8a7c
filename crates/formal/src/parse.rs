//! Textual syntax for LTL and CTL formulas.
//!
//! Properties live in requirement documents, not Rust source; a parser lets
//! them be written the way the literature writes them:
//!
//! ```text
//! LTL:  G (component_failed -> F component_recovered)
//! CTL:  AG EF serving          E[degraded U repaired]
//! ```
//!
//! Grammar (precedence, loosest to tightest): `->` (right-assoc), `|`,
//! `&`, `U`/`R` (right-assoc, LTL only), prefix unaries (`!`, `X`, `F`,
//! `G` for LTL; `!`, `EX`, `AX`, `EF`, `AF`, `EG`, `AG` for CTL),
//! `E[φ U ψ]` / `A[φ U ψ]` (CTL), atoms, `true`, `false`, parentheses.
//! Identifiers match `[A-Za-z_][A-Za-z0-9_./]*` and are interned into the
//! supplied [`Atoms`] vocabulary (keywords are reserved). A formula has at
//! most 256 operators and atoms, and its brackets nest at most 256 deep.
//!
//! riot-lint: allow-file(P1, reason = "recursive-descent parser: expect() is this parser's own Result-returning method, and byte-cursor indexing is bounded by the enclosing i < len loop conditions")

use crate::ctl::Ctl;
use crate::ltl::Ltl;
use crate::prop::{AtomId, Atoms, MAX_ATOMS};
use std::fmt;

/// A parse failure with its character position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the problem was noticed.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Most operators and atoms one formula may have, and the deepest its
/// brackets may nest. The first bounds the depth of the parsed tree, and so
/// of every walk over it (render, simplify, progression, drop); the second
/// bounds the descent below through redundant brackets. Hostile text such
/// as 10⁵ nested parentheses is an error, not a stack overflow. Both hold
/// for a formula's rendering when they hold for its text: rendering keeps
/// every operator and atom and opens at most one bracket per operator.
/// Requirement formulas have tens.
const MAX_NODES: usize = 256;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    True,
    False,
    Not,
    And,
    Or,
    Implies,
    LParen,
    RParen,
    LBracket,
    RBracket,
    // LTL temporal
    Next,
    Finally,
    Globally,
    Until,
    Release,
    // CTL quantified
    Ex,
    Ax,
    Ef,
    Af,
    Eg,
    Ag,
    E,
    A,
}

fn lex(input: &str) -> Result<Vec<(usize, Token)>, ParseError> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                out.push((i, Token::LParen));
                i += 1;
            }
            ')' => {
                out.push((i, Token::RParen));
                i += 1;
            }
            '[' => {
                out.push((i, Token::LBracket));
                i += 1;
            }
            ']' => {
                out.push((i, Token::RBracket));
                i += 1;
            }
            '!' => {
                out.push((i, Token::Not));
                i += 1;
            }
            '&' => {
                out.push((i, Token::And));
                i += 1;
            }
            '|' => {
                out.push((i, Token::Or));
                i += 1;
            }
            '-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    out.push((i, Token::Implies));
                    i += 2;
                } else {
                    return Err(ParseError {
                        position: i,
                        message: "expected '->'".into(),
                    });
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '/') {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let word = &input[start..i];
                let token = match word {
                    "true" => Token::True,
                    "false" => Token::False,
                    "X" => Token::Next,
                    "F" => Token::Finally,
                    "G" => Token::Globally,
                    "U" => Token::Until,
                    "R" => Token::Release,
                    "EX" => Token::Ex,
                    "AX" => Token::Ax,
                    "EF" => Token::Ef,
                    "AF" => Token::Af,
                    "EG" => Token::Eg,
                    "AG" => Token::Ag,
                    "E" => Token::E,
                    "A" => Token::A,
                    _ => Token::Ident(word.to_owned()),
                };
                out.push((start, token));
            }
            other => {
                return Err(ParseError {
                    position: i,
                    message: format!("unexpected character '{other}'"),
                })
            }
        }
    }
    let (mut nodes, mut open) = (0, 0usize);
    for &(position, ref token) in &out {
        let message = match token {
            Token::LParen | Token::LBracket => {
                open += 1;
                "brackets nested deeper than"
            }
            Token::RParen | Token::RBracket => {
                open = open.saturating_sub(1);
                continue;
            }
            _ => {
                nodes += 1;
                "more operators and atoms than"
            }
        };
        if nodes > MAX_NODES || open > MAX_NODES {
            return Err(ParseError {
                position,
                message: format!("{message} {MAX_NODES}"),
            });
        }
    }
    Ok(out)
}

struct Parser<'a> {
    tokens: Vec<(usize, Token)>,
    pos: usize,
    atoms: &'a mut Atoms,
    input_len: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(_, t)| t)
    }

    fn here(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|(p, _)| *p)
            .unwrap_or(self.input_len)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: Token, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(&want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError {
                position: self.here(),
                message: format!("expected {what}"),
            })
        }
    }

    /// Interns an identifier met at `position`. The vocabulary's cap is a
    /// parse error here: formula text comes from outside the program, and
    /// [`Atoms::intern`] panics past it.
    fn atom(&mut self, name: &str, position: usize) -> Result<AtomId, ParseError> {
        if self.atoms.lookup(name).is_none() && self.atoms.len() >= MAX_ATOMS {
            return Err(ParseError {
                position,
                message: format!("more than {MAX_ATOMS} atomic propositions"),
            });
        }
        Ok(self.atoms.intern(name))
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            position: self.here(),
            message: message.into(),
        })
    }

    // ---------------- LTL ----------------

    fn ltl_implies(&mut self) -> Result<Ltl, ParseError> {
        let lhs = self.ltl_or()?;
        if self.peek() == Some(&Token::Implies) {
            self.pos += 1;
            let rhs = self.ltl_implies()?;
            Ok(lhs.implies(rhs))
        } else {
            Ok(lhs)
        }
    }

    fn ltl_or(&mut self) -> Result<Ltl, ParseError> {
        let mut f = self.ltl_and()?;
        while self.peek() == Some(&Token::Or) {
            self.pos += 1;
            f = f.or(self.ltl_and()?);
        }
        Ok(f)
    }

    fn ltl_and(&mut self) -> Result<Ltl, ParseError> {
        let mut f = self.ltl_until()?;
        while self.peek() == Some(&Token::And) {
            self.pos += 1;
            f = f.and(self.ltl_until()?);
        }
        Ok(f)
    }

    fn ltl_until(&mut self) -> Result<Ltl, ParseError> {
        let lhs = self.ltl_unary()?;
        match self.peek() {
            Some(Token::Until) => {
                self.pos += 1;
                Ok(lhs.until(self.ltl_until()?))
            }
            Some(Token::Release) => {
                self.pos += 1;
                Ok(lhs.release(self.ltl_until()?))
            }
            _ => Ok(lhs),
        }
    }

    fn ltl_unary(&mut self) -> Result<Ltl, ParseError> {
        match self.peek() {
            Some(Token::Not) => {
                self.pos += 1;
                Ok(self.ltl_unary()?.not())
            }
            Some(Token::Next) => {
                self.pos += 1;
                Ok(self.ltl_unary()?.next())
            }
            Some(Token::Finally) => {
                self.pos += 1;
                Ok(self.ltl_unary()?.eventually())
            }
            Some(Token::Globally) => {
                self.pos += 1;
                Ok(self.ltl_unary()?.globally())
            }
            _ => self.ltl_atom(),
        }
    }

    fn ltl_atom(&mut self) -> Result<Ltl, ParseError> {
        let position = self.here();
        match self.bump() {
            Some(Token::True) => Ok(Ltl::True),
            Some(Token::False) => Ok(Ltl::False),
            Some(Token::Ident(name)) => Ok(Ltl::atom(self.atom(&name, position)?)),
            Some(Token::LParen) => {
                let f = self.ltl_implies()?;
                self.expect(Token::RParen, "')'")?;
                Ok(f)
            }
            other => Err(ParseError {
                position,
                message: format!("expected an LTL atom, got {other:?}"),
            }),
        }
    }

    // ---------------- CTL ----------------

    fn ctl_implies(&mut self) -> Result<Ctl, ParseError> {
        let lhs = self.ctl_or()?;
        if self.peek() == Some(&Token::Implies) {
            self.pos += 1;
            let rhs = self.ctl_implies()?;
            Ok(lhs.implies(rhs))
        } else {
            Ok(lhs)
        }
    }

    fn ctl_or(&mut self) -> Result<Ctl, ParseError> {
        let mut f = self.ctl_and()?;
        while self.peek() == Some(&Token::Or) {
            self.pos += 1;
            f = f.or(self.ctl_and()?);
        }
        Ok(f)
    }

    fn ctl_and(&mut self) -> Result<Ctl, ParseError> {
        let mut f = self.ctl_unary()?;
        while self.peek() == Some(&Token::And) {
            self.pos += 1;
            f = f.and(self.ctl_unary()?);
        }
        Ok(f)
    }

    fn ctl_unary(&mut self) -> Result<Ctl, ParseError> {
        macro_rules! prefix {
            ($method:ident) => {{
                self.pos += 1;
                Ok(self.ctl_unary()?.$method())
            }};
        }
        match self.peek() {
            Some(Token::Not) => prefix!(not),
            Some(Token::Ex) => prefix!(ex),
            Some(Token::Ax) => prefix!(ax),
            Some(Token::Ef) => prefix!(ef),
            Some(Token::Af) => prefix!(af),
            Some(Token::Eg) => prefix!(eg),
            Some(Token::Ag) => prefix!(ag),
            Some(Token::E) => self.ctl_quantified_until(true),
            Some(Token::A) => self.ctl_quantified_until(false),
            _ => self.ctl_atom(),
        }
    }

    fn ctl_quantified_until(&mut self, existential: bool) -> Result<Ctl, ParseError> {
        self.pos += 1; // E or A
        self.expect(Token::LBracket, "'[' after path quantifier")?;
        let lhs = self.ctl_implies()?;
        self.expect(Token::Until, "'U' inside E[...]/A[...]")?;
        let rhs = self.ctl_implies()?;
        self.expect(Token::RBracket, "']'")?;
        Ok(if existential {
            lhs.eu(rhs)
        } else {
            lhs.au(rhs)
        })
    }

    fn ctl_atom(&mut self) -> Result<Ctl, ParseError> {
        let position = self.here();
        match self.bump() {
            Some(Token::True) => Ok(Ctl::True),
            Some(Token::False) => Ok(Ctl::False),
            Some(Token::Ident(name)) => Ok(Ctl::atom(self.atom(&name, position)?)),
            Some(Token::LParen) => {
                let f = self.ctl_implies()?;
                self.expect(Token::RParen, "')'")?;
                Ok(f)
            }
            other => Err(ParseError {
                position,
                message: format!("expected a CTL atom, got {other:?}"),
            }),
        }
    }

    fn finish<T>(&self, value: T) -> Result<T, ParseError> {
        if self.pos == self.tokens.len() {
            Ok(value)
        } else {
            self.err("trailing input after formula")
        }
    }
}

/// Parses an LTL formula, interning atom names into `atoms`.
///
/// # Errors
///
/// Returns a [`ParseError`] with position and message on malformed input.
///
/// # Examples
///
/// ```
/// use riot_formal::{parse_ltl, Atoms};
///
/// let mut atoms = Atoms::new();
/// let phi = parse_ltl("G (failed -> F recovered)", &mut atoms).unwrap();
/// assert_eq!(phi.render(&atoms), "G (failed -> F recovered)");
/// ```
pub fn parse_ltl(input: &str, atoms: &mut Atoms) -> Result<Ltl, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        atoms,
        input_len: input.len(),
    };
    let f = p.ltl_implies()?;
    p.finish(f)
}

/// Parses a CTL formula, interning atom names into `atoms`.
///
/// # Errors
///
/// Returns a [`ParseError`] with position and message on malformed input.
///
/// # Examples
///
/// ```
/// use riot_formal::{parse_ctl, Atoms};
///
/// let mut atoms = Atoms::new();
/// let phi = parse_ctl("AG EF serving", &mut atoms).unwrap();
/// assert_eq!(phi.render(&atoms), "AG EF serving");
/// ```
pub fn parse_ctl(input: &str, atoms: &mut Atoms) -> Result<Ctl, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        atoms,
        input_len: input.len(),
    };
    let f = p.ctl_implies()?;
    p.finish(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::Valuation;
    use riot_sim::SimRng;

    const LTL_SOURCES: [&str; 8] = [
        "G (failed -> F recovered)",
        "(a U b)",
        "(a R b)",
        "X X done",
        "!(a & b)",
        "((a | b) & c)",
        "true",
        "F false",
    ];

    const CTL_SOURCES: [&str; 6] = [
        "AG EF up",
        "E[degraded U repaired]",
        "A[true U served]",
        "AG (fault -> AF repaired)",
        "!(EX down)",
        "EG (a & b)",
    ];

    #[test]
    fn ltl_round_trips_through_render() {
        let mut atoms = Atoms::new();
        for src in LTL_SOURCES {
            let f = parse_ltl(src, &mut atoms).unwrap_or_else(|e| panic!("{src}: {e}"));
            // Re-parsing the rendering yields the same AST.
            let rendered = f.render(&atoms);
            let f2 = parse_ltl(&rendered, &mut atoms).unwrap();
            assert_eq!(f, f2, "{src} → {rendered}");
        }
    }

    #[test]
    fn ltl_precedence() {
        let mut atoms = Atoms::new();
        // -> is loosest and right-assoc: a -> b -> c == a -> (b -> c)
        let f = parse_ltl("a -> b -> c", &mut atoms).unwrap();
        let expect = parse_ltl("a -> (b -> c)", &mut atoms).unwrap();
        assert_eq!(f, expect);
        // & binds tighter than |
        let f = parse_ltl("a | b & c", &mut atoms).unwrap();
        let expect = parse_ltl("a | (b & c)", &mut atoms).unwrap();
        assert_eq!(f, expect);
        // U binds tighter than &
        let f = parse_ltl("a & b U c", &mut atoms).unwrap();
        let expect = parse_ltl("a & (b U c)", &mut atoms).unwrap();
        assert_eq!(f, expect);
        // prefix G applies to the nearest operand
        let f = parse_ltl("G a & b", &mut atoms).unwrap();
        let expect = parse_ltl("(G a) & b", &mut atoms).unwrap();
        assert_eq!(f, expect);
    }

    #[test]
    fn parsed_ltl_evaluates_correctly() {
        let mut atoms = Atoms::new();
        let phi = parse_ltl("G (p -> F q)", &mut atoms).unwrap();
        let p = atoms.lookup("p").unwrap();
        let q = atoms.lookup("q").unwrap();
        let good = vec![
            Valuation::EMPTY.with(p),
            Valuation::EMPTY,
            Valuation::EMPTY.with(q),
        ];
        let bad = vec![Valuation::EMPTY.with(p), Valuation::EMPTY];
        assert!(phi.evaluate(&good, 0));
        assert!(!phi.evaluate(&bad, 0));
    }

    #[test]
    fn ctl_round_trips_through_render() {
        let mut atoms = Atoms::new();
        for src in CTL_SOURCES {
            let f = parse_ctl(src, &mut atoms).unwrap_or_else(|e| panic!("{src}: {e}"));
            let rendered = f.render(&atoms);
            let f2 = parse_ctl(&rendered, &mut atoms).unwrap();
            assert_eq!(f, f2, "{src} → {rendered}");
        }
    }

    #[test]
    fn parsed_ctl_checks_correctly() {
        use crate::ctl::CtlChecker;
        use crate::kripke::Kripke;
        let mut atoms = Atoms::new();
        let phi = parse_ctl("AG EF up", &mut atoms).unwrap();
        let up = atoms.lookup("up").unwrap();
        let mut k = Kripke::new();
        let s0 = k.add_state(Valuation::EMPTY.with(up));
        let s1 = k.add_state(Valuation::EMPTY);
        k.add_transition(s0, s1);
        k.add_transition(s1, s0);
        k.add_initial(s0);
        assert!(CtlChecker::new(&k).holds_initially(&phi));
    }

    #[test]
    fn errors_carry_positions() {
        let mut atoms = Atoms::new();
        let e = parse_ltl("G (a -> ", &mut atoms).unwrap_err();
        assert_eq!(e.position, 8);
        let e = parse_ltl("a @ b", &mut atoms).unwrap_err();
        assert_eq!(e.position, 2);
        assert!(e.to_string().contains("unexpected character"));
        let e = parse_ltl("a b", &mut atoms).unwrap_err();
        assert!(e.message.contains("trailing"));
        let e = parse_ltl("a -", &mut atoms).unwrap_err();
        assert!(e.message.contains("'->'"));
        let e = parse_ctl("E[a F b]", &mut atoms).unwrap_err();
        assert!(e.message.contains("'U'"));
        let e = parse_ctl("E a U b", &mut atoms).unwrap_err();
        assert!(e.message.contains("'['"));
        // The vocabulary's cap is an error at the atom that passes it, not
        // the panic `Atoms::intern` raises there.
        let wide: Vec<String> = (0..=MAX_ATOMS).map(|i| format!("p{i}")).collect();
        let e = parse_ltl(&wide.join(" & "), &mut Atoms::new()).unwrap_err();
        assert!(e.message.contains("atomic propositions"), "{e}");
        assert_eq!(e.position, wide.join(" & ").rfind('p').unwrap());
    }

    #[test]
    fn formulas_past_the_size_cap_are_errors_not_stack_overflows() {
        let deep = format!("{}a{}", "(".repeat(100_000), ")".repeat(100_000));
        let e = parse_ltl(&deep, &mut Atoms::new()).unwrap_err();
        assert_eq!(e.position, MAX_NODES, "{e}");
        assert!(e.message.contains("nested"), "{e}");
        let e = parse_ctl(&"AG ".repeat(100_000), &mut Atoms::new()).unwrap_err();
        assert_eq!(e.position, 3 * MAX_NODES, "{e}");
        let chain = vec!["a"; 100_000].join(" & ");
        let e = parse_ltl(&chain, &mut Atoms::new()).unwrap_err();
        assert_eq!(e.position, 2 * MAX_NODES, "{e}");
        // At the cap a formula parses, and its rendering — a bracket per
        // operator — reads back to it.
        let mut atoms = Atoms::new();
        let deepest = format!("{}a", "!".repeat(MAX_NODES - 1));
        let f = parse_ltl(&deepest, &mut atoms).expect("at the cap");
        assert_eq!(parse_ltl(&f.render(&atoms), &mut atoms), Ok(f));
        let f = parse_ctl(&format!("{}a", "AG ".repeat(MAX_NODES - 1)), &mut atoms);
        let f = f.expect("at the cap");
        assert_eq!(parse_ctl(&f.render(&atoms), &mut atoms), Ok(f));
    }

    #[test]
    fn dotted_identifiers_are_atoms() {
        let mut atoms = Atoms::new();
        let f = parse_ltl("G ctl.latency_ok", &mut atoms).unwrap();
        assert!(atoms.lookup("ctl.latency_ok").is_some());
        assert_eq!(f.render(&atoms), "G ctl.latency_ok");
    }

    #[test]
    fn keywords_are_reserved() {
        let mut atoms = Atoms::new();
        // `G` alone cannot be an atom: it demands an operand.
        assert!(parse_ltl("G", &mut atoms).is_err());
        // But `g` (lowercase) is a fine identifier.
        assert!(parse_ltl("g", &mut atoms).is_ok());
    }

    /// `text` with one to four seeded edits: a byte overwritten by one of
    /// the grammar's characters or by an arbitrary byte, a range deleted or
    /// duplicated, or a corpus formula or a run of distinct atoms spliced
    /// in — long enough to pass the vocabulary's cap.
    fn mutant(rng: &mut SimRng, text: &str, corpus: &[&str]) -> String {
        const ALPHABET: &[u8] = b"()[]!&|->UXFGRAE ptq_.09";
        let mut bytes = text.as_bytes().to_vec();
        for _ in 0..rng.range_u64(1, 5) {
            let at = rng.range_u64(0, bytes.len() as u64 + 1) as usize;
            match rng.range_u64(0, 6) {
                0 if at < bytes.len() => {
                    let pick = rng.range_u64(0, ALPHABET.len() as u64) as usize;
                    bytes[at] = ALPHABET[pick];
                }
                1 if at < bytes.len() => bytes[at] = rng.range_u64(0, 256) as u8,
                2 if at < bytes.len() => {
                    let end = (at + rng.range_u64(1, 4) as usize).min(bytes.len());
                    bytes.drain(at..end);
                }
                3 if at < bytes.len() => {
                    let end = (at + rng.range_u64(1, 9) as usize).min(bytes.len());
                    let copy = bytes[at..end].to_vec();
                    bytes.splice(at..at, copy);
                }
                4 => {
                    let from = rng.range_u64(0, 8);
                    let count = rng.range_u64(50, MAX_ATOMS as u64 + 8);
                    let op = if rng.chance(0.5) { " & " } else { " | " };
                    let run: Vec<String> = (from..from + count).map(|i| format!("w{i}")).collect();
                    let run = format!("({})", run.join(op));
                    bytes.splice(at..at, run.into_bytes());
                }
                _ => {
                    let source = rng.pick(corpus).copied().unwrap_or("");
                    bytes.splice(at..at, source.bytes());
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Hostile input: seeded byte mutants of every formula the workspace
    /// parses never panic either parser. Each parses to a formula whose
    /// rendering parses back to it, or fails at a position inside the text.
    #[test]
    fn mutated_formulas_parse_or_fail_at_a_position() {
        // The parse tests' sources, the weakened fuzzing space's oracles
        // and E3's CTL properties.
        let oracles = [
            "G coverage",
            "G (!coverage -> F coverage)",
            "G (!availability -> F availability)",
        ];
        let e3 = ["AG EF p0", "AG (p1 -> AF p2)"];
        let ltl: Vec<&str> = LTL_SOURCES.iter().chain(&oracles).copied().collect();
        let ctl: Vec<&str> = CTL_SOURCES.iter().chain(&e3).copied().collect();
        let (mut parsed, mut failed, mut capped) = (0, 0, 0);
        for seed in [1, 2, 3, 4] {
            let mut rng = SimRng::seed_from(0xF0A3_0000 + seed);
            for i in 0..2_000 {
                for (corpus, is_ctl) in [(&ltl, false), (&ctl, true)] {
                    let text = mutant(&mut rng, corpus[i % corpus.len()], corpus);
                    let outcome = std::panic::catch_unwind(|| {
                        let mut atoms = Atoms::new();
                        let round_trip = if is_ctl {
                            parse_ctl(&text, &mut atoms).map(|f| {
                                let back = parse_ctl(&f.render(&atoms), &mut atoms);
                                back == Ok(f)
                            })
                        } else {
                            parse_ltl(&text, &mut atoms).map(|f| {
                                let back = parse_ltl(&f.render(&atoms), &mut atoms);
                                back == Ok(f)
                            })
                        };
                        (round_trip, atoms.len())
                    });
                    let Ok((outcome, atom_count)) = outcome else {
                        panic!("seed {seed} mutant {i} panics the parser: {text:?}");
                    };
                    match outcome {
                        Ok(round_trips) => {
                            assert!(round_trips, "seed {seed} mutant {i}: {text:?}");
                            parsed += 1;
                        }
                        Err(e) => {
                            assert!(e.position <= text.len(), "seed {seed} mutant {i}: {e}");
                            capped += usize::from(atom_count == MAX_ATOMS);
                            failed += 1;
                        }
                    }
                }
            }
        }
        assert!(
            parsed > 500 && failed > 500 && capped > 50,
            "{parsed} parsed, {failed} failed, {capped} at the atom cap"
        );
    }
}
