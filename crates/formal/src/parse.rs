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
//! supplied [`Atoms`] vocabulary (keywords are reserved).
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

    #[test]
    fn ltl_round_trips_through_render() {
        let mut atoms = Atoms::new();
        for src in [
            "G (failed -> F recovered)",
            "(a U b)",
            "(a R b)",
            "X X done",
            "!(a & b)",
            "((a | b) & c)",
            "true",
            "F false",
        ] {
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
        for src in [
            "AG EF up",
            "E[degraded U repaired]",
            "A[true U served]",
            "AG (fault -> AF repaired)",
            "!(EX down)",
            "EG (a & b)",
        ] {
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
}
