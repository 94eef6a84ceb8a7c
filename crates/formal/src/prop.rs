//! Atomic propositions and state valuations.
//!
//! All formal artifacts in this crate — Kripke structures, CTL and LTL
//! formulas, runtime monitors — share one vocabulary of atomic propositions
//! managed by an [`Atoms`] interner. A [`Valuation`] is the set of atoms
//! true in one state, packed into a 64-bit mask (formal models in the
//! framework use well under 64 observable propositions; the interner
//! enforces the cap loudly).

use std::collections::BTreeMap;
use std::fmt;

/// An interned atomic proposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomId(pub(crate) u8);

impl AtomId {
    /// The raw index of this atom.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interner mapping proposition names to [`AtomId`]s.
///
/// # Examples
///
/// ```
/// use riot_formal::Atoms;
///
/// let mut atoms = Atoms::new();
/// let up = atoms.intern("edge_up");
/// assert_eq!(atoms.intern("edge_up"), up, "idempotent");
/// assert_eq!(atoms.name(up), "edge_up");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Atoms {
    names: Vec<String>,
    index: BTreeMap<String, AtomId>,
}

/// Maximum number of distinct atoms (valuations are 64-bit masks).
pub(crate) const MAX_ATOMS: usize = 64;

impl Atoms {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Atoms::default()
    }

    /// Interns a name, returning its id (stable across calls).
    ///
    /// # Panics
    ///
    /// Panics when more than 64 distinct atoms are interned (valuations are
    /// 64-bit masks).
    pub fn intern(&mut self, name: &str) -> AtomId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        assert!(
            self.names.len() < MAX_ATOMS,
            "more than {MAX_ATOMS} atomic propositions"
        );
        let id = AtomId(self.names.len() as u8);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<AtomId> {
        self.index.get(name).copied()
    }

    /// The name of an atom.
    ///
    /// # Panics
    ///
    /// Panics on a foreign [`AtomId`].
    pub fn name(&self, id: AtomId) -> &str {
        // riot-lint: allow(P1, reason = "documented # Panics contract: foreign AtomIds are a caller bug")
        &self.names[id.index()]
    }

    /// The interned names, in interning order (position = [`AtomId::index`]).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when no atom has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// The set of atoms true in one state, packed into a bitmask.
///
/// # Examples
///
/// ```
/// use riot_formal::{Atoms, Valuation};
///
/// let mut atoms = Atoms::new();
/// let a = atoms.intern("a");
/// let b = atoms.intern("b");
/// let v = Valuation::EMPTY.with(a);
/// assert!(v.contains(a));
/// assert!(!v.contains(b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Valuation(u64);

impl Valuation {
    /// The valuation in which every atom is false.
    pub const EMPTY: Valuation = Valuation(0);

    /// The valuation whose atom *i* — the *i*-th name interned into the
    /// vocabulary it is read against — holds iff bit *i* of `bits` is set.
    pub const fn from_bits(bits: u64) -> Self {
        Valuation(bits)
    }

    /// Builds a valuation from an iterator of true atoms.
    pub fn from_atoms(atoms: impl IntoIterator<Item = AtomId>) -> Self {
        let mut v = Valuation::EMPTY;
        for a in atoms {
            v.set(a, true);
        }
        v
    }

    /// `true` if `atom` holds.
    pub fn contains(self, atom: AtomId) -> bool {
        self.0 & (1u64 << atom.0) != 0
    }

    /// Sets one atom.
    pub fn set(&mut self, atom: AtomId, value: bool) {
        if value {
            self.0 |= 1u64 << atom.0;
        } else {
            self.0 &= !(1u64 << atom.0);
        }
    }

    /// Returns a copy with `atom` set true.
    pub fn with(mut self, atom: AtomId) -> Self {
        self.set(atom, true);
        self
    }

    /// Returns a copy with `atom` set false.
    pub fn without(mut self, atom: AtomId) -> Self {
        self.set(atom, false);
        self
    }

    /// The atoms true in both valuations.
    pub(crate) fn intersect(self, other: Valuation) -> Valuation {
        Valuation(self.0 & other.0)
    }

    /// The atoms true in either valuation.
    pub(crate) fn union(self, other: Valuation) -> Valuation {
        Valuation(self.0 | other.0)
    }

    /// Number of true atoms.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Renders the valuation as `{a, b}` using the vocabulary.
    pub fn render(self, atoms: &Atoms) -> String {
        let names: Vec<&str> = (0..atoms.len() as u8)
            .filter(|i| self.contains(AtomId(*i)))
            .map(|i| atoms.name(AtomId(i)))
            .collect();
        format!("{{{}}}", names.join(", "))
    }
}

impl fmt::Display for Valuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#b}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut atoms = Atoms::new();
        let a = atoms.intern("a");
        let b = atoms.intern("b");
        assert_ne!(a, b);
        assert_eq!(atoms.intern("a"), a);
        assert_eq!(atoms.lookup("b"), Some(b));
        assert_eq!(atoms.lookup("zzz"), None);
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms.name(a), "a");
        assert_eq!(atoms.names().collect::<Vec<_>>(), ["a", "b"]);
        // Bit i of a valuation is the i-th name interned.
        assert_eq!(Valuation::from_bits(0b10), Valuation::from_atoms([b]));
    }

    #[test]
    fn valuation_set_get() {
        let mut atoms = Atoms::new();
        let a = atoms.intern("a");
        let b = atoms.intern("b");
        let mut v = Valuation::from_atoms([a]);
        assert!(v.contains(a) && !v.contains(b));
        v.set(b, true);
        v.set(a, false);
        assert!(!v.contains(a) && v.contains(b));
        assert_eq!(v.count(), 1);
        assert_eq!(v.with(a).count(), 2);
        assert_eq!(v.without(b), Valuation::EMPTY);
    }

    #[test]
    fn render_lists_true_atoms() {
        let mut atoms = Atoms::new();
        let a = atoms.intern("up");
        let _b = atoms.intern("fresh");
        let c = atoms.intern("private");
        let v = Valuation::from_atoms([a, c]);
        assert_eq!(v.render(&atoms), "{up, private}");
        assert_eq!(Valuation::EMPTY.render(&atoms), "{}");
    }

    #[test]
    fn cap_is_enforced() {
        let mut atoms = Atoms::new();
        for i in 0..MAX_ATOMS {
            atoms.intern(&format!("p{i}"));
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            atoms.intern("overflow");
        }));
        assert!(result.is_err());
    }
}
