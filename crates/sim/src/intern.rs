//! Deterministic metric-name interning: the zero-allocation fast path
//! under [`Metrics`](crate::Metrics).
//!
//! Every message in a run pays a metrics update; with string-keyed maps
//! that cost was a `String` allocation plus a tree walk *per event*. The
//! interner maps each metric name to a dense [`MetricKey`] id exactly once,
//! after which all reads and writes are direct `Vec` indexing.
//!
//! ## Determinism contract (DESIGN.md §9)
//!
//! * Ids are assigned in **registration order** — first `intern` wins the
//!   next id. No ambient hashing is involved anywhere (riot-lint rule D1
//!   applies to this module): the name→id index is a `Vec` kept sorted by
//!   name and probed by binary search.
//! * Registration order is *not* part of any observable output: results
//!   name their metrics, and a [`SymbolTable`] that is serialized walks its
//!   sorted index, so two runs that intern the same names in different
//!   orders still render byte-identical output.
//! * A [`MetricKey`] is only meaningful to the recorder that minted it
//!   (or a clone of it). Keys are never serialized.

use std::fmt;

/// A dense id for one metric name, minted by [`crate::Metrics::intern`].
/// `Copy`, cheap to store in process state, and valid for the lifetime of
/// the recorder that minted it (clones included).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey(pub(crate) u32);

impl MetricKey {
    /// The dense slot index behind this key.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MetricKey({})", self.0)
    }
}

/// A dense id for one interned string in a [`SymbolTable`]. `Copy`, and
/// only meaningful to the table (or clones of the table) that minted it.
/// Other crates layer domain-specific key types over this (riot-data's
/// `DataKey` is a `Symbol` in a shared per-run table).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The dense slot index behind this symbol — suitable for direct `Vec`
    /// indexing in slab structures keyed by symbols of one table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

/// A deterministic string interner: name ↔ id table where `names` is
/// indexed by id (registration order) and `by_name` holds the same ids
/// sorted by the name they denote, probed by binary search — no ambient
/// hashing anywhere (riot-lint rule D1).
///
/// This is the generic table under the metrics interner; it is public
/// so other layers (the data plane's key space, scenario node state) can
/// intern their own namespaces with the same determinism contract:
/// registration order mints dense ids, serialization walks name order.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    names: Vec<String>,
    by_name: Vec<u32>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Binary-searches the sorted index. `Ok(pos)` finds the id at
    /// `by_name[pos]`; `Err(pos)` is the insertion point for a new name.
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.by_name
            .binary_search_by(|&id| self.name_of_id(id).cmp(name))
    }

    #[inline]
    fn name_of_id(&self, id: u32) -> &str {
        // riot-lint: allow(P1, reason = "by_name only holds ids minted by this table, each of which indexes names")
        self.names
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("")
    }

    /// Returns the symbol for `name`, minting a fresh dense id on first
    /// sight.
    pub fn intern(&mut self, name: &str) -> Symbol {
        match self.position(name) {
            Ok(pos) => Symbol(self.by_name.get(pos).copied().unwrap_or(0)),
            Err(pos) => {
                let id = self.names.len() as u32;
                // riot-lint: allow(A1, reason = "minting happens once per distinct name; interning a name seen before allocates nothing")
                self.names.push(name.to_owned());
                self.by_name.insert(pos, id);
                Symbol(id)
            }
        }
    }

    /// Returns the symbol for `name` if it was ever interned — no
    /// allocation.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.position(name)
            .ok()
            .and_then(|pos| self.by_name.get(pos).copied())
            .map(Symbol)
    }

    /// The name a symbol denotes (empty for foreign symbols, which cannot
    /// occur through the public API).
    pub fn name(&self, sym: Symbol) -> &str {
        self.name_of_id(sym.0)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates all slot indices in **name order** — the serialization
    /// order, independent of registration order.
    pub fn indices_by_name(&self) -> impl Iterator<Item = usize> + '_ {
        self.by_name.iter().map(|&id| id as usize)
    }
}

/// The metrics-namespace interner: a thin typed layer over [`SymbolTable`]
/// that mints [`MetricKey`]s. Kept as a separate type so metric keys and
/// other symbol namespaces cannot be confused.
#[derive(Debug, Clone, Default)]
pub(crate) struct Interner {
    table: SymbolTable,
}

impl Interner {
    /// Returns the key for `name`, minting a fresh id on first sight.
    pub fn intern(&mut self, name: &str) -> MetricKey {
        MetricKey(self.table.intern(name).0)
    }

    /// Returns the key for `name` if it was ever interned — no allocation.
    pub fn get(&self, name: &str) -> Option<MetricKey> {
        self.table.get(name).map(|s| MetricKey(s.0))
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = Interner::default();
        let b = i.intern("b");
        let a = i.intern("a");
        assert_eq!(i.intern("b"), b);
        assert_eq!(i.intern("a"), a);
        assert_eq!(b.index(), 0, "ids follow registration order");
        assert_eq!(a.index(), 1);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn lookup_does_not_mint() {
        let mut i = Interner::default();
        assert!(i.get("x").is_none());
        let x = i.intern("x");
        assert_eq!(i.get("x"), Some(x));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn iteration_is_name_ordered_regardless_of_registration() {
        let mut t = SymbolTable::new();
        for n in ["zeta", "alpha", "mid"] {
            t.intern(n);
        }
        let names: Vec<&str> = t
            .indices_by_name()
            .map(|idx| t.names[idx].as_str())
            .collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn symbol_table_mirrors_the_interner_contract() {
        let mut t = SymbolTable::new();
        assert!(t.is_empty());
        let b = t.intern("b");
        let a = t.intern("a");
        assert_eq!(t.intern("b"), b, "idempotent");
        assert_eq!(b.index(), 0, "ids follow registration order");
        assert_eq!(a.index(), 1);
        assert_eq!(t.get("a"), Some(a));
        assert_eq!(t.get("zzz"), None, "lookup does not mint");
        assert_eq!(t.name(a), "a");
        assert_eq!(t.len(), 2);
        let ordered: Vec<&str> = t
            .indices_by_name()
            .map(|idx| t.names[idx].as_str())
            .collect();
        assert_eq!(ordered, vec!["a", "b"]);
    }
}
