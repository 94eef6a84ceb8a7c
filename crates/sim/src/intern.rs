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
//!   next id. The name→id index is an open-addressing table probed by a
//!   fixed FNV-1a hash of the name's bytes: no seeded hashing (riot-lint
//!   rules D1 and D3 apply to this module), and nothing but its own
//!   growth walks the table, so its layout can reach no output.
//! * Registration order is *not* part of any observable output: results
//!   name their metrics, so two runs that intern the same names in
//!   different orders still render byte-identical output.
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
/// `DataKey`: a `Symbol`, named or not, in a shared per-run table).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The dense slot index behind this symbol — suitable for direct `Vec`
    /// indexing in slab structures keyed by symbols of one table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The symbol `by` ids after this one: the `by`-th of a run that
    /// [`SymbolTable::push_unnamed_run`] minted from here.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX`, where no table mints.
    #[inline]
    pub fn offset(self, by: u32) -> Symbol {
        assert!(
            by <= u32::MAX - self.0,
            "symbol id {} + {by} overflows u32",
            self.0
        );
        Symbol(self.0 + by)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

/// FNV-1a over a name's bytes: a fixed function, so where a name sits in
/// a [`SymbolTable`]'s index depends only on the names interned, never on
/// the process.
#[inline]
fn fnv1a(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in name.as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// A deterministic string interner: name ↔ id table where the names sit
/// back to back in one arena, in id (registration) order, and an
/// open-addressing index over the named ids is placed by a fixed FNV-1a
/// hash of the name and probed linearly. The index is probed, and walked
/// only to re-place its own entries when it grows.
///
/// This is the generic table under the metrics interner; it is public
/// so other layers (the data plane's key space) can intern their own
/// namespaces with the same determinism contract: registration order
/// mints dense ids, named or not ([`SymbolTable::push_unnamed_run`]).
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// Every name, back to back in registration order.
    text: String,
    /// `ends[id]`: where name `id` ends in `text` (it starts where name
    /// `id - 1` ends). A `u32` each, since an unnamed id costs one entry
    /// here and nothing else: `intern` asserts that `text` fits.
    ends: Vec<u32>,
    /// `id + 1` per occupied slot, 0 for an empty one. Only named ids are
    /// entered. Its length is zero or a power of two at least twice
    /// `named`, so a probe always meets an empty slot.
    slots: Vec<u32>,
    /// The ids `intern` minted: the entries of `slots`.
    named: usize,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Probes the index for `name`: the slot holding its id and the id, or
    /// the empty slot where it would go and `None`.
    fn probe(&self, name: &str) -> (usize, Option<u32>) {
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = fnv1a(name) as usize & mask;
        loop {
            match self.slots.get(at) {
                Some(&tagged) if tagged != 0 => {
                    if self.name_of_id(tagged - 1) == name {
                        return (at, Some(tagged - 1));
                    }
                }
                _ => return (at, None),
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the index (to 8 slots when empty) and re-places every id
    /// it holds.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(8);
        let mask = len - 1;
        let mut slots = vec![0u32; len];
        for &tagged in self.slots.iter().filter(|&&tagged| tagged != 0) {
            let mut at = fnv1a(self.name_of_id(tagged - 1)) as usize & mask;
            while slots.get(at).is_some_and(|&taken| taken != 0) {
                at = (at + 1) & mask;
            }
            if let Some(slot) = slots.get_mut(at) {
                *slot = tagged;
            }
        }
        self.slots = slots;
    }

    #[inline]
    fn name_of_id(&self, id: u32) -> &str {
        let id = id as usize;
        let start = match id.checked_sub(1) {
            Some(prev) => self.ends.get(prev).copied().unwrap_or(0),
            None => 0,
        };
        let end = self.ends.get(id).copied().unwrap_or(start);
        self.text.get(start as usize..end as usize).unwrap_or("")
    }

    /// Returns the symbol for `name`, minting a fresh dense id on first
    /// sight.
    pub fn intern(&mut self, name: &str) -> Symbol {
        let (mut at, found) = self.probe(name);
        if let Some(id) = found {
            return Symbol(id);
        }
        if (self.named + 1) * 2 > self.slots.len() {
            self.grow();
            at = self.probe(name).0;
        }
        // The next id, minted once its name is in `text`.
        let id = self.push_unnamed_run(0).0;
        self.text.push_str(name);
        assert!(
            self.text.len() <= u32::MAX as usize,
            "interned names overflow u32 offsets"
        );
        self.ends.push(self.text.len() as u32);
        self.named += 1;
        if let Some(slot) = self.slots.get_mut(at) {
            *slot = id + 1;
        }
        Symbol(id)
    }

    /// Mints `n` consecutive dense ids with no name and returns the first:
    /// the run is `first.index()..first.index() + n`. No hash, no probe,
    /// and no `intern` or `get` ever returns one of them. With `n == 0` it
    /// mints nothing and returns the id the next mint takes.
    pub fn push_unnamed_run(&mut self, n: usize) -> Symbol {
        let first = self.ends.len();
        // Every id, and the one past the last, fits a `u32`.
        assert!(first + n < u32::MAX as usize, "symbol ids overflow u32");
        // An unnamed id's name is empty: it ends where the text does.
        self.ends.resize(first + n, self.text.len() as u32);
        Symbol(first as u32)
    }

    /// Returns the symbol for `name` if it was ever interned — no
    /// allocation.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.probe(name).1.map(Symbol)
    }

    /// Number of ids minted, named or not.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when no id has been minted.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
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
    pub(crate) fn intern(&mut self, name: &str) -> MetricKey {
        MetricKey(self.table.intern(name).0)
    }

    /// Returns the key for `name` if it was ever interned — no allocation.
    pub(crate) fn get(&self, name: &str) -> Option<MetricKey> {
        self.table.get(name).map(|s| MetricKey(s.0))
    }

    /// Number of interned names.
    pub(crate) fn len(&self) -> usize {
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
        assert_eq!(t.name_of_id(a.0), "a");
        assert_eq!(t.len(), 2);
    }

    /// Unnamed ids take their place in the one registration-order
    /// sequence, and no lookup finds them — not the empty name, not after
    /// the index has grown around them.
    #[test]
    fn unnamed_ids_share_the_sequence_and_stay_out_of_the_index() {
        let mut t = SymbolTable::new();
        assert_eq!(t.push_unnamed_run(1).index(), 0);
        let a = t.intern("a");
        assert_eq!(a.index(), 1);
        assert_eq!(t.push_unnamed_run(1).index(), 2);
        assert_eq!(t.get(""), None, "an unnamed id is not the empty name");
        let empty = t.intern("");
        assert_eq!(empty.index(), 3, "the empty name mints a fresh id");
        for i in 4..1_000 {
            let sym = if i % 3 == 0 {
                t.intern(&format!("k{i}"))
            } else {
                t.push_unnamed_run(1)
            };
            assert_eq!(sym.index(), i);
        }
        assert_eq!(t.len(), 1_000);
        assert_eq!(t.named, 2 + (4..1_000).filter(|i| i % 3 == 0).count());
        assert!(t.slots.len() >= 2 * t.named && t.slots.len() < 4 * t.named);
        assert_eq!(
            (t.get("a"), t.get(""), t.get("k999")),
            (Some(a), Some(empty), Some(Symbol(999)))
        );
        assert_eq!(t.get("k998"), None, "998 was minted unnamed");
        assert_eq!(t.name_of_id(999), "k999");
    }

    /// A run is `n` consecutive unnamed ids, no different from `n` single
    /// mints: each ends where the text does, and interning goes on after it.
    #[test]
    fn a_run_of_unnamed_ids_is_consecutive() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let first = t.push_unnamed_run(5);
        assert_eq!(first.index(), 1);
        assert_eq!(first.offset(4).index(), 5);
        assert_eq!(t.len(), 6);
        assert_eq!(
            t.push_unnamed_run(0).index(),
            6,
            "an empty run mints nothing"
        );
        assert_eq!(t.len(), 6);
        let b = t.intern("b");
        assert_eq!(b.index(), 6);
        assert_eq!(
            (t.name_of_id(a.0), t.name_of_id(3), t.name_of_id(b.0)),
            ("a", "", "b")
        );
        assert_eq!(t.get(""), None, "the run stays out of the index");
    }

    /// Scrambled names with repeats, through several growths of the index,
    /// against a map that hands out ids in first-sight order; every `get`
    /// is checked before the `intern` that may mint, so misses are covered.
    #[test]
    fn symbols_match_a_first_sight_oracle() {
        use std::collections::BTreeMap;
        let empty = SymbolTable::new();
        assert_eq!(empty.get(""), None);
        assert_eq!(empty.get("dev0/reading"), None);

        let mut t = SymbolTable::new();
        let mut oracle: BTreeMap<String, u32> = BTreeMap::new();
        // A fixed LCG scrambles 30 000 draws over 12 000 distinct names.
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..30_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let n = (state >> 33) % 12_000;
            let name = match n % 3 {
                0 => format!("dev{n}/reading"),
                1 => format!("flow.{n}"),
                _ => "x".repeat(1 + (n % 7) as usize) + &n.to_string(),
            };
            let want = oracle.get(&name).copied();
            assert_eq!(t.get(&name).map(|s| s.0), want, "get before intern: {name}");
            let next = oracle.len() as u32;
            let id = *oracle.entry(name.clone()).or_insert(next);
            assert_eq!(t.intern(&name).0, id, "intern: {name}");
            assert_eq!(t.name_of_id(id), name);
            assert!(t.slots.len() >= 2 * t.len(), "load stays at most one half");
        }
        assert_eq!(t.len(), oracle.len());
        assert!(t.len() >= 10_000, "{} distinct names", t.len());
        for (name, &id) in &oracle {
            assert_eq!(t.get(name), Some(Symbol(id)));
        }
        assert_eq!(t.get("dev12000/reading"), None, "a miss after all growths");
    }
}
