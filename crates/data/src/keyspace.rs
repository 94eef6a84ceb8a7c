//! Per-run data-key ids: dense [`DataKey`]s over a shared [`KeySpace`],
//! the data-plane analogue of riot-sim's metric interner.
//!
//! Every reading used to carry its key as a `String`, cloned at the
//! device, cloned again at edge ingest, and cloned once more per sync
//! target — with a `BTreeMap<String, _>` walk on every store operation.
//! A [`KeySpace`] hands out dense ids from one registration-order
//! sequence: [`KeySpace::mint_run`] takes the next `n` with no name (the
//! scenario's device keys, `0..N` in device order), [`KeySpace::intern`]
//! one per distinct name. After that the hot path moves `Copy` ids and indexes
//! slabs directly; nothing maps an id back to a name.
//!
//! ## Sharing model
//!
//! A `KeySpace` is a cheap clonable handle (`Rc<RefCell<SymbolTable>>`):
//! the scenario builder creates one per run and hands clones to every
//! device, edge and cloud process, so all of them speak the same dense
//! id namespace. Stores that sync must share one space: a [`SyncMsg`]
//! carries ids, never names, and its receiver debug-asserts that the
//! sender's space is its own.
//!
//! [`SyncMsg`]: crate::SyncMsg

use riot_sim::{Symbol, SymbolTable};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A dense id for one data key, from [`KeySpace::mint_run`] or
/// [`KeySpace::intern`]. `Copy`; only meaningful to the key space (or
/// clones of the handle) that minted it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataKey(Symbol);

impl DataKey {
    /// The dense slot index behind this key — suitable for direct `Vec`
    /// indexing in slabs keyed by one key space.
    #[inline]
    pub fn index(self) -> usize {
        self.0.index()
    }

    /// The key `by` ids after this one: the `by`-th of a run that
    /// [`KeySpace::mint_run`] minted from here.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX`, where no key space mints.
    #[inline]
    pub fn offset(self, by: u32) -> DataKey {
        DataKey(self.0.offset(by))
    }
}

impl fmt::Debug for DataKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DataKey({})", self.0.index())
    }
}

/// A shared, deterministic source of [`DataKey`]s. Clones are handles to
/// the same table ([`KeySpace::same_as`] tells two handles apart).
///
/// Ids follow registration order, minted and interned alike. No name
/// leaves the table, so neither the names nor the index's layout reaches
/// an artifact.
#[derive(Clone, Default)]
pub struct KeySpace {
    table: Rc<RefCell<SymbolTable>>,
}

impl KeySpace {
    /// Creates an empty key space.
    pub fn new() -> Self {
        KeySpace::default()
    }

    /// Mints `n` consecutive dense ids with no name and returns the first:
    /// key `i` of the run is `first.offset(i)`. No formatting, hashing or
    /// probing, and [`KeySpace::intern`] never returns one of them. The
    /// scenario's device keys are one run.
    pub fn mint_run(&self, n: usize) -> DataKey {
        DataKey(self.table.borrow_mut().push_unnamed_run(n))
    }

    /// Returns the key for `name`, minting a fresh dense id on first
    /// sight.
    pub fn intern(&self, name: &str) -> DataKey {
        DataKey(self.table.borrow_mut().intern(name))
    }

    /// Number of keys, minted and interned.
    pub fn len(&self) -> usize {
        self.table.borrow().len()
    }

    /// `true` when no key has been minted or interned.
    pub fn is_empty(&self) -> bool {
        self.table.borrow().is_empty()
    }

    /// `true` when both handles point at the same underlying table —
    /// keys from one are directly valid in the other.
    pub fn same_as(&self, other: &KeySpace) -> bool {
        Rc::ptr_eq(&self.table, &other.table)
    }
}

impl fmt::Debug for KeySpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeySpace(len={})", self.len())
    }
}

impl PartialEq for KeySpace {
    fn eq(&self, other: &Self) -> bool {
        self.same_as(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let ks = KeySpace::new();
        let b = ks.intern("b");
        let a = ks.intern("a");
        assert_eq!(ks.intern("b"), b);
        assert_eq!(ks.intern("a"), a);
        assert_eq!(b.index(), 0, "ids follow registration order");
        assert_eq!(a.index(), 1);
        assert_eq!(ks.len(), 2);
    }

    #[test]
    fn minted_and_interned_keys_share_one_dense_sequence() {
        let ks = KeySpace::new();
        let m0 = ks.mint_run(1);
        let a = ks.intern("a");
        let m2 = ks.mint_run(1);
        let m3 = ks.mint_run(1);
        let b = ks.intern("b");
        assert_eq!(
            [m0, a, m2, m3, b].map(DataKey::index),
            [0, 1, 2, 3, 4],
            "one registration order for both"
        );
        assert_eq!(ks.len(), 5);
        assert_eq!(ks.intern("a"), a, "intern stays idempotent after mints");
        assert_eq!(ks.intern("b"), b);
        assert_ne!(ks.mint_run(1), m3, "every mint is fresh");
        assert_eq!(ks.len(), 6);
    }

    #[test]
    fn a_minted_run_is_consecutive_and_never_interned() {
        let ks = KeySpace::new();
        let a = ks.intern("a");
        let first = ks.mint_run(4);
        assert_eq!((first.index(), first.offset(3).index()), (1, 4));
        assert_eq!(ks.len(), 5);
        assert_eq!(
            ks.mint_run(1).index(),
            5,
            "the sequence goes on after the run"
        );
        assert_eq!(ks.intern("a"), a);
        assert_eq!(ks.intern("").index(), 6, "the run holds no name");
    }

    #[test]
    fn intern_never_returns_a_minted_id() {
        let ks = KeySpace::new();
        let minted: Vec<DataKey> = (0..100).map(|_| ks.mint_run(1)).collect();
        // Names through several growths of the index, including the empty
        // name and the names the scenario's device keys once had.
        for i in 0..300 {
            let named = [
                ks.intern(&format!("dev{i}/reading")),
                ks.intern(""),
                ks.intern(&i.to_string()),
            ];
            for key in named {
                assert!(key.index() >= minted.len(), "{key:?} was minted");
                assert!(!minted.contains(&key));
            }
        }
        assert_eq!(ks.len(), minted.len() + 2 * 300 + 1);
    }

    #[test]
    fn clones_share_the_table() {
        let ks = KeySpace::new();
        let other = ks.clone();
        let k = other.intern("shared");
        let m = other.mint_run(1);
        assert!(ks.same_as(&other));
        assert_eq!(ks.intern("shared"), k, "a clone sees the name");
        assert_eq!(ks.mint_run(1).index(), m.index() + 1, "and the sequence");
        assert_eq!(ks.len(), 3);
        assert!(!ks.same_as(&KeySpace::new()));
        assert_eq!(ks, other.clone());
    }
}
