//! Per-run data-key interning: dense [`DataKey`] ids over a shared
//! [`KeySpace`], the data-plane analogue of riot-sim's metric interner.
//!
//! Every reading used to carry its key as a `String`, cloned at the
//! device, cloned again at edge ingest, and cloned once more per sync
//! target — with a `BTreeMap<String, _>` walk on every store operation.
//! A [`KeySpace`] mints one dense id per distinct key name; after that
//! the hot path moves `Copy` ids and indexes slabs directly.
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

/// A dense id for one data-key name, minted by [`KeySpace::intern`].
/// `Copy`; only meaningful to the key space (or clones of the handle)
/// that minted it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataKey(Symbol);

impl DataKey {
    /// The dense slot index behind this key — suitable for direct `Vec`
    /// indexing in slabs keyed by one key space.
    #[inline]
    pub fn index(self) -> usize {
        self.0.index()
    }
}

impl fmt::Debug for DataKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DataKey({})", self.0.index())
    }
}

/// A shared, deterministic name ↔ [`DataKey`] table. Clones are handles
/// to the same table ([`KeySpace::same_as`] tells two handles apart).
///
/// Ids follow registration order. Nothing iterates the table: names
/// leave it one key at a time through [`KeySpace::resolve`], so neither
/// registration order nor the index's layout reaches an artifact.
#[derive(Clone, Default)]
pub struct KeySpace {
    table: Rc<RefCell<SymbolTable>>,
}

impl KeySpace {
    /// Creates an empty key space.
    pub fn new() -> Self {
        KeySpace::default()
    }

    /// Returns the key for `name`, minting a fresh dense id on first
    /// sight.
    pub fn intern(&self, name: &str) -> DataKey {
        DataKey(self.table.borrow_mut().intern(name))
    }

    /// Returns the key for `name` if it was ever interned — no minting.
    pub fn get(&self, name: &str) -> Option<DataKey> {
        self.table.borrow().get(name).map(DataKey)
    }

    /// The name a key denotes, as an owned `String` (cold path: tests and
    /// serialization).
    pub fn resolve(&self, key: DataKey) -> String {
        self.table.borrow().name(key.0).to_owned()
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.table.borrow().len()
    }

    /// `true` when nothing has been interned.
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
        assert_eq!(b.index(), 0, "ids follow registration order");
        assert_eq!(a.index(), 1);
        assert_eq!(ks.len(), 2);
        assert_eq!(ks.resolve(a), "a");
        assert_eq!(ks.get("zzz"), None, "lookup does not mint");
    }

    #[test]
    fn clones_share_the_table() {
        let ks = KeySpace::new();
        let other = ks.clone();
        let k = other.intern("shared");
        assert!(ks.same_as(&other));
        assert_eq!(ks.get("shared"), Some(k));
        assert!(!ks.same_as(&KeySpace::new()));
    }
}
