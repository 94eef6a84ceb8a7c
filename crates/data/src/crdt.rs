//! Conflict-free replicated data types.
//!
//! "Instead of arbitrary networked processes, the particularities of IoT
//! software components require novel applications of data synchronization"
//! (§VI-B). CRDTs give exactly the synchronization discipline decentralized
//! components need: replicas mutate locally and [`Crdt::merge`] makes any
//! two replicas converge regardless of message order, duplication or delay.
//!
//! Implemented types: [`GCounter`], [`PnCounter`], [`LwwRegister`] and
//! [`OrSet`]. The join-semilattice laws (commutativity, associativity,
//! idempotence) are property-tested in the crate's proptest suite.

use std::collections::{BTreeMap, BTreeSet};

/// Identifies a replica (usually the hosting node's process index).
pub(crate) type ReplicaId = u32;

/// A state-based (convergent) replicated data type.
pub trait Crdt {
    /// Joins another replica's state into this one. Must be commutative,
    /// associative and idempotent.
    fn merge(&mut self, other: &Self);
}

/// A grow-only counter.
///
/// # Examples
///
/// ```
/// use riot_data::{Crdt, GCounter};
///
/// let mut a = GCounter::new();
/// let mut b = GCounter::new();
/// a.incr(0, 3);
/// b.incr(1, 2);
/// a.merge(&b);
/// assert_eq!(a.value(), 5);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GCounter {
    counts: BTreeMap<ReplicaId, u64>,
}

impl GCounter {
    /// A zero counter.
    pub fn new() -> Self {
        GCounter::default()
    }

    /// Adds `by` at `replica`.
    pub fn incr(&mut self, replica: ReplicaId, by: u64) {
        *self.counts.entry(replica).or_insert(0) += by;
    }

    /// The counter value.
    pub fn value(&self) -> u64 {
        self.counts.values().sum()
    }
}

impl Crdt for GCounter {
    fn merge(&mut self, other: &Self) {
        for (r, c) in &other.counts {
            let mine = self.counts.entry(*r).or_insert(0);
            *mine = (*mine).max(*c);
        }
    }
}

/// An increment/decrement counter (two G-counters).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PnCounter {
    pos: GCounter,
    neg: GCounter,
}

impl PnCounter {
    /// A zero counter.
    pub fn new() -> Self {
        PnCounter::default()
    }

    /// Adds `by` at `replica`.
    pub fn incr(&mut self, replica: ReplicaId, by: u64) {
        self.pos.incr(replica, by);
    }

    /// Subtracts `by` at `replica`.
    pub fn decr(&mut self, replica: ReplicaId, by: u64) {
        self.neg.incr(replica, by);
    }

    /// The counter value (may be negative).
    pub fn value(&self) -> i64 {
        self.pos.value() as i64 - self.neg.value() as i64
    }
}

impl Crdt for PnCounter {
    fn merge(&mut self, other: &Self) {
        self.pos.merge(&other.pos);
        self.neg.merge(&other.neg);
    }
}

/// A last-writer-wins register: total order by `(timestamp, replica)`.
///
/// Timestamps are caller-supplied (virtual time in the simulator), so ties
/// across replicas are broken deterministically by replica id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LwwRegister<T> {
    value: T,
    timestamp: u64,
    replica: ReplicaId,
}

impl<T> LwwRegister<T> {
    /// Creates a register with an initial value written at time 0 by
    /// replica 0.
    pub fn new(initial: T) -> Self {
        LwwRegister {
            value: initial,
            timestamp: 0,
            replica: 0,
        }
    }

    /// Writes a value at `(timestamp, replica)`. Returns `true` when the
    /// write won (was newer than the current content).
    pub fn set(&mut self, value: T, timestamp: u64, replica: ReplicaId) -> bool {
        if (timestamp, replica) > (self.timestamp, self.replica) {
            self.value = value;
            self.timestamp = timestamp;
            self.replica = replica;
            true
        } else {
            false
        }
    }

    /// The current value.
    pub fn get(&self) -> &T {
        &self.value
    }

    /// The `(timestamp, replica)` of the winning write.
    pub fn version(&self) -> (u64, ReplicaId) {
        (self.timestamp, self.replica)
    }
}

impl<T: Clone> Crdt for LwwRegister<T> {
    fn merge(&mut self, other: &Self) {
        if (other.timestamp, other.replica) > (self.timestamp, self.replica) {
            self.value = other.value.clone();
            self.timestamp = other.timestamp;
            self.replica = other.replica;
        }
    }
}

/// An observed-remove set: adds win over concurrent removes.
///
/// Each add creates a unique tag; a remove deletes exactly the tags it has
/// observed, so a concurrent add (new tag) survives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrSet<T: Ord> {
    /// Element → live tags.
    live: BTreeMap<T, BTreeSet<(ReplicaId, u64)>>,
    /// All tags ever seen (add-set), for idempotent merges.
    seen: BTreeSet<(ReplicaId, u64)>,
    /// Per-replica tag counter.
    next_tag: BTreeMap<ReplicaId, u64>,
}

impl<T: Ord> Default for OrSet<T> {
    fn default() -> Self {
        OrSet {
            live: BTreeMap::new(),
            seen: BTreeSet::new(),
            next_tag: BTreeMap::new(),
        }
    }
}

impl<T: Ord + Clone> OrSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        OrSet::default()
    }

    /// Adds an element at `replica`.
    pub fn add(&mut self, value: T, replica: ReplicaId) {
        let n = self.next_tag.entry(replica).or_insert(0);
        let tag = (replica, *n);
        *n += 1;
        self.seen.insert(tag);
        self.live.entry(value).or_default().insert(tag);
    }

    /// Removes an element: deletes all currently observed tags. A
    /// concurrent add elsewhere will survive the merge.
    pub fn remove(&mut self, value: &T) {
        self.live.remove(value);
    }

    /// `true` if the element is present.
    pub fn contains(&self, value: &T) -> bool {
        self.live.contains_key(value)
    }

    /// Iterates over the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.live.keys()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` when no element is present.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

impl<T: Ord + Clone> Crdt for OrSet<T> {
    fn merge(&mut self, other: &Self) {
        // An element is live with tag t iff t is live in a replica that has
        // seen t... precisely: live(self∪other) = (live_self ∪ live_other)
        // minus tags that the *other* replica has seen but no longer lists
        // as live (it removed them), and symmetrically.
        let mut result: BTreeMap<T, BTreeSet<(ReplicaId, u64)>> = BTreeMap::new();
        let insert_surviving =
            |from: &BTreeMap<T, BTreeSet<(ReplicaId, u64)>>,
             peer_live: &BTreeMap<T, BTreeSet<(ReplicaId, u64)>>,
             peer_seen: &BTreeSet<(ReplicaId, u64)>,
             result: &mut BTreeMap<T, BTreeSet<(ReplicaId, u64)>>| {
                for (v, tags) in from {
                    for tag in tags {
                        let peer_has_live =
                            peer_live.get(v).map(|s| s.contains(tag)).unwrap_or(false);
                        let peer_removed = peer_seen.contains(tag) && !peer_has_live;
                        if !peer_removed {
                            result.entry(v.clone()).or_default().insert(*tag);
                        }
                    }
                }
            };
        insert_surviving(&self.live, &other.live, &other.seen, &mut result);
        insert_surviving(&other.live, &self.live, &self.seen, &mut result);
        self.live = result;
        self.seen.extend(other.seen.iter().copied());
        for (r, n) in &other.next_tag {
            let mine = self.next_tag.entry(*r).or_insert(0);
            *mine = (*mine).max(*n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcounter_merge_takes_max_per_replica() {
        let mut a = GCounter::new();
        let mut b = GCounter::new();
        a.incr(0, 5);
        b.incr(0, 3); // same replica, lower: must not double-count
        b.incr(1, 2);
        a.merge(&b);
        assert_eq!(a.value(), 7);
        // Idempotent.
        let snapshot = a.clone();
        a.merge(&b);
        assert_eq!(a, snapshot);
    }

    #[test]
    fn pncounter_goes_negative() {
        let mut a = PnCounter::new();
        let mut b = PnCounter::new();
        a.incr(0, 2);
        b.decr(1, 5);
        a.merge(&b);
        assert_eq!(a.value(), -3);
        b.merge(&a);
        assert_eq!(b.value(), -3);
    }

    #[test]
    fn lww_latest_timestamp_wins_replica_breaks_ties() {
        let mut a = LwwRegister::new(0u32);
        assert!(a.set(1, 10, 0));
        assert!(!a.set(2, 5, 1), "older write loses");
        assert_eq!(*a.get(), 1);
        assert!(a.set(3, 10, 1), "tie broken by higher replica");
        assert_eq!(*a.get(), 3);
        assert_eq!(a.version(), (10, 1));

        let mut b = LwwRegister::new(0u32);
        b.set(9, 20, 0);
        a.merge(&b);
        assert_eq!(*a.get(), 9);
    }

    #[test]
    fn orset_add_remove_basic() {
        let mut s = OrSet::new();
        s.add("x", 0);
        s.add("y", 0);
        assert!(s.contains(&"x"));
        assert_eq!(s.len(), 2);
        s.remove(&"x");
        assert!(!s.contains(&"x"));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![&"y"]);
    }

    #[test]
    fn orset_concurrent_add_wins_over_remove() {
        let mut a = OrSet::new();
        a.add("item", 0);
        let mut b = a.clone();
        // Replica A removes; replica B concurrently re-adds.
        a.remove(&"item");
        b.add("item", 1);
        a.merge(&b);
        assert!(a.contains(&"item"), "the concurrent add must survive");
        b.merge(&a);
        assert!(b.contains(&"item"));
        // But the removed tag itself stays removed (no resurrection).
        let mut c = OrSet::new();
        c.add("only", 0);
        let mut d = c.clone();
        c.remove(&"only");
        c.merge(&d);
        assert!(
            !c.contains(&"only"),
            "observed remove holds without concurrent add"
        );
        d.merge(&c);
        assert!(!d.contains(&"only"), "remove propagates");
    }

    #[test]
    fn orset_merge_idempotent_and_commutative() {
        let mut a = OrSet::new();
        let mut b = OrSet::new();
        a.add(1u32, 0);
        a.add(2, 0);
        b.add(2, 1);
        b.add(3, 1);
        a.remove(&2);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        let va: Vec<u32> = ab.iter().copied().collect();
        let vb: Vec<u32> = ba.iter().copied().collect();
        assert_eq!(va, vb, "commutative contents");
        let snapshot: Vec<u32> = ab.iter().copied().collect();
        ab.merge(&b);
        let again: Vec<u32> = ab.iter().copied().collect();
        assert_eq!(snapshot, again, "idempotent");
        // 2 was removed at a but b's tag for 2 is concurrent → survives.
        assert!(va.contains(&2));
    }
}
