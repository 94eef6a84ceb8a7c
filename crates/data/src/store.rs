//! A policy-enforcing replicated data store.
//!
//! The data-plane component Figure 4 implies: each data-handling software
//! component holds a [`ReplicatedStore`] of keyed records; stores
//! synchronize by anti-entropy push ([`ReplicatedStore::sync_out`] →
//! [`ReplicatedStore::on_sync`]), resolving conflicts last-writer-wins; and
//! **every record crossing the component boundary passes the governance
//! policy twice** — at egress by the sender and at ingress by the receiver
//! (defense in depth: an ungoverned or compromised sender cannot force
//! sensitive data into a governed store).
//!
//! The store also answers the audit query behind experiment E5:
//! [`ReplicatedStore::privacy_violations`] counts personal records resting
//! in domains they should never have reached.
//!
//! ## Layout
//!
//! Entries live in a slab (`Vec<Option<StoreEntry>>`) indexed by the dense
//! [`DataKey`] ids of the store's [`KeySpace`] — every operation is a
//! direct slot probe, and no method takes a key name: callers intern names
//! through the space once. All stores of a run are built over one space
//! ([`ReplicatedStore::with_keys`]), so a [`SyncMsg`]'s ids are the
//! receiver's ids; the message carries the sender's space only for the
//! receiver to debug-assert that.
//!
//! ## One snapshot per round
//!
//! What a push holds depends on the sender's contents and on the *domain*
//! of the peer, not on the peer. [`ReplicatedStore::sync_round`] therefore
//! walks the slab once per distinct peer domain among a round's targets
//! and every message towards that domain — for as long as it is in flight
//! — shares the one immutable `Rc<[StoreEntry]>`. The receiver walks the
//! shared slice in place: policy decision, then the LWW compare against
//! its slot, and only an entry that wins is copied out (DESIGN.md §9,
//! "Data plane").

use crate::crdt::ReplicaId;
use crate::item::{DataMeta, DataRecord, PurposeSet, Sensitivity};
use crate::keyspace::{DataKey, KeySpace};
use crate::policy::{FlowContext, PolicyAction, PolicyEngine};
use riot_model::{DomainId, DomainRegistry, TrustLevel};
use riot_sim::SimTime;
use std::rc::Rc;

/// What [`PolicyEngine::decide`] reads of a datum once `(from, to,
/// registry)` are fixed.
type FlowClass = (Sensitivity, PurposeSet, DomainId);

/// Per-sync flow-decision memo. Within one sync the `(from, to, registry)`
/// triple is fixed and [`PolicyEngine::decide`] depends only on the datum's
/// [`FlowClass`] — a store holds a handful of distinct classes, so a
/// linear scan over this inline table replaces a full rule walk per entry
/// (no heap, and hash-free per determinism rule D1). A class that arrives
/// when the table is full is decided by the rule walk every time: the
/// table never grows.
struct DecisionMemo {
    /// The first `len` rows are the answers given so far.
    rows: [(FlowClass, PolicyAction); 8],
    len: usize,
}

impl DecisionMemo {
    fn new() -> Self {
        let unused = (Sensitivity::Public, PurposeSet::EMPTY, DomainId(0));
        DecisionMemo {
            rows: [(unused, PolicyAction::Deny); 8],
            len: 0,
        }
    }

    fn decide(
        &mut self,
        policy: &PolicyEngine,
        meta: &DataMeta,
        from: DomainId,
        to: DomainId,
        registry: &DomainRegistry,
    ) -> PolicyAction {
        let class = (meta.sensitivity, meta.purposes, meta.origin);
        let known = self.rows.get(..self.len).unwrap_or_default();
        if let Some((_, action)) = known.iter().find(|(c, _)| *c == class) {
            return *action;
        }
        let ctx = FlowContext { meta, from, to };
        let action = policy.decide(&ctx, registry).0;
        if let Some(row) = self.rows.get_mut(self.len) {
            *row = (class, action);
            self.len += 1;
        }
        action
    }
}

/// One stored record with its LWW version.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreEntry {
    /// The record.
    pub record: DataRecord,
    /// Write timestamp (LWW major key).
    pub written_at: SimTime,
    /// Writing replica (LWW tie-break).
    pub writer: ReplicaId,
}

/// An anti-entropy push message. Cloning one, or sending the same round's
/// push to a second peer of the same domain, shares `entries`.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncMsg {
    /// Domain of the sending store (receivers re-check policy against it).
    pub from_domain: DomainId,
    /// The sender's key space: entry keys are ids in this space, which
    /// must be the receiver's (debug builds assert it).
    pub keys: KeySpace,
    /// The pushed entries, immutable from the moment the push was built.
    pub entries: Rc<[StoreEntry]>,
}

/// One built push: the entries that pass egress towards one peer domain,
/// and what the build blocked or redacted — added to [`StoreStats`] once
/// per target the push is sent to.
#[derive(Clone)]
struct Snapshot {
    entries: Rc<[StoreEntry]>,
    redacted: u64,
    denied: u64,
}

/// Flow-governance and work counters kept by each store. Each costs one
/// add per write, message or slab walk, never one per entry pushed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries blocked at egress.
    pub egress_denied: u64,
    /// Entries redacted at egress.
    pub egress_redacted: u64,
    /// Entries blocked at ingress (sender should not have sent them).
    pub ingress_denied: u64,
    /// Records accepted from peers.
    pub ingress_accepted: u64,
    /// Entries received pushes offered to [`ReplicatedStore::on_sync`]:
    /// those neither accepted nor denied were already held.
    pub offered: u64,
    /// Slab walks that built a push: one per [`ReplicatedStore::sync_out`]
    /// and one per peer domain of a [`ReplicatedStore::sync_round`].
    pub snapshots: u64,
    /// Local writes.
    pub local_writes: u64,
}

/// A replicated key-value store with governance enforcement.
///
/// # Examples
///
/// ```
/// use riot_data::{DataMeta, KeySpace, PolicyEngine, ReplicatedStore};
/// use riot_model::{Domain, DomainId, DomainRegistry, Jurisdiction, TrustLevel};
/// use riot_sim::SimTime;
///
/// let mut reg = DomainRegistry::new();
/// reg.register(Domain { id: DomainId(0), name: "a".into(), jurisdiction: Jurisdiction::EuGdpr });
/// reg.register(Domain { id: DomainId(1), name: "b".into(), jurisdiction: Jurisdiction::EuGdpr });
/// reg.set_trust(DomainId(0), DomainId(1), TrustLevel::Trusted);
///
/// let keys = KeySpace::new();
/// let occupancy = keys.intern("zone/occupancy");
/// let mut src = ReplicatedStore::with_keys(0, DomainId(0), PolicyEngine::governed(), keys.clone());
/// let mut dst = ReplicatedStore::with_keys(1, DomainId(1), PolicyEngine::governed(), keys);
/// let meta = DataMeta::operational(DomainId(0), SimTime::ZERO);
/// src.put_key(occupancy, 17.0, meta, SimTime::ZERO);
///
/// let msg = src.sync_out(DomainId(1), &reg, SimTime::ZERO);
/// dst.on_sync(msg, &reg, SimTime::from_millis(5));
/// assert_eq!(dst.get_key(occupancy).map(|r| r.value), Some(17.0));
/// ```
#[derive(Debug, Clone)]
pub struct ReplicatedStore {
    replica: ReplicaId,
    domain: DomainId,
    policy: PolicyEngine,
    keys: KeySpace,
    /// Slab indexed by `DataKey::index()`.
    slots: Vec<Option<StoreEntry>>,
    /// Number of occupied slots.
    live: usize,
    /// Resting non-redacted Personal-or-worse entries, counted per origin
    /// domain — makes [`ReplicatedStore::privacy_violations`] O(#origins)
    /// instead of O(entries). Invariant: for every origin `d`, the count
    /// equals the number of occupied slots whose record is a violation
    /// candidate (see [`is_violation_candidate`]) with `origin == d`.
    personal_by_origin: Vec<(DomainId, u32)>,
    stats: StoreStats,
}

/// `true` when a resting record would count as a privacy violation in any
/// domain that is neither its origin nor trusted by it.
fn is_violation_candidate(record: &DataRecord) -> bool {
    !record.is_redacted() && record.meta.sensitivity >= Sensitivity::Personal
}

impl ReplicatedStore {
    /// Creates an empty store owned by `domain` over the run's key space.
    /// Every store that syncs with this one must share `keys`.
    pub fn with_keys(
        replica: ReplicaId,
        domain: DomainId,
        policy: PolicyEngine,
        keys: KeySpace,
    ) -> Self {
        ReplicatedStore {
            replica,
            domain,
            policy,
            keys,
            slots: Vec::new(),
            live: 0,
            personal_by_origin: Vec::new(),
            stats: StoreStats::default(),
        }
    }

    /// The domain this store lives in.
    pub fn domain(&self) -> DomainId {
        self.domain
    }

    /// The key space this store's ids live in.
    pub fn keys(&self) -> &KeySpace {
        &self.keys
    }

    /// Governance counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Moves the store to a new domain (the domain-transfer disruption).
    pub fn set_domain(&mut self, domain: DomainId) {
        self.domain = domain;
    }

    fn personal_add(&mut self, origin: DomainId) {
        match self
            .personal_by_origin
            .iter_mut()
            .find(|(d, _)| *d == origin)
        {
            Some((_, n)) => *n += 1,
            None => self.personal_by_origin.push((origin, 1)),
        }
    }

    fn personal_remove(&mut self, origin: DomainId) {
        if let Some((_, n)) = self
            .personal_by_origin
            .iter_mut()
            .find(|(d, _)| *d == origin)
        {
            *n = n.saturating_sub(1);
        }
    }

    /// Ingests a record arriving from a producer (a device pushing a
    /// reading): the governance policy is applied to the flow from the
    /// datum's *origin domain* into this store's domain. Returns the action
    /// taken — on `Deny` nothing is stored, on `Redact` a sanitized copy is.
    ///
    /// This is the paper's "the edge can manage a local privacy scope"
    /// (§VI-B): a governed edge refuses or redacts out-of-scope personal
    /// data at the door, while a permissive store accepts it verbatim.
    pub fn ingest_key(
        &mut self,
        key: DataKey,
        value: f64,
        meta: DataMeta,
        registry: &DomainRegistry,
        now: SimTime,
    ) -> PolicyAction {
        let ctx = FlowContext {
            meta: &meta,
            from: meta.origin,
            to: self.domain,
        };
        let (action, _) = self.policy.decide(&ctx, registry);
        match action {
            PolicyAction::Allow => self.put_key(key, value, meta, now),
            PolicyAction::Redact => {
                let record = DataRecord::new(key, value, meta).redacted();
                self.stats.local_writes += 1;
                self.apply(StoreEntry {
                    record,
                    written_at: now,
                    writer: self.replica,
                });
            }
            PolicyAction::Deny => {
                self.stats.ingress_denied += 1;
            }
        }
        action
    }

    /// Writes a record locally.
    pub fn put_key(&mut self, key: DataKey, value: f64, meta: DataMeta, now: SimTime) {
        self.stats.local_writes += 1;
        let entry = StoreEntry {
            record: DataRecord::new(key, value, meta),
            written_at: now,
            writer: self.replica,
        };
        self.apply(entry);
    }

    /// Reads a record — a direct slot probe.
    pub fn get_key(&self, key: DataKey) -> Option<&DataRecord> {
        self.slots
            .get(key.index())
            .and_then(|slot| slot.as_ref())
            .map(|e| &e.record)
    }

    /// Seconds since the record was produced, or `None` when absent.
    pub fn staleness_secs_key(&self, key: DataKey, now: SimTime) -> Option<f64> {
        self.get_key(key).map(|r| r.meta.age_secs(now))
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over occupied entries in dense-id (registration) order.
    /// Resolve names through [`ReplicatedStore::keys`] when needed.
    pub fn iter(&self) -> impl Iterator<Item = (DataKey, &StoreEntry)> {
        self.slots.iter().flatten().map(|e| (e.record.key, e))
    }

    /// `true` when `offered`'s slot already holds its version or a later
    /// one — merging `offered` would change nothing.
    fn holds_version_of(&self, offered: &StoreEntry) -> bool {
        matches!(
            self.slots.get(offered.record.key.index()),
            Some(Some(held))
                if (held.written_at, held.writer) >= (offered.written_at, offered.writer)
        )
    }

    /// LWW-merges `entry` into its slot. Returns `true` when local state
    /// changed.
    fn apply(&mut self, entry: StoreEntry) -> bool {
        if self.holds_version_of(&entry) {
            return false;
        }
        self.install(entry);
        true
    }

    /// Puts `entry` into its slot over whatever is there, maintaining the
    /// live count and the per-origin personal counters.
    fn install(&mut self, entry: StoreEntry) {
        let idx = entry.record.key.index();
        if self.slots.len() <= idx {
            // riot-lint: allow(A1, reason = "the slab grows to the key space's size (one slot per distinct key name of the run) and then never again; steady-state merges and ingests find their slot")
            self.slots.resize(idx + 1, None);
        }
        let Some(slot) = self.slots.get_mut(idx) else {
            return; // unreachable: just resized past idx
        };
        match slot.replace(entry) {
            Some(old) => {
                if is_violation_candidate(&old.record) {
                    self.personal_remove(old.record.meta.origin);
                }
            }
            None => self.live += 1,
        }
        if is_violation_candidate(&entry.record) {
            self.personal_add(entry.record.meta.origin);
        }
    }

    /// Empties slot `idx`, maintaining the counters. Returns the evicted
    /// entry, if any.
    fn evict(&mut self, idx: usize) -> Option<StoreEntry> {
        let old = self.slots.get_mut(idx).and_then(|slot| slot.take())?;
        self.live -= 1;
        if is_violation_candidate(&old.record) {
            self.personal_remove(old.record.meta.origin);
        }
        Some(old)
    }

    /// Walks the slab once and builds the push towards peers in
    /// `peer_domain`, applying egress policy per entry. Counts the walk;
    /// [`ReplicatedStore::message`] counts the egress decisions per target.
    fn snapshot(
        &mut self,
        peer_domain: DomainId,
        registry: &DomainRegistry,
        since: SimTime,
    ) -> Snapshot {
        self.stats.snapshots += 1;
        let mut entries = Vec::with_capacity(self.live);
        let mut redacted = 0;
        let mut denied = 0;
        let mut memo = DecisionMemo::new();
        for entry in self.slots.iter().flatten() {
            if since > SimTime::ZERO && entry.written_at <= since {
                continue;
            }
            match memo.decide(
                &self.policy,
                &entry.record.meta,
                self.domain,
                peer_domain,
                registry,
            ) {
                PolicyAction::Allow => entries.push(*entry),
                PolicyAction::Redact => {
                    redacted += 1;
                    entries.push(StoreEntry {
                        record: entry.record.redacted(),
                        written_at: entry.written_at,
                        writer: entry.writer,
                    });
                }
                PolicyAction::Deny => denied += 1,
            }
        }
        Snapshot {
            entries: entries.into(),
            redacted,
            denied,
        }
    }

    /// One target's message over a built push.
    fn message(&mut self, push: Snapshot) -> SyncMsg {
        self.stats.egress_redacted += push.redacted;
        self.stats.egress_denied += push.denied;
        SyncMsg {
            from_domain: self.domain,
            keys: self.keys.clone(),
            entries: push.entries,
        }
    }

    /// Builds the anti-entropy push towards a peer in `peer_domain`,
    /// applying egress policy per entry. `since` bounds the delta: only
    /// entries written strictly after it are pushed (pass
    /// [`SimTime::ZERO`] for a full push).
    pub fn sync_out(
        &mut self,
        peer_domain: DomainId,
        registry: &DomainRegistry,
        since: SimTime,
    ) -> SyncMsg {
        let push = self.snapshot(peer_domain, registry, since);
        self.message(push)
    }

    /// One anti-entropy round: [`ReplicatedStore::sync_out`] towards every
    /// `(target, its domain)` in turn, handing each non-empty message to
    /// `send` — with the slab walked once per distinct domain, and the
    /// messages towards one domain sharing their entries. Egress stats
    /// count per target, exactly as that many `sync_out` calls would.
    pub fn sync_round<T>(
        &mut self,
        targets: impl IntoIterator<Item = (T, DomainId)>,
        registry: &DomainRegistry,
        since: SimTime,
        mut send: impl FnMut(T, SyncMsg),
    ) {
        // Lives for this call only: a later round sees other contents, and
        // possibly another registry.
        let mut built: Vec<(DomainId, Snapshot)> = Vec::new();
        for (target, peer_domain) in targets {
            let push = match built.iter().find(|(d, _)| *d == peer_domain) {
                Some((_, push)) => push.clone(),
                None => {
                    let push = self.snapshot(peer_domain, registry, since);
                    built.push((peer_domain, push.clone()));
                    push
                }
            };
            let msg = self.message(push);
            if !msg.entries.is_empty() {
                send(target, msg);
            }
        }
    }

    /// Merges a received push, applying ingress policy per entry. Returns
    /// the number of entries that changed local state. The sender must
    /// share this store's key space (debug builds assert it).
    pub fn on_sync(&mut self, msg: SyncMsg, registry: &DomainRegistry, _now: SimTime) -> usize {
        debug_assert!(
            msg.keys.same_as(&self.keys),
            "SyncMsg from a store over another key space"
        );
        let mut changed = 0;
        let mut memo = DecisionMemo::new();
        self.stats.offered += msg.entries.len() as u64;
        for offered in msg.entries.iter() {
            let action = memo.decide(
                &self.policy,
                &offered.record.meta,
                msg.from_domain,
                self.domain,
                registry,
            );
            if action == PolicyAction::Deny {
                self.stats.ingress_denied += 1;
                continue;
            }
            // Most of a whole-store push is what the last one already
            // brought: settle that on the versions, before copying anything.
            if self.holds_version_of(offered) {
                continue;
            }
            let record = if action == PolicyAction::Redact {
                offered.record.redacted()
            } else {
                offered.record
            };
            self.install(StoreEntry {
                record,
                written_at: offered.written_at,
                writer: offered.writer,
            });
            changed += 1;
        }
        self.stats.ingress_accepted += changed as u64;
        changed
    }

    /// The per-target build `sync_out` was before pushes were shared, with
    /// a rule walk per entry — the oracle the property tests hold
    /// [`ReplicatedStore::sync_out`] and [`ReplicatedStore::sync_round`] to.
    #[cfg(test)]
    fn sync_out_oracle(
        &mut self,
        peer_domain: DomainId,
        registry: &DomainRegistry,
        since: SimTime,
    ) -> SyncMsg {
        self.stats.snapshots += 1;
        let mut entries = Vec::with_capacity(self.live);
        for entry in self.slots.iter().flatten() {
            if since > SimTime::ZERO && entry.written_at <= since {
                continue;
            }
            let ctx = FlowContext {
                meta: &entry.record.meta,
                from: self.domain,
                to: peer_domain,
            };
            match self.policy.decide(&ctx, registry).0 {
                PolicyAction::Allow => entries.push(*entry),
                PolicyAction::Redact => {
                    self.stats.egress_redacted += 1;
                    entries.push(StoreEntry {
                        record: entry.record.redacted(),
                        written_at: entry.written_at,
                        writer: entry.writer,
                    });
                }
                PolicyAction::Deny => self.stats.egress_denied += 1,
            }
        }
        SyncMsg {
            from_domain: self.domain,
            keys: self.keys.clone(),
            entries: entries.into(),
        }
    }

    /// The per-entry merge `on_sync` was: copy, rule walk, then the LWW
    /// compare inside [`ReplicatedStore::apply_oracle`] — the oracle for
    /// [`ReplicatedStore::on_sync`].
    #[cfg(test)]
    fn on_sync_oracle(&mut self, msg: SyncMsg, registry: &DomainRegistry) -> usize {
        let mut changed = 0;
        self.stats.offered += msg.entries.len() as u64;
        for mut entry in msg.entries.iter().copied() {
            let ctx = FlowContext {
                meta: &entry.record.meta,
                from: msg.from_domain,
                to: self.domain,
            };
            match self.policy.decide(&ctx, registry).0 {
                PolicyAction::Deny => {
                    self.stats.ingress_denied += 1;
                }
                PolicyAction::Redact => {
                    entry.record = entry.record.redacted();
                    if self.apply_oracle(entry) {
                        changed += 1;
                        self.stats.ingress_accepted += 1;
                    }
                }
                PolicyAction::Allow => {
                    if self.apply_oracle(entry) {
                        changed += 1;
                        self.stats.ingress_accepted += 1;
                    }
                }
            }
        }
        changed
    }

    /// `apply` as it was before the compare and the install were split.
    #[cfg(test)]
    fn apply_oracle(&mut self, entry: StoreEntry) -> bool {
        let idx = entry.record.key.index();
        if self.slots.len() <= idx {
            self.slots.resize(idx + 1, None);
        }
        let slot = &mut self.slots[idx];
        match slot {
            Some(existing)
                if (existing.written_at, existing.writer) >= (entry.written_at, entry.writer) =>
            {
                false
            }
            _ => {
                let evicted = slot.replace(entry);
                match evicted {
                    Some(old) => {
                        if is_violation_candidate(&old.record) {
                            self.personal_remove(old.record.meta.origin);
                        }
                    }
                    None => self.live += 1,
                }
                if is_violation_candidate(&entry.record) {
                    self.personal_add(entry.record.meta.origin);
                }
                true
            }
        }
    }

    /// Drops every entry — the volatile-memory semantics of a node restart
    /// (stats are preserved; they describe the component's lifetime).
    /// Anti-entropy subsequently repopulates the store from peers, which is
    /// precisely the recovery path replication buys.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.live = 0;
        self.personal_by_origin.clear();
    }

    /// Evicts every resting record that currently constitutes a privacy
    /// violation (see [`ReplicatedStore::privacy_violations`]) and returns
    /// how many were purged. A governed component calls this after a
    /// domain transfer: data legitimately held in the old domain may be
    /// out of scope in the new one.
    pub fn purge_violations(&mut self, registry: &DomainRegistry) -> usize {
        if self.privacy_violations(registry) == 0 {
            return 0;
        }
        let domain = self.domain;
        let mut purged = 0;
        for idx in 0..self.slots.len() {
            let Some(entry) = self.slots.get(idx).and_then(|s| s.as_ref()) else {
                continue;
            };
            let violating = is_violation_candidate(&entry.record)
                && entry.record.meta.origin != domain
                && registry.trust(entry.record.meta.origin, domain) < TrustLevel::Trusted;
            if violating && self.evict(idx).is_some() {
                purged += 1;
            }
        }
        purged
    }

    /// Audit: counts resting records that constitute privacy violations —
    /// personal-or-worse data sitting in a domain other than its origin
    /// whose trust relation with the origin is below `Trusted`. O(#origin
    /// domains) via the maintained per-origin counters.
    pub fn privacy_violations(&self, registry: &DomainRegistry) -> usize {
        self.personal_by_origin
            .iter()
            .filter(|(origin, _)| {
                *origin != self.domain && registry.trust(*origin, self.domain) < TrustLevel::Trusted
            })
            .map(|(_, n)| *n as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::PurposeSet;
    use riot_model::{Domain, Jurisdiction};
    use riot_sim::SimRng;

    fn registry() -> DomainRegistry {
        let mut reg = DomainRegistry::new();
        reg.register(Domain {
            id: DomainId(0),
            name: "city".into(),
            jurisdiction: Jurisdiction::EuGdpr,
        });
        reg.register(Domain {
            id: DomainId(1),
            name: "vendor".into(),
            jurisdiction: Jurisdiction::UsCcpa,
        });
        reg.set_trust(DomainId(0), DomainId(1), TrustLevel::Partner);
        reg
    }

    /// A store over `keys`: every store of a test shares one space, as
    /// every store of a run does.
    fn store(
        keys: &KeySpace,
        replica: ReplicaId,
        domain: u32,
        policy: PolicyEngine,
    ) -> ReplicatedStore {
        ReplicatedStore::with_keys(replica, DomainId(domain), policy, keys.clone())
    }

    #[test]
    fn local_write_and_read() {
        let keys = KeySpace::new();
        let (k, missing) = (keys.intern("k"), keys.intern("missing"));
        let mut s = store(&keys, 0, 0, PolicyEngine::permissive());
        s.put_key(
            k,
            1.5,
            DataMeta::operational(DomainId(0), SimTime::ZERO),
            SimTime::ZERO,
        );
        assert_eq!(s.get_key(k).unwrap().value, 1.5);
        assert_eq!(s.len(), 1);
        assert_eq!(s.stats().local_writes, 1);
        assert_eq!(s.staleness_secs_key(k, SimTime::from_secs(4)), Some(4.0));
        assert_eq!(s.staleness_secs_key(missing, SimTime::ZERO), None);
        assert!(s.get_key(missing).is_none());
    }

    #[test]
    fn lww_merge_keeps_freshest() {
        let reg = registry();
        let keys = KeySpace::new();
        let k = keys.intern("k");
        let mut a = store(&keys, 0, 0, PolicyEngine::permissive());
        let mut b = store(&keys, 1, 0, PolicyEngine::permissive());
        a.put_key(
            k,
            1.0,
            DataMeta::operational(DomainId(0), SimTime::ZERO),
            SimTime::from_secs(1),
        );
        b.put_key(
            k,
            2.0,
            DataMeta::operational(DomainId(0), SimTime::ZERO),
            SimTime::from_secs(2),
        );
        // Push the older into the newer: no change.
        let msg = a.sync_out(DomainId(0), &reg, SimTime::ZERO);
        assert_eq!(b.on_sync(msg, &reg, SimTime::from_secs(3)), 0);
        assert_eq!(b.get_key(k).unwrap().value, 2.0);
        // Push the newer into the older: replaced.
        let msg = b.sync_out(DomainId(0), &reg, SimTime::ZERO);
        assert_eq!(a.on_sync(msg, &reg, SimTime::from_secs(3)), 1);
        assert_eq!(a.get_key(k).unwrap().value, 2.0);
    }

    #[test]
    fn bidirectional_sync_converges() {
        let reg = registry();
        let keys = KeySpace::new();
        let mut a = store(&keys, 0, 0, PolicyEngine::permissive());
        let mut b = store(&keys, 1, 0, PolicyEngine::permissive());
        for i in 0..10 {
            a.put_key(
                keys.intern(&format!("a/{i}")),
                i as f64,
                DataMeta::operational(DomainId(0), SimTime::ZERO),
                SimTime::from_secs(i),
            );
            b.put_key(
                keys.intern(&format!("b/{i}")),
                i as f64,
                DataMeta::operational(DomainId(0), SimTime::ZERO),
                SimTime::from_secs(i),
            );
        }
        let m1 = a.sync_out(DomainId(0), &reg, SimTime::ZERO);
        b.on_sync(m1, &reg, SimTime::from_secs(20));
        let m2 = b.sync_out(DomainId(0), &reg, SimTime::ZERO);
        a.on_sync(m2, &reg, SimTime::from_secs(20));
        assert_eq!(a.len(), 20);
        assert_eq!(b.len(), 20);
        let entries = |s: &ReplicatedStore| s.iter().map(|(_, e)| *e).collect::<Vec<_>>();
        assert_eq!(entries(&a), entries(&b), "same keys, same versions");
    }

    #[test]
    fn egress_policy_blocks_personal_data() {
        let reg = registry();
        let keys = KeySpace::new();
        let (hr, temp) = (keys.intern("hr"), keys.intern("temp"));
        let mut src = store(&keys, 0, 0, PolicyEngine::governed());
        src.put_key(
            hr,
            70.0,
            DataMeta::personal(DomainId(0), SimTime::ZERO),
            SimTime::ZERO,
        );
        src.put_key(
            temp,
            21.0,
            DataMeta::operational(DomainId(0), SimTime::ZERO),
            SimTime::ZERO,
        );
        let msg = src.sync_out(DomainId(1), &reg, SimTime::ZERO);
        assert_eq!(msg.entries.len(), 1, "only the operational record flows");
        assert_eq!(msg.entries[0].record.key, temp);
        assert_eq!(src.stats().egress_denied, 1);
    }

    #[test]
    fn ingress_policy_is_defense_in_depth() {
        let reg = registry();
        let keys = KeySpace::new();
        // The sender is ungoverned and leaks personal data…
        let mut src = store(&keys, 0, 0, PolicyEngine::permissive());
        src.put_key(
            keys.intern("hr"),
            70.0,
            DataMeta::personal(DomainId(0), SimTime::ZERO),
            SimTime::ZERO,
        );
        let msg = src.sync_out(DomainId(1), &reg, SimTime::ZERO);
        assert_eq!(msg.entries.len(), 1, "permissive egress leaks");
        // …but a governed receiver refuses it.
        let mut dst = store(&keys, 1, 1, PolicyEngine::governed());
        assert_eq!(dst.on_sync(msg.clone(), &reg, SimTime::ZERO), 0);
        assert_eq!(dst.stats().ingress_denied, 1);
        assert_eq!(dst.privacy_violations(&reg), 0);
        // An ungoverned receiver accepts it: that *is* the violation E5 counts.
        let mut leaky = store(&keys, 2, 1, PolicyEngine::permissive());
        assert_eq!(leaky.on_sync(msg, &reg, SimTime::ZERO), 1);
        assert_eq!(leaky.privacy_violations(&reg), 1);
    }

    #[test]
    fn redaction_flows_and_does_not_count_as_violation() {
        let reg = registry();
        let keys = KeySpace::new();
        let mut src = store(&keys, 0, 0, PolicyEngine::governed());
        let meta = DataMeta {
            sensitivity: Sensitivity::Special,
            purposes: PurposeSet::EMPTY,
            origin: DomainId(0),
            produced_at: SimTime::ZERO,
        };
        src.put_key(keys.intern("dna"), 1.0, meta, SimTime::ZERO);
        let msg = src.sync_out(DomainId(1), &reg, SimTime::ZERO);
        assert_eq!(msg.entries.len(), 1);
        assert!(msg.entries[0].record.is_redacted());
        assert_eq!(src.stats().egress_redacted, 1);
        let mut dst = store(&keys, 1, 1, PolicyEngine::permissive());
        dst.on_sync(msg, &reg, SimTime::ZERO);
        assert_eq!(
            dst.privacy_violations(&reg),
            0,
            "redacted data is sanitized"
        );
    }

    #[test]
    fn delta_sync_respects_since() {
        let reg = registry();
        let keys = KeySpace::new();
        let (old, new) = (keys.intern("old"), keys.intern("new"));
        let mut s = store(&keys, 0, 0, PolicyEngine::permissive());
        s.put_key(
            old,
            1.0,
            DataMeta::operational(DomainId(0), SimTime::ZERO),
            SimTime::from_secs(1),
        );
        s.put_key(
            new,
            2.0,
            DataMeta::operational(DomainId(0), SimTime::ZERO),
            SimTime::from_secs(5),
        );
        let msg = s.sync_out(DomainId(0), &reg, SimTime::from_secs(3));
        assert_eq!(msg.entries.len(), 1);
        assert_eq!(msg.entries[0].record.key, new);
        let full = s.sync_out(DomainId(0), &reg, SimTime::ZERO);
        assert_eq!(full.entries.len(), 2);
    }

    #[test]
    fn shared_keyspace_sync_needs_no_translation() {
        let reg = registry();
        let keys = KeySpace::new();
        let mut a = store(&keys, 0, 0, PolicyEngine::permissive());
        let mut b = store(&keys, 1, 0, PolicyEngine::permissive());
        let k = keys.intern("shared/k");
        a.put_key(
            k,
            7.0,
            DataMeta::operational(DomainId(0), SimTime::ZERO),
            SimTime::from_secs(1),
        );
        let msg = a.sync_out(DomainId(0), &reg, SimTime::ZERO);
        assert!(msg.keys.same_as(b.keys()));
        assert_eq!(b.on_sync(msg, &reg, SimTime::from_secs(2)), 1);
        assert_eq!(b.get_key(k).map(|r| r.value), Some(7.0));
        assert_eq!(keys.len(), 1, "no re-interning happened");
    }

    /// A push between stores over two key spaces would merge one name's
    /// record under another name's slot: debug builds refuse it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "another key space")]
    fn a_push_from_a_foreign_key_space_trips_the_assertion() {
        let reg = registry();
        let (ours, theirs) = (KeySpace::new(), KeySpace::new());
        let mut src = store(&theirs, 0, 0, PolicyEngine::permissive());
        src.put_key(
            theirs.intern("k"),
            1.0,
            DataMeta::operational(DomainId(0), SimTime::ZERO),
            SimTime::from_secs(1),
        );
        let msg = src.sync_out(DomainId(0), &reg, SimTime::ZERO);
        store(&ours, 1, 0, PolicyEngine::permissive()).on_sync(msg, &reg, SimTime::ZERO);
    }

    #[test]
    fn ingest_applies_policy_at_the_door() {
        let reg = registry();
        let keys = KeySpace::new();
        let (hr, temp) = (keys.intern("hr"), keys.intern("temp"));
        // A governed vendor-domain store refuses personal data originating
        // in the city domain, even on a direct device push.
        let mut governed = store(&keys, 0, 1, PolicyEngine::governed());
        let action = governed.ingest_key(
            hr,
            70.0,
            DataMeta::personal(DomainId(0), SimTime::ZERO),
            &reg,
            SimTime::ZERO,
        );
        assert_eq!(action, PolicyAction::Deny);
        assert!(governed.is_empty());
        assert_eq!(governed.stats().ingress_denied, 1);
        // Operational data is ingested normally.
        let action = governed.ingest_key(
            temp,
            20.0,
            DataMeta::operational(DomainId(1), SimTime::ZERO),
            &reg,
            SimTime::ZERO,
        );
        assert_eq!(action, PolicyAction::Allow);
        assert_eq!(governed.len(), 1);
        // A permissive store accepts the personal push: the E5 violation.
        let mut leaky = store(&keys, 1, 1, PolicyEngine::permissive());
        leaky.ingest_key(
            hr,
            70.0,
            DataMeta::personal(DomainId(0), SimTime::ZERO),
            &reg,
            SimTime::ZERO,
        );
        assert_eq!(leaky.privacy_violations(&reg), 1);
    }

    #[test]
    fn ingest_redacts_special_category() {
        let reg = registry();
        let keys = KeySpace::new();
        let dna = keys.intern("dna");
        let mut s = store(&keys, 0, 1, PolicyEngine::governed());
        let meta = DataMeta {
            sensitivity: Sensitivity::Special,
            purposes: PurposeSet::EMPTY,
            origin: DomainId(0),
            produced_at: SimTime::ZERO,
        };
        let action = s.ingest_key(dna, 1.0, meta, &reg, SimTime::ZERO);
        assert_eq!(action, PolicyAction::Redact);
        assert!(s.get_key(dna).unwrap().is_redacted());
        assert_eq!(s.privacy_violations(&reg), 0);
    }

    #[test]
    fn domain_transfer_changes_audit_result() {
        let reg = registry();
        let keys = KeySpace::new();
        let mut s = store(&keys, 0, 0, PolicyEngine::permissive());
        s.put_key(
            keys.intern("hr"),
            70.0,
            DataMeta::personal(DomainId(0), SimTime::ZERO),
            SimTime::ZERO,
        );
        assert_eq!(s.privacy_violations(&reg), 0, "at home, no violation");
        // The store's node is transferred to the vendor domain (§II's
        // "transfer of administrative domains").
        s.set_domain(DomainId(1));
        assert_eq!(
            s.privacy_violations(&reg),
            1,
            "resting personal data now out of scope"
        );
    }

    #[test]
    fn violation_counters_track_overwrites() {
        let reg = registry();
        let keys = KeySpace::new();
        let k = keys.intern("k");
        let mut s = store(&keys, 0, 1, PolicyEngine::permissive());
        // A personal record from the city domain: one violation.
        s.put_key(
            k,
            1.0,
            DataMeta::personal(DomainId(0), SimTime::ZERO),
            SimTime::from_secs(1),
        );
        assert_eq!(s.privacy_violations(&reg), 1);
        // Overwritten by an operational record: the violation is gone.
        s.put_key(
            k,
            2.0,
            DataMeta::operational(DomainId(1), SimTime::from_secs(2)),
            SimTime::from_secs(2),
        );
        assert_eq!(s.privacy_violations(&reg), 0);
        assert_eq!(s.len(), 1, "overwrite, not insert");
        // And back: counted again.
        s.put_key(
            k,
            3.0,
            DataMeta::personal(DomainId(0), SimTime::from_secs(3)),
            SimTime::from_secs(3),
        );
        assert_eq!(s.privacy_violations(&reg), 1);
        s.clear();
        assert_eq!(s.privacy_violations(&reg), 0);
    }

    #[test]
    fn clear_models_volatile_restart() {
        let reg = registry();
        let keys = KeySpace::new();
        let k = keys.intern("k");
        let mut a = store(&keys, 0, 0, PolicyEngine::permissive());
        let mut b = store(&keys, 1, 0, PolicyEngine::permissive());
        a.put_key(
            k,
            5.0,
            DataMeta::operational(DomainId(0), SimTime::ZERO),
            SimTime::from_secs(1),
        );
        let msg = a.sync_out(DomainId(0), &reg, SimTime::ZERO);
        b.on_sync(msg, &reg, SimTime::from_secs(2));
        assert_eq!(b.len(), 1);
        // b restarts: volatile memory gone…
        b.clear();
        assert!(b.is_empty());
        // …and the next anti-entropy round restores it.
        let msg = a.sync_out(DomainId(0), &reg, SimTime::ZERO);
        b.on_sync(msg, &reg, SimTime::from_secs(3));
        assert_eq!(b.get_key(k).map(|r| r.value), Some(5.0));
    }

    #[test]
    fn purge_evicts_exactly_the_violations() {
        let reg = registry();
        let keys = KeySpace::new();
        let (hr, temp) = (keys.intern("hr"), keys.intern("temp"));
        let mut s = store(&keys, 0, 0, PolicyEngine::permissive());
        s.put_key(
            hr,
            70.0,
            DataMeta::personal(DomainId(0), SimTime::ZERO),
            SimTime::ZERO,
        );
        s.put_key(
            temp,
            20.0,
            DataMeta::operational(DomainId(0), SimTime::ZERO),
            SimTime::ZERO,
        );
        assert_eq!(s.purge_violations(&reg), 0, "nothing to purge at home");
        s.set_domain(DomainId(1));
        assert_eq!(
            s.purge_violations(&reg),
            1,
            "personal record evicted after transfer"
        );
        assert_eq!(s.privacy_violations(&reg), 0);
        assert!(s.get_key(temp).is_some(), "operational data survives");
        assert!(s.get_key(hr).is_none());
    }

    /// Everything of an entry that can differ, with the value by bit
    /// pattern (a redacted value is NaN, which `==` would never match).
    type EntryPrint = (usize, u64, DataMeta, SimTime, ReplicaId);

    fn print(e: &StoreEntry) -> EntryPrint {
        let r = &e.record;
        (
            r.key.index(),
            r.value.to_bits(),
            r.meta,
            e.written_at,
            e.writer,
        )
    }

    fn prints(entries: &[StoreEntry]) -> Vec<EntryPrint> {
        entries.iter().map(print).collect()
    }

    /// A store's counters with its slab walks set aside: the shared push
    /// walks once per round and domain, the oracle once per target.
    fn flows(stats: StoreStats) -> StoreStats {
        StoreStats {
            snapshots: 0,
            ..stats
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// (store, key, sensitivity, origin): a device push through the door.
        Ingest(usize, u8, Sensitivity, DomainId),
        /// (store, key, sensitivity, origin): a local write.
        Put(usize, u8, Sensitivity, DomainId),
        /// (from, to, since in seconds): a one-target push, 0 = whole store.
        Push(usize, usize, u64),
        /// One round from this store to every other one.
        Round(usize),
        /// Delivers the picked message in flight; `true` leaves it in
        /// flight as well, to arrive a second time.
        Deliver(usize, bool),
        /// Loses the picked message in flight.
        Lose(usize),
        Clear(usize),
        SetDomain(usize, DomainId),
        Purge(usize),
    }

    fn random_op(rng: &mut SimRng, stores: usize) -> Op {
        let store = rng.range_u64(0, stores as u64) as usize;
        let key = rng.range_u64(0, 12) as u8;
        let sensitivity = [
            Sensitivity::Internal,
            Sensitivity::Internal,
            Sensitivity::Personal,
            Sensitivity::Special,
        ][rng.range_u64(0, 4) as usize];
        let domain = DomainId(rng.range_u64(0, 2) as u32);
        let pick = rng.next_u64() as usize;
        match rng.range_u64(0, 100) {
            0..=19 => Op::Ingest(store, key, sensitivity, domain),
            20..=34 => Op::Put(store, key, sensitivity, domain),
            35..=44 => {
                let since = if rng.chance(0.3) {
                    rng.range_u64(1, 40)
                } else {
                    0
                };
                Op::Push(store, rng.range_u64(0, stores as u64) as usize, since)
            }
            45..=59 => Op::Round(store),
            60..=81 => Op::Deliver(pick, rng.chance(0.25)),
            82..=85 => Op::Lose(pick),
            86..=87 => Op::Clear(store),
            88..=94 => Op::SetDomain(store, domain),
            _ => Op::Purge(store),
        }
    }

    fn engine(governed: bool) -> PolicyEngine {
        if governed {
            PolicyEngine::governed()
        } else {
            PolicyEngine::permissive()
        }
    }

    /// A few stores in two domains with messages in flight between them,
    /// driven either through the shipped sync path or through the oracles.
    struct World {
        oracle: bool,
        keys: KeySpace,
        stores: Vec<ReplicatedStore>,
        in_flight: Vec<(usize, SyncMsg)>,
        /// Every message built and every `on_sync` return value, in order.
        built: Vec<(DomainId, Vec<EntryPrint>)>,
        merged: Vec<usize>,
    }

    impl World {
        fn new(oracle: bool, governed: &[bool]) -> World {
            let keys = KeySpace::new();
            let stores = governed
                .iter()
                .enumerate()
                .map(|(i, g)| store(&keys, i as ReplicaId, i as u32 % 2, engine(*g)))
                .collect();
            World {
                oracle,
                keys,
                stores,
                in_flight: Vec::new(),
                built: Vec::new(),
                merged: Vec::new(),
            }
        }

        fn sent(&mut self, to: usize, msg: SyncMsg) {
            self.built.push((msg.from_domain, prints(&msg.entries)));
            self.in_flight.push((to, msg));
        }

        fn step(&mut self, op: Op, reg: &DomainRegistry, now: SimTime) {
            let meta = |sensitivity, origin| DataMeta {
                sensitivity,
                purposes: PurposeSet::only(crate::item::Purpose::Operations),
                origin,
                produced_at: now,
            };
            match op {
                Op::Ingest(s, key, sensitivity, origin) => {
                    let k = self.keys.intern(&format!("k{key}"));
                    self.stores[s].ingest_key(k, key as f64, meta(sensitivity, origin), reg, now);
                }
                Op::Put(s, key, sensitivity, origin) => {
                    let k = self.keys.intern(&format!("k{key}"));
                    self.stores[s].put_key(k, now.as_secs_f64(), meta(sensitivity, origin), now);
                }
                Op::Push(from, to, since) => {
                    let (domain, since) = (self.stores[to].domain(), SimTime::from_secs(since));
                    let msg = if self.oracle {
                        self.stores[from].sync_out_oracle(domain, reg, since)
                    } else {
                        self.stores[from].sync_out(domain, reg, since)
                    };
                    self.sent(to, msg);
                }
                Op::Round(from) => {
                    let targets: Vec<(usize, DomainId)> = (0..self.stores.len())
                        .filter(|to| *to != from)
                        .map(|to| (to, self.stores[to].domain()))
                        .collect();
                    let mut msgs = Vec::new();
                    if self.oracle {
                        for (to, domain) in targets {
                            let msg = self.stores[from].sync_out_oracle(domain, reg, SimTime::ZERO);
                            if !msg.entries.is_empty() {
                                msgs.push((to, msg));
                            }
                        }
                    } else {
                        self.stores[from].sync_round(targets, reg, SimTime::ZERO, |to, msg| {
                            msgs.push((to, msg))
                        });
                    }
                    for (to, msg) in msgs {
                        self.sent(to, msg);
                    }
                }
                Op::Deliver(pick, again) => {
                    if self.in_flight.is_empty() {
                        return;
                    }
                    let at = pick % self.in_flight.len();
                    let (to, msg) = if again {
                        self.in_flight[at].clone()
                    } else {
                        // The last message takes its place: arrival order
                        // is not sending order.
                        self.in_flight.swap_remove(at)
                    };
                    let changed = if self.oracle {
                        self.stores[to].on_sync_oracle(msg, reg)
                    } else {
                        self.stores[to].on_sync(msg, reg, now)
                    };
                    self.merged.push(changed);
                }
                Op::Lose(pick) => {
                    if !self.in_flight.is_empty() {
                        let at = pick % self.in_flight.len();
                        self.in_flight.swap_remove(at);
                    }
                }
                Op::Clear(s) => self.stores[s].clear(),
                Op::SetDomain(s, domain) => self.stores[s].set_domain(domain),
                Op::Purge(s) => {
                    self.stores[s].purge_violations(reg);
                }
            }
        }
    }

    /// The shipped sync path — one snapshot per round and domain, shared
    /// entries, version-first merge, inline memo — against the per-target
    /// build and per-entry merge it replaced, over random histories with
    /// lost, repeated and reordered messages: same messages, same slots,
    /// same stats, same return values.
    #[test]
    fn shared_pushes_and_version_first_merges_match_the_oracle() {
        let reg = registry();
        for seed in 0..32 {
            let mut rng = SimRng::seed_from(0xDA7A_0000 + seed);
            let stores = 3 + seed as usize % 2;
            // Seeds 0-7 all permissive, 8-15 all governed, then mixed.
            let governed: Vec<bool> = (0..stores)
                .map(|_| match seed / 8 {
                    0 => false,
                    1 => true,
                    _ => rng.chance(0.5),
                })
                .collect();
            let mut shipped = World::new(false, &governed);
            let mut oracle = World::new(true, &governed);
            let mut clock = 0;
            for step in 0..rng.range_u64(40, 160) {
                // Stand still now and then: equal write times make the
                // writer id decide.
                if rng.chance(0.7) {
                    clock += 1;
                }
                let op = random_op(&mut rng, stores);
                let now = SimTime::from_secs(clock);
                shipped.step(op, &reg, now);
                oracle.step(op, &reg, now);
                let at = format!("seed {seed}, step {step}: {op:?}");
                assert_eq!(shipped.built, oracle.built, "messages, {at}");
                assert_eq!(shipped.merged, oracle.merged, "on_sync results, {at}");
                for (a, b) in shipped.stores.iter().zip(&oracle.stores) {
                    let slots = |s: &ReplicatedStore| s.iter().map(|(_, e)| print(e)).collect();
                    let (sa, sb): (Vec<_>, Vec<_>) = (slots(a), slots(b));
                    assert_eq!(sa, sb, "slots, {at}");
                    assert_eq!(a.len(), b.len(), "live, {at}");
                    assert_eq!(flows(a.stats()), flows(b.stats()), "stats, {at}");
                    let walks = (a.stats().snapshots, b.stats().snapshots);
                    assert!(walks.0 <= walks.1, "slab walks {walks:?}, {at}");
                    assert_eq!(
                        a.privacy_violations(&reg),
                        b.privacy_violations(&reg),
                        "audit, {at}"
                    );
                }
            }
        }
    }

    /// More classes than the memo has rows: the overflow is decided by the
    /// rule walk, class by class.
    #[test]
    fn a_full_memo_still_decides_every_class() {
        use crate::item::Purpose::{Analytics, Marketing, Operations, Research};
        let reg = registry();
        let keys = KeySpace::new();
        let mut src = store(&keys, 0, 0, PolicyEngine::governed());
        // 16 purpose sets x 2 sensitivities, neighbours never of one class.
        for i in 0..64u8 {
            let purposes = [Operations, Analytics, Research, Marketing]
                .into_iter()
                .enumerate()
                .filter(|(bit, _)| (i / 2) >> bit & 1 == 1)
                .map(|(_, p)| p)
                .collect();
            let meta = DataMeta {
                sensitivity: match i % 2 {
                    0 => Sensitivity::Internal,
                    _ => Sensitivity::Personal,
                },
                purposes,
                origin: DomainId(0),
                produced_at: SimTime::ZERO,
            };
            let k = keys.intern(&format!("k{i}"));
            src.put_key(k, i as f64, meta, SimTime::from_secs(1));
        }
        let mut twin = src.clone();
        let msg = src.sync_out(DomainId(1), &reg, SimTime::ZERO);
        let want = twin.sync_out_oracle(DomainId(1), &reg, SimTime::ZERO);
        assert_eq!(msg.entries.len(), 32, "the internal half flows");
        assert_eq!(prints(&msg.entries), prints(&want.entries));
        assert_eq!(src.stats(), twin.stats());
        assert_eq!(src.stats().snapshots, 1);
    }

    /// Ten targets in two domains: two slab walks, five messages sharing
    /// each result, and the egress stats of ten one-target pushes.
    #[test]
    fn a_round_builds_one_snapshot_per_peer_domain() {
        let reg = registry();
        let keys = KeySpace::new();
        let mut src = store(&keys, 0, 0, PolicyEngine::governed());
        for i in 0..30u8 {
            let mut meta = DataMeta::operational(DomainId(0), SimTime::ZERO);
            meta.sensitivity = match i % 3 {
                0 => Sensitivity::Internal,
                1 => Sensitivity::Personal,
                _ => Sensitivity::Special,
            };
            let k = keys.intern(&format!("k{i}"));
            src.put_key(k, i as f64, meta, SimTime::from_secs(1));
        }
        let targets: Vec<(usize, DomainId)> =
            (0..10).map(|t| (t, DomainId(t as u32 % 2))).collect();
        let mut twin = src.clone();
        let want: Vec<SyncMsg> = targets
            .iter()
            .map(|(_, d)| twin.sync_out_oracle(*d, &reg, SimTime::ZERO))
            .collect();

        let mut got = Vec::new();
        src.sync_round(targets, &reg, SimTime::ZERO, |to, msg| got.push((to, msg)));
        assert_eq!(src.stats().snapshots, 2);
        assert_eq!(twin.stats().snapshots, 10, "the oracle walks per target");

        assert_eq!(got.len(), 10);
        for (i, (to, msg)) in got.iter().enumerate() {
            assert_eq!(*to, i, "targets are served in the order given");
            assert_eq!(prints(&msg.entries), prints(&want[i].entries));
            let shares = Rc::ptr_eq(&msg.entries, &got[i % 2].1.entries);
            assert!(shares, "target {i} shares its domain's first push");
        }
        assert!(!Rc::ptr_eq(&got[0].1.entries, &got[1].1.entries));
        assert_eq!(got[0].1.entries.len(), 30, "at home everything flows");
        assert_eq!(got[1].1.entries.len(), 20, "abroad: personal data stays");
        assert_eq!(
            flows(src.stats()),
            flows(twin.stats()),
            "counted per target"
        );
        assert_eq!(src.stats().egress_denied, 5 * 10);
        assert_eq!(src.stats().egress_redacted, 5 * 10);
    }

    /// A message in flight is what the sender held when the round ran,
    /// whatever the sender does afterwards.
    #[test]
    fn a_held_message_is_not_changed_by_later_writes() {
        let reg = registry();
        let keys = KeySpace::new();
        let k: Vec<DataKey> = (0..8).map(|i| keys.intern(&format!("k{i}"))).collect();
        let k_new = keys.intern("k-new");
        let mut src = store(&keys, 0, 0, PolicyEngine::permissive());
        let meta = DataMeta::operational(DomainId(0), SimTime::ZERO);
        for (i, &k) in k.iter().enumerate() {
            src.put_key(k, i as f64, meta, SimTime::from_secs(1));
        }
        let mut held = Vec::new();
        let targets = [(1, DomainId(0)), (2, DomainId(0))];
        src.sync_round(targets, &reg, SimTime::ZERO, |_, msg| held.push(msg));
        let sent = prints(&held[0].entries);

        for &k in &k {
            src.put_key(k, 100.0, meta, SimTime::from_secs(2));
        }
        src.put_key(k_new, 1.0, meta, SimTime::from_secs(2));
        let later = src.sync_out(DomainId(0), &reg, SimTime::ZERO);
        src.clear();

        assert_eq!(later.entries.len(), 9);
        for msg in &held {
            assert_eq!(prints(&msg.entries), sent);
        }
        let mut dst = store(&keys, 1, 0, PolicyEngine::permissive());
        assert_eq!(dst.on_sync(held.remove(0), &reg, SimTime::from_secs(3)), 8);
        assert_eq!(dst.get_key(k[3]).map(|r| r.value), Some(3.0));
        assert_eq!(dst.get_key(k_new), None);
        // The second copy offers the same eight entries, all already held.
        assert_eq!(dst.on_sync(held.remove(0), &reg, SimTime::from_secs(3)), 0);
        let stats = dst.stats();
        assert_eq!((stats.offered, stats.ingress_accepted), (16, 8));
        assert_eq!((stats.ingress_denied, stats.snapshots), (0, 0));
    }
}
