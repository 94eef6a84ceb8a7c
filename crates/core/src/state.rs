//! The node-state slab: the scenario layer's scale backbone.
//!
//! The pre-slab sampler walked the whole process table every tick — one
//! `Any`-downcast, one window drain and one store slot-probe per device —
//! which is O(devices) pointer chases per sample. At 10⁵ devices that walk
//! dominates the scenario layer. The slab inverts the flow: processes
//! *push* the few scalars sampling needs into flat per-device tables as
//! they change, and [`Scenario::sample`](crate::Scenario) folds over those
//! tables instead of the process table.
//!
//! What a *device* event writes — the control window, the coverage inputs
//! and the last-sense instant — is one 32-byte [`Row`] per device, so a
//! control or sense tick dirties one slab line, not one per column. What
//! store probes write (the consumer-freshness mirror) and what only the
//! fold reads (`personal`) stay as columns: the freshness fold scans them
//! densely and never looks at a row.
//!
//! Three mechanisms keep the per-tick cost proportional to what actually
//! changed while staying bit-for-bit identical to the full rescan (the
//! `#[cfg(test)]` rescan oracle in `scenario/oracle.rs`, pinned by a property
//! test):
//!
//! - **Dirty window set.** Control-loop counters accumulate per device;
//!   devices that saw activity since the last drain set a bit in a fixed
//!   bitset (one word per 64 devices). The drain walks the words in order,
//!   so it visits dirty devices in device-index order with no sort and no
//!   allocation; skipped devices contribute exactly `0`/`0.0`, and
//!   IEEE-754 addition of `+0.0` to a non-negative running sum is the
//!   identity, so the skip cannot perturb the recorded series.
//! - **Coverage counter + monotone expiry wheel.** The covered predicate
//!   (`up ∧ serving ∧ reported within the freshness horizon`) is kept as
//!   three per-device flag bits plus a population count, updated on the
//!   transitions (liveness events from the observer bus, component state
//!   changes, senses). Passive expiry — a device becoming stale purely by time
//!   passing — is handled by a wheel of `(sense_at + horizon, slot)`
//!   entries; senses arrive in virtual-time order, so the wheel is a
//!   monotone queue and each entry is pushed and popped exactly once.
//! - **Consumer freshness mirror.** Each device's staleness-at-consumer is
//!   mirrored from the consuming store through a
//!   [`riot_data::StoreProbe`], so the per-tick freshness fold is a flat
//!   scan over two columns. The terms themselves change every tick (they
//!   age with `now`), so this fold is O(operational devices) by nature —
//!   but it is pure arithmetic over contiguous memory, not a slot probe
//!   through the process table per device. When *no* record has ever been
//!   mirrored (local-control architectures with no replication), the fold
//!   collapses to a closed form that is provably bit-identical to the
//!   scan (see `sample_fold`).

use crate::device::DeviceWindow;
use riot_data::{DataKey, StoreProbe};
use riot_sim::{EventMask, ProcessId, SimDuration, SimEvent, SimEventKind, SimObserver, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Shared handle to the scenario's node-state slab. Cloned into every
/// device process, the liveness observer and the consumer mirrors; all of
/// them run on the single simulation thread, so a `Rc<RefCell<…>>` is the
/// right ownership shape (borrows are short and never reentrant: processes
/// write during event dispatch, the sampler folds between events).
#[derive(Clone)]
pub(crate) struct NodeSlab {
    inner: Rc<RefCell<SlabInner>>,
}

impl std::fmt::Debug for NodeSlab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = f.debug_struct("NodeSlab");
        // A device may be printed from inside a slab write (a panic message
        // under `note_*`, say): report that instead of a second panic.
        match self.inner.try_borrow() {
            Ok(inner) => out.field("devices", &inner.rows.len()),
            Err(_) => out.field("devices", &"<being written>"),
        };
        out.finish()
    }
}

/// [`Row::flags`] bits: the three inputs of the covered predicate. A device
/// is covered iff all three are set, so the predicate needs no bit of its
/// own, and `FRESH` implies the device has sensed at least once.
const UP: u8 = 1;
const SERVING: u8 = 1 << 1;
const FRESH: u8 = 1 << 2;
const COVERED: u8 = UP | SERVING | FRESH;

/// Everything one device's own events write, in half a cache line.
#[derive(Debug, Clone, Copy)]
struct Row {
    // -- Control-loop window (drained every sample).
    win_ok: u32,
    win_timeout: u32,
    win_lat_n: u32,
    /// `UP | SERVING | FRESH`.
    flags: u8,
    win_lat_sum: f64,
    /// When the device last sensed (meaningful while `FRESH` is set).
    last_sense: SimTime,
}

/// The per-device tables, indexed by device slot (0..device_count, in
/// device-index order — the same order `Scenario::devices()` lists).
struct SlabInner {
    /// Freshness horizon: a device "reports" while its last sense is at
    /// most this old (`sense_period * 3`, resolved at build time).
    horizon: SimDuration,
    rows: Vec<Row>,
    /// Dirty bitset: bit `slot` is set when the device saw window activity
    /// since the last drain. One word per 64 devices; walking the words in
    /// order yields dirty slots in device-index order for free.
    dirty_words: Vec<u64>,
    /// How many rows have all of `COVERED` set.
    covered_count: usize,
    /// Monotone queue of `(expiry instant, slot)` freshness deadlines.
    wheel: VecDeque<(SimTime, u32)>,
    // -- Consumer freshness mirror (valid where `cons_seen`).
    cons_produced: Vec<SimTime>,
    cons_seen: Vec<bool>,
    /// Population count of `cons_seen` — gates the freshness fast path.
    cons_seen_count: usize,
    /// `true` for devices producing personal data (excluded from the
    /// freshness fold: governed architectures rightfully keep them home).
    personal: Vec<bool>,
    /// How many devices are *not* personal (the freshness fold's domain).
    nonpersonal: usize,
}

impl SlabInner {
    /// Sets or clears one covered-predicate input of a device, keeping the
    /// population count of covered devices in step.
    fn set_flag(&mut self, slot: usize, bit: u8, on: bool) {
        let Some(row) = self.rows.get_mut(slot) else {
            return;
        };
        if (row.flags & bit != 0) == on {
            return;
        }
        let was_covered = row.flags == COVERED;
        row.flags ^= bit;
        if row.flags == COVERED {
            self.covered_count += 1;
        } else if was_covered {
            self.covered_count = self.covered_count.saturating_sub(1);
        }
    }

    /// Retires freshness deadlines that have passed. A device is fresh at
    /// `now` iff `now - sense_at <= horizon`, i.e. expired iff
    /// `sense_at + horizon < now` — exactly the pop condition, so the
    /// incremental predicate agrees with the rescan comparison bit for bit.
    fn expire(&mut self, now: SimTime) {
        while let Some(&(deadline, slot)) = self.wheel.front() {
            if deadline >= now {
                break;
            }
            self.wheel.pop_front();
            let slot = slot as usize;
            // Superseded entries (the device sensed again later) carry an
            // older deadline than the latest sense would; skip those.
            let latest = self
                .rows
                .get(slot)
                .is_some_and(|row| row.last_sense + self.horizon == deadline);
            if latest {
                self.set_flag(slot, FRESH, false);
            }
        }
    }
}

/// What one incremental sample fold yields: the drained control window,
/// the covered-device count, and the freshness accumulation over
/// operational devices (sum of per-device staleness seconds, and how many
/// devices contributed).
pub(crate) struct SampleFold {
    pub window: DeviceWindow,
    pub covered: usize,
    pub staleness_sum: f64,
    pub staleness_n: usize,
}

impl NodeSlab {
    /// Builds a slab for `personal.len()` devices, in device-index order.
    /// Every device starts up, serving and unreported (fresh only after
    /// its first sense) — matching the process table at spawn time.
    pub(crate) fn new(horizon: SimDuration, personal: Vec<bool>) -> NodeSlab {
        let n = personal.len();
        let nonpersonal = personal.iter().filter(|p| !**p).count();
        let unreported = Row {
            win_ok: 0,
            win_timeout: 0,
            win_lat_n: 0,
            flags: UP | SERVING,
            win_lat_sum: 0.0,
            last_sense: SimTime::ZERO,
        };
        NodeSlab {
            inner: Rc::new(RefCell::new(SlabInner {
                horizon,
                rows: vec![unreported; n],
                dirty_words: vec![0; n.div_ceil(64)],
                covered_count: 0,
                // At most ⌈horizon / sense_period⌉ = 3 deadlines are ever
                // outstanding per device; one extra slot of headroom.
                wheel: VecDeque::with_capacity(n.saturating_mul(4)),
                cons_produced: vec![SimTime::ZERO; n],
                cons_seen: vec![false; n],
                cons_seen_count: 0,
                personal,
                nonpersonal,
            })),
        }
    }

    /// Reads the row a device event of `slot` will write, for
    /// [`riot_sim::Process::prefetch`]; changes nothing.
    pub(crate) fn prefetch(&self, slot: u32) {
        let s = self.inner.borrow();
        std::hint::black_box(s.rows.get(slot as usize).map(|row| row.flags));
    }

    /// Records a successful control round-trip with its observed latency.
    pub(crate) fn note_control_ok(&self, slot: u32, latency_ms: f64) {
        let mut s = self.inner.borrow_mut();
        if let Some(row) = s.rows.get_mut(slot as usize) {
            row.win_ok += 1;
            row.win_lat_sum += latency_ms;
            row.win_lat_n += 1;
        }
        Self::mark_dirty(&mut s, slot);
    }

    /// Records a timed-out control request.
    pub(crate) fn note_control_timeout(&self, slot: u32) {
        let mut s = self.inner.borrow_mut();
        if let Some(row) = s.rows.get_mut(slot as usize) {
            row.win_timeout += 1;
        }
        Self::mark_dirty(&mut s, slot);
    }

    fn mark_dirty(s: &mut SlabInner, slot: u32) {
        if let Some(word) = s.dirty_words.get_mut(slot as usize / 64) {
            *word |= 1u64 << (slot % 64);
        }
    }

    /// Records a sense: the device reported at `now`, refreshing its
    /// coverage deadline. Senses arrive in virtual-time order, so the
    /// wheel push keeps the queue monotone.
    pub(crate) fn note_sense(&self, slot: u32, now: SimTime) {
        let mut s = self.inner.borrow_mut();
        let i = slot as usize;
        if let Some(row) = s.rows.get_mut(i) {
            row.last_sense = now;
        }
        let deadline = now + s.horizon;
        s.wheel.push_back((deadline, slot));
        s.set_flag(i, FRESH, true);
    }

    /// Mirrors a component-state transition (fault injection, restart).
    pub(crate) fn set_serving(&self, slot: u32, serving: bool) {
        let mut s = self.inner.borrow_mut();
        s.set_flag(slot as usize, SERVING, serving);
    }

    /// Mirrors a process liveness transition (from the observer bus).
    pub(crate) fn set_up(&self, slot: u32, up: bool) {
        let mut s = self.inner.borrow_mut();
        s.set_flag(slot as usize, UP, up);
    }

    /// Mirrors a record landing in a consumer store.
    pub(crate) fn set_consumer_produced(&self, slot: u32, produced_at: SimTime) {
        let mut s = self.inner.borrow_mut();
        let i = slot as usize;
        if let Some(at) = s.cons_produced.get_mut(i) {
            *at = produced_at;
        }
        if let Some(b) = s.cons_seen.get_mut(i) {
            if !*b {
                *b = true;
                s.cons_seen_count += 1;
            }
        }
    }

    /// Mirrors the eviction (or loss) of a consumer-store record.
    pub(crate) fn clear_consumer(&self, slot: u32) {
        let mut s = self.inner.borrow_mut();
        if let Some(b) = s.cons_seen.get_mut(slot as usize) {
            if *b {
                *b = false;
                s.cons_seen_count = s.cons_seen_count.saturating_sub(1);
            }
        }
    }

    /// One sample tick's fold: retire passed freshness deadlines, drain
    /// the dirty window bitset in index order, and fold the freshness
    /// mirror. Declared a hot root in `lint-hotpaths.toml` (rule A1):
    /// the bitset walk and the folds only read and clear in place —
    /// nothing here may allocate.
    pub(crate) fn sample_fold(&self, now: SimTime, never_seen_staleness_s: f64) -> SampleFold {
        let mut guard = self.inner.borrow_mut();
        let s = &mut *guard;
        s.expire(now);

        // Window drain. Walking the bitset words in order visits dirty
        // rows in device-index order, which keeps the floating-point
        // latency sum on the exact same addition sequence as the rescan
        // (clean devices contribute +0.0 — the IEEE identity on this
        // non-negative running sum).
        let mut window = DeviceWindow::default();
        for w in 0..s.dirty_words.len() {
            let mut word = s.dirty_words.get_mut(w).map_or(0, std::mem::take);
            while word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if let Some(row) = s.rows.get_mut(i) {
                    window.control_ok += std::mem::take(&mut row.win_ok);
                    window.control_timeout += std::mem::take(&mut row.win_timeout);
                    window.latency_sum_ms += std::mem::take(&mut row.win_lat_sum);
                    window.latency_count += std::mem::take(&mut row.win_lat_n);
                }
            }
        }

        // Freshness fold over operational devices, in index order. Fast
        // path: when no consumer record was ever mirrored, every term is
        // the never-seen constant, and the scan's repeated addition equals
        // one multiplication *exactly* — provided the constant is a
        // non-negative integer and the total stays below 2^53, every
        // partial sum `k·c` is an exactly-representable integer, so each
        // addition is exact. (Both hold for the scenario's 1.0e6 constant
        // at any feasible device count; the guard falls through to the
        // scan otherwise.)
        let staleness_sum;
        let staleness_n;
        let c = never_seen_staleness_s;
        let exact_batch = c >= 0.0 && c.fract() == 0.0 && c * (s.nonpersonal as f64) < 9.0e15;
        if s.cons_seen_count == 0 && exact_batch {
            staleness_sum = c * s.nonpersonal as f64;
            staleness_n = s.nonpersonal;
        } else {
            // General scan: each term ages with `now`, so every term is
            // live every tick; the win over the rescan is arithmetic over
            // contiguous arrays instead of a process-table probe per
            // device.
            let mut sum = 0.0;
            let mut n = 0usize;
            for ((personal, seen), produced) in
                s.personal.iter().zip(&s.cons_seen).zip(&s.cons_produced)
            {
                if *personal {
                    continue;
                }
                let staleness = if *seen {
                    now.saturating_since(*produced).as_secs_f64()
                } else {
                    c
                };
                sum += staleness.min(c);
                n += 1;
            }
            staleness_sum = sum;
            staleness_n = n;
        }

        SampleFold {
            window,
            covered: s.covered_count,
            staleness_sum,
            staleness_n,
        }
    }
}

/// Observer-bus mirror of device liveness into the slab: replays the same
/// `ProcessDown`/`ProcessUp` events the kernel emitted, subscribing to
/// nothing else — every other event kind is dropped before dispatch.
pub(crate) struct SlabLiveness {
    slab: NodeSlab,
    /// Process id of device slot 0 (devices occupy a contiguous id range).
    first_device: usize,
    device_count: usize,
}

impl SlabLiveness {
    pub(crate) fn new(slab: NodeSlab, first_device: usize, device_count: usize) -> Self {
        SlabLiveness {
            slab,
            first_device,
            device_count,
        }
    }

    fn slot_of(&self, id: ProcessId) -> Option<u32> {
        let slot = id.0.checked_sub(self.first_device)?;
        (slot < self.device_count).then_some(slot as u32)
    }
}

impl SimObserver for SlabLiveness {
    fn on_event(&mut self, event: &SimEvent) {
        match event.kind {
            SimEventKind::ProcessDown { id } => {
                if let Some(slot) = self.slot_of(id) {
                    self.slab.set_up(slot, false);
                }
            }
            SimEventKind::ProcessUp { id } => {
                if let Some(slot) = self.slot_of(id) {
                    self.slab.set_up(slot, true);
                }
            }
            _ => {}
        }
    }

    fn interest(&self) -> EventMask {
        EventMask::LIFECYCLE
    }

    fn name(&self) -> &str {
        "node-slab-liveness"
    }
}

/// A [`StoreProbe`] that mirrors one consumer store's records into the
/// slab's freshness arrays. `slot_of` maps the store's dense data keys to
/// device slots; keys the probe does not consume (peer edges' operational
/// keys, personal keys) fall through.
pub(crate) struct ConsumerMirror {
    slab: NodeSlab,
    /// Device slot per `DataKey::index()`, where this store is the
    /// designated consumer.
    slot_of: Vec<Option<u32>>,
    /// The slots of `slot_of`, densely — for `on_clear` resets.
    mirrored: Vec<u32>,
}

impl ConsumerMirror {
    pub(crate) fn new(slab: NodeSlab, slot_of: Vec<Option<u32>>) -> Self {
        let mirrored = slot_of.iter().filter_map(|s| *s).collect();
        ConsumerMirror {
            slab,
            slot_of,
            mirrored,
        }
    }
}

impl StoreProbe for ConsumerMirror {
    fn on_record(&self, key: DataKey, produced_at: SimTime) {
        if let Some(Some(slot)) = self.slot_of.get(key.index()) {
            self.slab.set_consumer_produced(*slot, produced_at);
        }
    }

    fn on_evict(&self, key: DataKey) {
        if let Some(Some(slot)) = self.slot_of.get(key.index()) {
            self.slab.clear_consumer(*slot);
        }
    }

    fn on_clear(&self) {
        for &slot in &self.mirrored {
            self.slab.clear_consumer(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slab(n: usize) -> NodeSlab {
        NodeSlab::new(SimDuration::from_secs(3), vec![false; n])
    }

    #[test]
    fn window_drain_is_index_ordered_and_resets() {
        let s = slab(3);
        s.note_control_ok(2, 5.0);
        s.note_control_ok(0, 1.0);
        s.note_control_timeout(2);
        let fold = s.sample_fold(SimTime::from_secs(1), 1.0e6);
        assert_eq!(fold.window.control_ok, 2);
        assert_eq!(fold.window.control_timeout, 1);
        assert!((fold.window.latency_sum_ms - 6.0).abs() < f64::EPSILON);
        assert_eq!(fold.window.latency_count, 2);
        let again = s.sample_fold(SimTime::from_secs(2), 1.0e6);
        assert_eq!(again.window, DeviceWindow::default());
    }

    #[test]
    fn coverage_counts_up_serving_fresh_devices_and_expires() {
        let s = slab(2);
        assert_eq!(s.sample_fold(SimTime::ZERO, 1.0e6).covered, 0, "unsensed");
        s.note_sense(0, SimTime::from_secs(1));
        s.note_sense(1, SimTime::from_secs(1));
        assert_eq!(s.sample_fold(SimTime::from_secs(2), 1.0e6).covered, 2);
        s.set_up(1, false);
        assert_eq!(s.sample_fold(SimTime::from_secs(2), 1.0e6).covered, 1);
        s.set_up(1, true);
        s.set_serving(0, false);
        assert_eq!(s.sample_fold(SimTime::from_secs(2), 1.0e6).covered, 1);
        s.set_serving(0, true);
        // Horizon is 3 s: at t=4 a t=1 sense is exactly on the boundary
        // (still fresh); at t=5 it has expired.
        assert_eq!(s.sample_fold(SimTime::from_secs(4), 1.0e6).covered, 2);
        assert_eq!(s.sample_fold(SimTime::from_secs(5), 1.0e6).covered, 0);
        // A later sense supersedes the expired deadline.
        s.note_sense(0, SimTime::from_secs(5));
        assert_eq!(s.sample_fold(SimTime::from_secs(6), 1.0e6).covered, 1);
    }

    #[test]
    fn a_row_is_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<Row>(), 32);
    }

    #[test]
    fn every_flag_transition_keeps_the_covered_count() {
        // From each of the eight flag states, set and clear each input —
        // redundant writes included — on one device while its neighbour
        // stays covered; the fold's count must follow the predicate.
        let inputs = [UP, SERVING, FRESH];
        for start in 0u8..8 {
            for (bit, on) in inputs.iter().flat_map(|b| [(*b, true), (*b, false)]) {
                let s = slab(2);
                s.note_sense(1, SimTime::from_secs(1));
                let apply = |bit: u8, on: bool| match bit {
                    UP => s.set_up(0, on),
                    SERVING => s.set_serving(0, on),
                    // Only a sense sets `FRESH`; only the expiry clears it.
                    _ if on => s.note_sense(0, SimTime::from_secs(1)),
                    _ => {
                        let mut inner = s.inner.borrow_mut();
                        inner.set_flag(0, FRESH, false);
                    }
                };
                for b in inputs {
                    apply(b, start & b != 0);
                }
                let covered = |flags: u8| 1 + usize::from(flags == COVERED);
                let fold = s.sample_fold(SimTime::from_secs(2), 1.0e6);
                assert_eq!(fold.covered, covered(start), "state {start:03b}");
                apply(bit, on);
                let after = if on { start | bit } else { start & !bit };
                assert_eq!(s.inner.borrow().rows[0].flags, after);
                let fold = s.sample_fold(SimTime::from_secs(2), 1.0e6);
                assert_eq!(
                    fold.covered,
                    covered(after),
                    "state {start:03b}, bit {bit:03b} -> {on}"
                );
            }
        }
    }

    #[test]
    fn expire_ignores_a_deadline_a_later_sense_superseded() {
        let s = slab(2);
        s.note_sense(0, SimTime::from_secs(1));
        s.note_sense(1, SimTime::from_secs(1));
        s.note_sense(0, SimTime::from_secs(3));
        // t = 5: both t = 1 deadlines (4 s) have passed. Device 1's is its
        // latest and expires it; device 0's row says it sensed at 3 s, so
        // its popped deadline is stale and must not clear `FRESH`.
        let fold = s.sample_fold(SimTime::from_secs(5), 1.0e6);
        assert_eq!(fold.covered, 1);
        assert_eq!(s.inner.borrow().rows[0].flags, COVERED);
        assert_eq!(s.inner.borrow().rows[1].flags, UP | SERVING);
        assert_eq!(s.inner.borrow().wheel.len(), 1, "the 6 s deadline waits");
        // ... and that one is the latest: it expires on time.
        assert_eq!(s.sample_fold(SimTime::from_secs(7), 1.0e6).covered, 0);
    }

    #[test]
    fn debug_of_a_slab_being_written_does_not_panic() {
        let s = slab(3);
        assert_eq!(format!("{s:?}"), "NodeSlab { devices: 3 }");
        let _writing = s.inner.borrow_mut();
        assert!(format!("{s:?}").contains("being written"));
    }

    #[test]
    fn freshness_fold_ages_mirrored_records_and_clears() {
        let s = NodeSlab::new(SimDuration::from_secs(3), vec![false, true, false]);
        let fold = s.sample_fold(SimTime::from_secs(1), 1.0e6);
        assert_eq!(fold.staleness_n, 2, "personal devices excluded");
        assert!((fold.staleness_sum - 2.0e6).abs() < 1e-6, "never seen");
        s.set_consumer_produced(0, SimTime::from_secs(1));
        let fold = s.sample_fold(SimTime::from_secs(4), 1.0e6);
        assert!((fold.staleness_sum - (3.0 + 1.0e6)).abs() < 1e-6);
        s.clear_consumer(0);
        let fold = s.sample_fold(SimTime::from_secs(4), 1.0e6);
        assert!((fold.staleness_sum - 2.0e6).abs() < 1e-6);
    }

    #[test]
    fn liveness_observer_maps_the_device_id_range() {
        let s = slab(2);
        s.note_sense(0, SimTime::from_secs(1));
        s.note_sense(1, SimTime::from_secs(1));
        let mut obs = SlabLiveness::new(s.clone(), 3, 2);
        let down = |id: usize| SimEvent {
            at: SimTime::from_secs(1),
            kind: SimEventKind::ProcessDown { id: ProcessId(id) },
            detail: String::new(),
        };
        obs.on_event(&down(0)); // cloud: below the device range, ignored
        obs.on_event(&down(5)); // past the device range, ignored
        obs.on_event(&down(3)); // device slot 0
        assert_eq!(s.sample_fold(SimTime::from_secs(2), 1.0e6).covered, 1);
        assert_eq!(obs.interest(), EventMask::LIFECYCLE);
    }

    #[test]
    fn consumer_mirror_routes_keys_to_slots() {
        let s = slab(2);
        let mirror = ConsumerMirror::new(s.clone(), vec![None, Some(1)]);
        let space = riot_data::KeySpace::new();
        let k0 = space.intern("a");
        let k1 = space.intern("b");
        mirror.on_record(k0, SimTime::from_secs(1)); // not consumed here
        mirror.on_record(k1, SimTime::from_secs(1)); // device slot 1
        let fold = s.sample_fold(SimTime::from_secs(2), 1.0e6);
        assert!((fold.staleness_sum - (1.0e6 + 1.0)).abs() < 1e-6);
        mirror.on_evict(k1);
        let fold = s.sample_fold(SimTime::from_secs(2), 1.0e6);
        assert!((fold.staleness_sum - 2.0e6).abs() < 1e-6); // evicted = unseen
        mirror.on_record(k1, SimTime::from_secs(1));
        mirror.on_clear();
        let fold = s.sample_fold(SimTime::from_secs(2), 1.0e6);
        assert!((fold.staleness_sum - 2.0e6).abs() < 1e-6);
    }
}
