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
//! The slab is the world's, not the devices': the scenario's `Sim` holds it
//! by value beside the medium and lends it to the device each callback runs
//! on (`scenario/world.rs`), the injector writes what a crash, a revive or
//! a component fault changes (`scenario/disrupt.rs`), and the sample tick
//! folds it between events. No device and no observer holds a handle to it.
//!
//! What a *device* event writes — the control window, the coverage inputs
//! and the last-sense instant — is one 32-byte [`Row`] per device, so a
//! control or sense tick dirties one slab line, not one per column.
//! Consumer freshness — a record's age at its consuming store — is not
//! here: the sampler reads it from the stores themselves, where the
//! records live.
//!
//! Two mechanisms keep the per-tick cost proportional to what actually
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
//!   transitions (crashes and revives, component state changes, senses). Passive expiry — a device becoming stale purely by time
//!   passing — is handled by a wheel of `(sense_at + horizon, slot)`
//!   entries; senses arrive in virtual-time order, so the wheel is a
//!   monotone queue and each entry is pushed and popped exactly once.

use crate::device::DeviceWindow;
use riot_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// What one sample fold yields: the drained control window and the
/// covered-device count.
pub(crate) struct SampleFold {
    pub window: DeviceWindow,
    pub covered: usize,
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

/// The scenario's node-state slab: per-device tables, indexed by device
/// slot (0..device_count, in device-index order — the same order
/// `Scenario::devices()` lists). The scenario's world holds it beside the
/// medium and lends it to each device callback
/// (`scenario/world.rs`); the sampler folds it between events.
pub(crate) struct NodeSlab {
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
}

impl NodeSlab {
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

    /// Builds a slab for `n` devices, in device-index order. Every device
    /// starts up, serving and unreported (fresh only after its first
    /// sense) — matching the process table at spawn time.
    pub(crate) fn new(horizon: SimDuration, n: usize) -> NodeSlab {
        let unreported = Row {
            win_ok: 0,
            win_timeout: 0,
            win_lat_n: 0,
            flags: UP | SERVING,
            win_lat_sum: 0.0,
            last_sense: SimTime::ZERO,
        };
        NodeSlab {
            horizon,
            rows: vec![unreported; n],
            dirty_words: vec![0; n.div_ceil(64)],
            covered_count: 0,
            // At most ⌈horizon / sense_period⌉ = 3 deadlines are ever
            // outstanding per device; one extra slot of headroom.
            wheel: VecDeque::with_capacity(n.saturating_mul(4)),
        }
    }

    /// A slab for the `#[cfg(test)]` rescan oracle: as [`Self::new`], but
    /// every row's `last_sense` starts at [`SimTime::MAX`], which no sense
    /// writes, so [`Self::take_raw_row`] can tell a device that never
    /// sensed without reading a flag.
    #[cfg(test)]
    pub(crate) fn unsensed(horizon: SimDuration, n: usize) -> NodeSlab {
        let mut slab = Self::new(horizon, n);
        for row in &mut slab.rows {
            row.last_sense = SimTime::MAX;
        }
        slab
    }

    /// Drains row `slot`'s control window and reads its last sense (`None`
    /// before the first) straight from the row's own fields — none of the
    /// flags, dirty bits, covered count or wheel the fold keeps — for the
    /// `#[cfg(test)]` rescan oracle, over a slab made by [`Self::unsensed`].
    #[cfg(test)]
    pub(crate) fn take_raw_row(&mut self, slot: u32) -> (DeviceWindow, Option<SimTime>) {
        let Some(row) = self.rows.get_mut(slot as usize) else {
            return (DeviceWindow::default(), None);
        };
        let window = DeviceWindow {
            control_ok: std::mem::take(&mut row.win_ok),
            control_timeout: std::mem::take(&mut row.win_timeout),
            latency_sum_ms: std::mem::take(&mut row.win_lat_sum),
            latency_count: std::mem::take(&mut row.win_lat_n),
        };
        (
            window,
            (row.last_sense != SimTime::MAX).then_some(row.last_sense),
        )
    }

    /// Reads the row a device event of `slot` will write, for
    /// [`riot_sim::Process::prefetch`]; changes nothing.
    pub(crate) fn prefetch(&self, slot: u32) {
        std::hint::black_box(self.rows.get(slot as usize).map(|row| row.flags));
    }

    /// Records a successful control round-trip with its observed latency.
    pub(crate) fn note_control_ok(&mut self, slot: u32, latency_ms: f64) {
        if let Some(row) = self.rows.get_mut(slot as usize) {
            row.win_ok += 1;
            row.win_lat_sum += latency_ms;
            row.win_lat_n += 1;
        }
        self.mark_dirty(slot);
    }

    /// Records a timed-out control request.
    pub(crate) fn note_control_timeout(&mut self, slot: u32) {
        if let Some(row) = self.rows.get_mut(slot as usize) {
            row.win_timeout += 1;
        }
        self.mark_dirty(slot);
    }

    fn mark_dirty(&mut self, slot: u32) {
        if let Some(word) = self.dirty_words.get_mut(slot as usize / 64) {
            *word |= 1u64 << (slot % 64);
        }
    }

    /// Records a sense: the device reported at `now`, refreshing its
    /// coverage deadline. Senses arrive in virtual-time order, so the
    /// wheel push keeps the queue monotone.
    pub(crate) fn note_sense(&mut self, slot: u32, now: SimTime) {
        let i = slot as usize;
        if let Some(row) = self.rows.get_mut(i) {
            row.last_sense = now;
        }
        self.wheel.push_back((now + self.horizon, slot));
        self.set_flag(i, FRESH, true);
    }

    /// Mirrors a component-state transition (fault injection, restart).
    pub(crate) fn set_serving(&mut self, slot: u32, serving: bool) {
        self.set_flag(slot as usize, SERVING, serving);
    }

    /// Mirrors a process liveness transition (a crash or a revive).
    pub(crate) fn set_up(&mut self, slot: u32, up: bool) {
        self.set_flag(slot as usize, UP, up);
    }

    /// One sample tick's fold: retire passed freshness deadlines and drain
    /// the dirty window bitset in index order. Declared a hot root in
    /// `lint-hotpaths.toml` (rule A1): the bitset walk only reads and
    /// clears in place — nothing here may allocate.
    pub(crate) fn sample_fold(&mut self, now: SimTime) -> SampleFold {
        self.expire(now);

        // Window drain. Walking the bitset words in order visits dirty
        // rows in device-index order, which keeps the floating-point
        // latency sum on the exact same addition sequence as the rescan
        // (clean devices contribute +0.0 — the IEEE identity on this
        // non-negative running sum).
        let mut window = DeviceWindow::default();
        for w in 0..self.dirty_words.len() {
            let mut word = self.dirty_words.get_mut(w).map_or(0, std::mem::take);
            while word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if let Some(row) = self.rows.get_mut(i) {
                    window.control_ok += std::mem::take(&mut row.win_ok);
                    window.control_timeout += std::mem::take(&mut row.win_timeout);
                    window.latency_sum_ms += std::mem::take(&mut row.win_lat_sum);
                    window.latency_count += std::mem::take(&mut row.win_lat_n);
                }
            }
        }

        SampleFold {
            window,
            covered: self.covered_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slab(n: usize) -> NodeSlab {
        NodeSlab::new(SimDuration::from_secs(3), n)
    }

    #[test]
    fn window_drain_is_index_ordered_and_resets() {
        let mut s = slab(3);
        s.note_control_ok(2, 5.0);
        s.note_control_ok(0, 1.0);
        s.note_control_timeout(2);
        let fold = s.sample_fold(SimTime::from_secs(1));
        assert_eq!(fold.window.control_ok, 2);
        assert_eq!(fold.window.control_timeout, 1);
        assert!((fold.window.latency_sum_ms - 6.0).abs() < f64::EPSILON);
        assert_eq!(fold.window.latency_count, 2);
        let again = s.sample_fold(SimTime::from_secs(2));
        assert_eq!(again.window, DeviceWindow::default());
    }

    #[test]
    fn coverage_counts_up_serving_fresh_devices_and_expires() {
        let mut s = slab(2);
        assert_eq!(s.sample_fold(SimTime::ZERO).covered, 0, "unsensed");
        s.note_sense(0, SimTime::from_secs(1));
        s.note_sense(1, SimTime::from_secs(1));
        assert_eq!(s.sample_fold(SimTime::from_secs(2)).covered, 2);
        s.set_up(1, false);
        assert_eq!(s.sample_fold(SimTime::from_secs(2)).covered, 1);
        s.set_up(1, true);
        s.set_serving(0, false);
        assert_eq!(s.sample_fold(SimTime::from_secs(2)).covered, 1);
        s.set_serving(0, true);
        // Horizon is 3 s: at t=4 a t=1 sense is exactly on the boundary
        // (still fresh); at t=5 it has expired.
        assert_eq!(s.sample_fold(SimTime::from_secs(4)).covered, 2);
        assert_eq!(s.sample_fold(SimTime::from_secs(5)).covered, 0);
        // A later sense supersedes the expired deadline.
        s.note_sense(0, SimTime::from_secs(5));
        assert_eq!(s.sample_fold(SimTime::from_secs(6)).covered, 1);
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
                let mut s = slab(2);
                s.note_sense(1, SimTime::from_secs(1));
                let apply = |s: &mut NodeSlab, bit: u8, on: bool| match bit {
                    UP => s.set_up(0, on),
                    SERVING => s.set_serving(0, on),
                    // Only a sense sets `FRESH`; only the expiry clears it.
                    _ if on => s.note_sense(0, SimTime::from_secs(1)),
                    _ => s.set_flag(0, FRESH, false),
                };
                for b in inputs {
                    apply(&mut s, b, start & b != 0);
                }
                let covered = |flags: u8| 1 + usize::from(flags == COVERED);
                let fold = s.sample_fold(SimTime::from_secs(2));
                assert_eq!(fold.covered, covered(start), "state {start:03b}");
                apply(&mut s, bit, on);
                let after = if on { start | bit } else { start & !bit };
                assert_eq!(s.rows[0].flags, after);
                let fold = s.sample_fold(SimTime::from_secs(2));
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
        let mut s = slab(2);
        s.note_sense(0, SimTime::from_secs(1));
        s.note_sense(1, SimTime::from_secs(1));
        s.note_sense(0, SimTime::from_secs(3));
        // t = 5: both t = 1 deadlines (4 s) have passed. Device 1's is its
        // latest and expires it; device 0's row says it sensed at 3 s, so
        // its popped deadline is stale and must not clear `FRESH`.
        let fold = s.sample_fold(SimTime::from_secs(5));
        assert_eq!(fold.covered, 1);
        assert_eq!(s.rows[0].flags, COVERED);
        assert_eq!(s.rows[1].flags, UP | SERVING);
        assert_eq!(s.wheel.len(), 1, "the 6 s deadline waits");
        // ... and that one is the latest: it expires on time.
        assert_eq!(s.sample_fold(SimTime::from_secs(7)).covered, 0);
    }
}
