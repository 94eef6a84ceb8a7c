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
//! - **Coverage counter + one armed deadline per fresh device.** The
//!   covered predicate (`up ∧ serving ∧ reported within the freshness
//!   horizon`) is kept as three per-device flag bits plus a population
//!   count, updated on the transitions (crashes and revives, component
//!   state changes, senses). Passive expiry — a device becoming stale
//!   purely by time passing — is handled by a ring of 64 buckets of device
//!   slots, bucketed by deadline. A device has exactly one entry while it
//!   is fresh: a sense arms one only when it makes the device fresh, and
//!   the sample fold judges each entry of an elapsed bucket by the row's
//!   *true* deadline (`last_sense + horizon`), clearing it or moving it
//!   to that deadline's bucket. A device that keeps sensing costs one
//!   bucket visit per horizon, not one queued deadline per sense.

use crate::device::DeviceWindow;
use riot_sim::{SimDuration, SimTime};

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

/// Buckets in the freshness ring. Their width is derived from the horizon
/// ([`NodeSlab::new`]), so one lap of the ring always spans more than one
/// horizon and a deadline armed at a sense lands less than a lap ahead.
const BUCKETS: usize = 64;

/// Where bucket `bucket` (`t >> shift`) sits in the ring.
fn ring_pos(bucket: u64) -> usize {
    (bucket % BUCKETS as u64) as usize
}

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
    /// A bucket is `1 << shift` µs of virtual time: the smallest power of
    /// two whose [`BUCKETS`] buckets span more than `horizon`.
    shift: u32,
    /// Freshness deadlines by bucket, instant `t` in `(t >> shift) % 64`.
    /// A row has exactly one entry iff its `FRESH` bit is set. The entry's
    /// bucket comes no later than the row's true deadline and no earlier
    /// than `swept`, so the fold reaches it by the time the row expires.
    buckets: [Vec<u32>; BUCKETS],
    /// The bucket, as `t >> shift`, that holds the last fold's instant:
    /// swept then, and swept again by the next fold, since a later
    /// deadline may still land in it.
    swept: u64,
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

    /// The bucket, as `t >> shift`, of instant `t`.
    fn bucket_of(&self, t: SimTime) -> u64 {
        t.as_micros() >> self.shift
    }

    /// Files `slot`'s freshness entry under `deadline`'s bucket.
    fn arm(&mut self, slot: u32, deadline: SimTime) {
        let pos = ring_pos(self.bucket_of(deadline));
        if let Some(bucket) = self.buckets.get_mut(pos) {
            bucket.push(slot);
        }
    }

    /// Retires freshness deadlines that have passed. A device is fresh at
    /// `now` iff `now - last_sense <= horizon`, i.e. expired iff
    /// `last_sense + horizon < now` — the rescan's comparison, bit for bit.
    /// Sweeps every bucket from the last fold's through `now`'s, each once:
    /// after a gap of a lap or more that is all 64, and since each entry is
    /// judged by its row's true deadline, where the lap starts is moot.
    fn expire(&mut self, now: SimTime) {
        let last = self.bucket_of(now);
        let first = self.swept.max(last.saturating_sub(BUCKETS as u64 - 1));
        for bucket in first..=last {
            self.sweep(ring_pos(bucket), now);
        }
        self.swept = last;
    }

    /// Judges every entry of ring position `pos` at `now`: clears `FRESH`
    /// on rows whose deadline has passed, keeps the entries whose deadline
    /// maps to this position, and moves the rest to their deadline's.
    fn sweep(&mut self, pos: usize, now: SimTime) {
        let Some(bucket) = self.buckets.get_mut(pos) else {
            return;
        };
        let mut entries = std::mem::take(bucket);
        let (horizon, shift) = (self.horizon, self.shift);
        let (rows, buckets, covered) = (&mut self.rows, &mut self.buckets, &mut self.covered_count);
        entries.retain(|&slot| {
            let Some(row) = rows.get_mut(slot as usize) else {
                return false;
            };
            let deadline = row.last_sense + horizon;
            if deadline < now {
                if row.flags == COVERED {
                    *covered = covered.saturating_sub(1);
                }
                row.flags &= !FRESH;
                return false;
            }
            let to = ring_pos(deadline.as_micros() >> shift);
            if to == pos {
                return true;
            }
            if let Some(later) = buckets.get_mut(to) {
                // riot-lint: allow(A1, reason = "first-sight growth: a bucket grows to its high-water population of fresh devices, then never again")
                later.push(slot);
            }
            false
        });
        if let Some(bucket) = self.buckets.get_mut(pos) {
            *bucket = entries;
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
        // The smallest power of two `w` with `64 w > horizon`.
        let width = (horizon.as_micros() / BUCKETS as u64 + 1).next_power_of_two();
        NodeSlab {
            horizon,
            rows: vec![unreported; n],
            dirty_words: vec![0; n.div_ceil(64)],
            covered_count: 0,
            shift: width.trailing_zeros(),
            buckets: std::array::from_fn(|_| Vec::new()),
            swept: 0,
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
    /// flags, dirty bits, covered count or buckets the fold keeps — for the
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

    /// Records a sense: the device reported at `now`, which moves its
    /// coverage deadline to `now + horizon`. Only a sense that makes the
    /// device fresh arms an entry; a later one just moves the deadline the
    /// armed entry is judged by when the fold reaches it.
    pub(crate) fn note_sense(&mut self, slot: u32, now: SimTime) {
        let Some(row) = self.rows.get_mut(slot as usize) else {
            return;
        };
        row.last_sense = now;
        if row.flags & FRESH == 0 {
            self.arm(slot, now + self.horizon);
            self.set_flag(slot as usize, FRESH, true);
        }
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

    /// Entries in the freshness ring: one per `FRESH` row, by invariant.
    fn entries(s: &NodeSlab) -> usize {
        s.buckets.iter().map(Vec::len).sum()
    }

    fn fresh_rows(s: &NodeSlab) -> usize {
        s.rows.iter().filter(|row| row.flags & FRESH != 0).count()
    }

    #[test]
    fn every_flag_transition_keeps_the_covered_count() {
        // From each of the eight flag states, set and clear each input —
        // redundant writes included — on one device while its neighbour
        // stays covered; the fold's count must follow the predicate.
        let inputs = [UP, SERVING, FRESH];
        // Only a sense sets `FRESH`, and only a fold's expiry clears it: a
        // horizon and a microsecond on, with the neighbour sensing anew.
        let apply = |s: &mut NodeSlab, now: &mut SimTime, bit: u8, on: bool| match bit {
            UP => s.set_up(0, on),
            SERVING => s.set_serving(0, on),
            _ if on => s.note_sense(0, *now),
            _ => {
                *now = *now + s.horizon + SimDuration::from_micros(1);
                s.note_sense(1, *now);
                s.sample_fold(*now);
            }
        };
        for start in 0u8..8 {
            for (bit, on) in inputs.iter().flat_map(|b| [(*b, true), (*b, false)]) {
                let mut s = slab(2);
                let mut now = SimTime::from_secs(1);
                s.note_sense(1, now);
                for b in inputs {
                    apply(&mut s, &mut now, b, start & b != 0);
                }
                let covered = |flags: u8| 1 + usize::from(flags == COVERED);
                let fold = s.sample_fold(now);
                assert_eq!(fold.covered, covered(start), "state {start:03b}");
                apply(&mut s, &mut now, bit, on);
                let after = if on { start | bit } else { start & !bit };
                assert_eq!(s.rows[0].flags, after);
                let fold = s.sample_fold(now);
                assert_eq!(
                    fold.covered,
                    covered(after),
                    "state {start:03b}, bit {bit:03b} -> {on}"
                );
                assert_eq!(entries(&s), fresh_rows(&s));
            }
        }
    }

    #[test]
    fn expire_ignores_a_deadline_a_later_sense_superseded() {
        let mut s = slab(2);
        s.note_sense(0, SimTime::from_secs(1));
        s.note_sense(1, SimTime::from_secs(1));
        s.note_sense(0, SimTime::from_secs(3));
        assert_eq!(entries(&s), 2, "a sense of a fresh device arms nothing");
        // t = 5: both entries were armed for 4 s. Device 1's true deadline
        // is 4 s and expires it; device 0's row says it sensed at 3 s, so
        // its entry moves on to 6 s instead of clearing `FRESH`.
        let fold = s.sample_fold(SimTime::from_secs(5));
        assert_eq!(fold.covered, 1);
        assert_eq!(s.rows[0].flags, COVERED);
        assert_eq!(s.rows[1].flags, UP | SERVING);
        assert_eq!(entries(&s), 1, "the 6 s deadline waits");
        // ... and that one is the latest: it expires on time.
        assert_eq!(s.sample_fold(SimTime::from_secs(7)).covered, 0);
        assert_eq!(entries(&s), 0);
    }

    #[test]
    fn a_bucket_is_the_smallest_power_of_two_a_lap_of_which_outlasts_the_horizon() {
        for (horizon_us, width) in [(0, 1), (7, 1), (63, 1), (64, 2), (127, 2), (128, 4)] {
            let s = NodeSlab::new(SimDuration::from_micros(horizon_us), 1);
            assert_eq!(1u64 << s.shift, width, "horizon {horizon_us} µs");
        }
        let s = slab(1);
        assert_eq!(1u64 << s.shift, 1 << 16, "3 s spans 46 buckets of 65.5 ms");
    }

    #[test]
    fn folds_at_irregular_instants_count_what_a_row_by_row_scan_counts() {
        // Horizons either side of the ring's 64 buckets of 1 µs, and a
        // sense period's. Each script interleaves senses, crashes,
        // revives and component flips with folds: some exactly on a
        // device's deadline, some after gaps of several laps, some in the
        // bucket the last fold swept. After every fold the count must
        // equal the predicate counted row by row, and the ring must hold
        // one entry per fresh row.
        for horizon_us in [1, 5, 63, 64, 65, 1_000, 3_000_000] {
            let horizon = SimDuration::from_micros(horizon_us);
            let lap = 64 << NodeSlab::new(horizon, 0).shift;
            for seed in 0..24 {
                let mut rng = riot_sim::SimRng::seed_from(seed);
                let n = rng.range_u64(1, 70) as usize;
                let mut s = NodeSlab::new(horizon, n);
                let mut up = vec![true; n];
                let mut serving = vec![true; n];
                let mut sensed: Vec<Option<SimTime>> = vec![None; n];
                let mut now = SimTime::ZERO;
                for step in 0..600 {
                    let slot = rng.range_u64(0, n as u64) as usize;
                    match rng.range_u64(0, 10) {
                        0..=3 => {
                            s.note_sense(slot as u32, now);
                            sensed[slot] = Some(now);
                        }
                        4 => {
                            up[slot] = !up[slot];
                            s.set_up(slot as u32, up[slot]);
                        }
                        5 => {
                            serving[slot] = !serving[slot];
                            s.set_serving(slot as u32, serving[slot]);
                        }
                        6 => {
                            // Small steps stay in the swept bucket or the
                            // next few; large ones cross one or more laps.
                            let gap = match rng.range_u64(0, 4) {
                                0 => rng.range_u64(0, 2),
                                1 => rng.range_u64(0, horizon_us + 2),
                                2 => rng.range_u64(0, lap),
                                _ => rng.range_u64(lap, 4 * lap),
                            };
                            now += SimDuration::from_micros(gap);
                        }
                        _ => {
                            // Every third fold lands exactly on a deadline
                            // not yet behind the clock: `==` is still fresh.
                            if step % 3 == 0 {
                                if let Some(at) = sensed[slot].map(|t| t + horizon) {
                                    now = now.max(at);
                                }
                            }
                            let fold = s.sample_fold(now);
                            let fresh = |t: &Option<SimTime>| t.is_some_and(|t| t + horizon >= now);
                            let want = (0..n)
                                .filter(|&i| up[i] && serving[i] && fresh(&sensed[i]))
                                .count();
                            assert_eq!(
                                fold.covered, want,
                                "horizon {horizon_us}, seed {seed}, step {step}"
                            );
                            let fresh_now = sensed.iter().filter(|t| fresh(t)).count();
                            assert_eq!(fresh_rows(&s), fresh_now);
                            assert_eq!(entries(&s), fresh_now, "one entry per fresh row");
                        }
                    }
                }
            }
        }
    }
}
