//! The frozen reference kernel: a fixed amount of simulator-shaped work that
//! uses nothing from the riot crates and nothing from `std` beyond `Vec`, so
//! no later change to the repository (or to `std::collections`) can move it.
//!
//! It is run immediately before and after every timed rep. The sandbox's
//! speed wanders on a time-scale of seconds; dividing a rep's wall time by
//! the reference speed measured around it cancels most of that wander, which
//! is what `device_s_per_ref_s` reports (ROADMAP: "gate on same-process
//! interleaved ratios, never on absolute wall time").
//!
//! Do not edit the loop: every number ever reported in reference seconds
//! depends on it staying byte-for-byte the same work.

use crate::clock::Stopwatch;

/// Pending entries kept in the heap (a 10⁴-timer event queue).
const PENDING: usize = 10_000;
/// Scatter table: 2¹⁷ × 8 bytes = 1 MiB.
const TABLE_WORDS: usize = 1 << 17;
/// Pop/draw/write/push operations per call (≈0.13 s on the sizing sandbox).
pub const REF_OPS: u64 = 1_200_000;
/// Reference operations in one *reference second*: the sizing sandbox's
/// typical speed, fixed here so a reference second is about a wall second
/// there. Only ratios of reference-normalised numbers mean anything.
pub const REF_OPS_PER_REF_SECOND: f64 = 8.0e6;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn sift_up(heap: &mut [(u64, u64)], mut i: usize) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if heap[i] < heap[parent] {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn sift_down(heap: &mut [(u64, u64)], mut i: usize) {
    loop {
        let left = 2 * i + 1;
        if left >= heap.len() {
            break;
        }
        let right = left + 1;
        let child = if right < heap.len() && heap[right] < heap[left] {
            right
        } else {
            left
        };
        if heap[child] < heap[i] {
            heap.swap(i, child);
            i = child;
        } else {
            break;
        }
    }
}

/// The work itself; returns a checksum so the optimiser cannot delete it.
pub fn reference_work(ops: u64) -> u64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut heap: Vec<(u64, u64)> = Vec::with_capacity(PENDING);
    let mut seq = 0u64;
    for _ in 0..PENDING {
        heap.push((xorshift(&mut rng) % 1_000_000, seq));
        seq += 1;
        let last = heap.len() - 1;
        sift_up(&mut heap, last);
    }
    let mut table = vec![0u64; TABLE_WORDS];
    let mut checksum = 0u64;
    for _ in 0..ops {
        let (at, id) = heap[0];
        let draw = xorshift(&mut rng);
        let slot = (draw >> 20) as usize & (TABLE_WORDS - 1);
        table[slot] = table[slot].wrapping_add(at ^ id);
        checksum = checksum.wrapping_add(table[slot]);
        heap[0] = (at + 1 + draw % 1_000_000, seq);
        seq += 1;
        sift_down(&mut heap, 0);
    }
    checksum
}

/// One timed reference run of `ops` operations ([`REF_OPS`] in a full-size
/// run): operations per host second.
pub fn reference_ops_per_s(ops: u64) -> f64 {
    let watch = Stopwatch::start();
    std::hint::black_box(reference_work(std::hint::black_box(ops)));
    ops as f64 / watch.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_frozen() {
        // The checksum pins the loop: an edit that changes the work done
        // changes this value.
        assert_eq!(reference_work(50_000), reference_work(50_000));
        assert_eq!(reference_work(50_000), 79_628_271_214);
    }
}
