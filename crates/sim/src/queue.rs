//! The kernel's event queue: a time-bucketed priority queue that pops in
//! exactly the `(at, seq)` order of one big binary heap (DESIGN.md §9,
//! "Event queue").
//!
//! Virtual time is cut into slots of 1024 µs. Three structures hold the
//! pending events, split by slot relative to a **cursor**:
//!
//! * **near** — a binary heap of every event whose slot is ≤ the cursor.
//!   All pops come from here, ordered by [`Event`]'s `Ord`.
//! * **ring** — the next 2047 slots, each an unordered, intrusive singly
//!   linked list of nine-event chunks through one slab. A push is a write
//!   into the slot's first chunk — it reads no chunk — and nothing is
//!   compared until the cursor reaches the slot.
//! * **far** — a binary heap of everything beyond the ring, drained into the
//!   ring as the cursor advances.
//!
//! Slots are disjoint time ranges and near orders its own content, so
//! `near < ring < far` in time and the pop sequence is the heap's. When near
//! runs empty, [`EventQueue::load`] moves the cursor to the next occupied
//! slot and heapifies that slot's chunks into near. The kernel loads before
//! it peeks as well as before it pops, so the cursor may run ahead of the
//! clock (`run_until` peeks past its deadline); a push behind the cursor
//! joins near, which keeps the order exact.

use crate::kernel::Event;
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// A slot is `1 << SLOT_SHIFT` = 1024 µs of virtual time.
const SLOT_SHIFT: u32 = 10;
/// Ring length in slots (≈ 2.1 s): every periodic timer of the standard
/// architectures lands in the ring, not in `far`.
const RING_SLOTS: u64 = 2048;
const RING_WORDS: usize = (RING_SLOTS / 64) as usize;
/// End of a chunk list.
const NIL: u32 = u32::MAX;
/// Events a chunk holds: 8 + 56 K bytes is a whole number of cache lines
/// only for K ≡ 1 (mod 8), and K = 1 is one dependent load per event.
const CHUNK_EVENTS: usize = 9;

fn slot_of(at: SimTime) -> u64 {
    at.as_micros() >> SLOT_SHIFT
}

/// One slab entry, eight whole cache lines. On a slot's list every chunk is
/// full but the first, whose population is in the slot's [`Head`]; what lies
/// beyond that, and everything in a chunk on the free list, is a stale copy
/// nobody reads.
#[repr(align(64))]
struct Chunk {
    next: u32,
    events: [Event; CHUNK_EVENTS],
}

/// A slot's list: its first chunk — the one that may have room — and how
/// many events that chunk holds. The count lives here and not in the chunk
/// so that a push into a slot a second ahead stores into a cold chunk
/// without first loading from it.
#[derive(Clone, Copy)]
struct Head {
    chunk: u32,
    len: u32,
}

const EMPTY: Head = Head { chunk: NIL, len: 0 };

pub(crate) struct EventQueue {
    near: BinaryHeap<Event>,
    /// Highest slot whose events live in `near`.
    cursor: u64,
    /// List head per ring position (`slot % RING_SLOTS`), `EMPTY` when
    /// nothing is linked. Only slots in `cursor + 1 .. cursor + RING_SLOTS`
    /// are ever linked, so a position never mixes two slots and the
    /// cursor's own is empty.
    heads: Vec<Head>,
    /// One bit per ring position: its list is non-empty.
    occupied: [u64; RING_WORDS],
    /// The slab behind every list. Freed chunks are reused last-out-first,
    /// so its length is at most a ninth of the peak ring population plus
    /// one part-filled first chunk per occupied slot.
    chunks: Vec<Chunk>,
    free: u32,
    ring_len: usize,
    far: BinaryHeap<Event>,
}

impl EventQueue {
    /// An empty queue whose slab is pre-sized for `capacity` ring events
    /// spread over every slot of the ring.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            near: BinaryHeap::new(),
            cursor: 0,
            heads: vec![EMPTY; RING_SLOTS as usize],
            occupied: [0; RING_WORDS],
            chunks: Vec::with_capacity(capacity.div_ceil(CHUNK_EVENTS) + RING_SLOTS as usize),
            free: NIL,
            ring_len: 0,
            far: BinaryHeap::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.near.len() + self.ring_len + self.far.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn push(&mut self, event: Event) {
        let slot = slot_of(event.at);
        if slot <= self.cursor {
            self.near.push(event);
        } else if slot - self.cursor < RING_SLOTS {
            self.link(slot, event);
        } else {
            self.far.push(event);
        }
    }

    /// With `near` spent, moves the next occupied slot into it and returns
    /// how many events that brought; 0 while `near` still holds any, and when
    /// the whole queue is empty. [`peek`](Self::peek) and [`pop`](Self::pop)
    /// look at `near` alone, so the kernel calls this before either: one
    /// emptiness test per event where the two each made their own.
    #[inline]
    pub(crate) fn load(&mut self) -> usize {
        if !self.near.is_empty() {
            return 0;
        }
        self.refill();
        self.near.len()
    }

    /// What [`load`](Self::load) last moved into `near` and has not popped
    /// yet, plus whatever was pushed behind the cursor since; heap order.
    pub(crate) fn loaded(&self) -> &[Event] {
        self.near.as_slice()
    }

    /// The earliest event, after a [`load`](Self::load).
    pub(crate) fn peek(&self) -> Option<&Event> {
        debug_assert!(
            !self.near.is_empty() || self.is_empty(),
            "peek needs a load"
        );
        self.near.peek()
    }

    /// Removes the earliest event, after a [`load`](Self::load).
    pub(crate) fn pop(&mut self) -> Option<Event> {
        debug_assert!(!self.near.is_empty() || self.is_empty(), "pop needs a load");
        self.near.pop()
    }

    /// Appends `event` to its slot's first chunk, putting a chunk from the
    /// free list (or a new one) in front of one that is full.
    fn link(&mut self, slot: u64, event: Event) {
        let pos = (slot % RING_SLOTS) as usize;
        // riot-lint: allow(P1, reason = "pos < RING_SLOTS = heads.len(), fixed at construction")
        let head = &mut self.heads[pos];
        self.ring_len += 1;
        let room = self
            .chunks
            .get_mut(head.chunk as usize)
            .and_then(|chunk| chunk.events.get_mut(head.len as usize));
        if let Some(place) = room {
            *place = event;
            head.len += 1;
            return;
        }
        // `NIL` is past any slab the assert below lets exist, so an empty
        // free list falls through to growth.
        let id = match self.chunks.get_mut(self.free as usize) {
            Some(reused) => {
                let id = self.free;
                self.free = reused.next;
                reused.next = head.chunk;
                if let Some(first) = reused.events.first_mut() {
                    *first = event;
                }
                id
            }
            None => {
                let id = self.chunks.len();
                assert!(id < NIL as usize, "event slab outgrew its u32 links");
                self.chunks.push(Chunk {
                    next: head.chunk,
                    events: [event; CHUNK_EVENTS],
                });
                id as u32
            }
        };
        *head = Head { chunk: id, len: 1 };
        // riot-lint: allow(P1, reason = "pos / 64 < RING_WORDS, the array's length")
        self.occupied[pos / 64] |= 1 << (pos % 64);
    }

    /// With `near` empty: advances the cursor to the next slot holding
    /// anything, moves that slot into `near`, and pulls into the ring what
    /// `far` holds of the slots the ring now covers. Leaves `near` empty only
    /// if the whole queue is.
    fn refill(&mut self) {
        debug_assert!(self.near.is_empty());
        if let Some(slot) = self.next_occupied() {
            self.cursor = slot;
            let pos = (slot % RING_SLOTS) as usize;
            // `near`'s own buffer goes round: emptied by pops, refilled here.
            let mut buf = std::mem::take(&mut self.near).into_vec();
            // riot-lint: allow(P1, reason = "pos < RING_SLOTS = heads.len(), fixed at construction")
            let Head { chunk: mut id, len } = std::mem::replace(&mut self.heads[pos], EMPTY);
            let mut len = len as usize;
            // riot-lint: allow(P1, reason = "pos / 64 < RING_WORDS, the array's length")
            self.occupied[pos / 64] &= !(1 << (pos % 64));
            // One dependent load a chunk: its other seven lines are at
            // addresses the core knows as soon as it has the chunk's id.
            // Only the first chunk can be part-filled.
            while let Some(chunk) = self.chunks.get_mut(id as usize) {
                buf.extend_from_slice(chunk.events.get(..len).unwrap_or_default());
                self.ring_len -= len;
                len = CHUNK_EVENTS;
                let next = std::mem::replace(&mut chunk.next, self.free);
                self.free = id;
                id = next;
            }
            self.near = BinaryHeap::from(buf);
        } else if let Some(first) = self.far.peek() {
            self.cursor = slot_of(first.at);
        }
        while let Some(first) = self.far.peek() {
            if slot_of(first.at) - self.cursor >= RING_SLOTS {
                break;
            }
            if let Some(event) = self.far.pop() {
                self.push(event);
            }
        }
    }

    /// The first occupied slot after the cursor, if the ring holds any.
    fn next_occupied(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
        let start = self.cursor + 1;
        let (word0, bit0) = ((start % RING_SLOTS) as usize / 64, start % 64);
        // Word by word round the ring from the start's own word — masked
        // below the start on the first visit, whole when the scan wraps back
        // to it. `start - bit0` is the slot of that word's bit 0.
        (0..=RING_WORDS).find_map(|k| {
            // riot-lint: allow(P1, reason = "index is reduced modulo the array's length")
            let word = self.occupied[(word0 + k) % RING_WORDS];
            let word = if k == 0 { word & (!0 << bit0) } else { word };
            (word != 0).then(|| start - bit0 + 64 * k as u64 + u64::from(word.trailing_zeros()))
        })
    }
}

#[cfg(test)]
impl EventQueue {
    /// `(near, ring, slab)` populations, for the tests that show the ring
    /// engages and the slab does not leak.
    pub(crate) fn census(&self) -> (usize, usize, usize) {
        (self.near.len(), self.ring_len, self.chunks.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::EventKind;
    use crate::process::{ProcessId, TimerId};
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    const SLOT_US: u64 = 1 << SLOT_SHIFT;
    const RING_US: u64 = RING_SLOTS << SLOT_SHIFT;

    /// The queue and the oracle it replaced — one `BinaryHeap` of every
    /// event — driven by the same script under a clock that follows the
    /// pops, as the kernel's does.
    struct Checked {
        queue: EventQueue,
        oracle: BinaryHeap<Event>,
        clock: SimTime,
        seq: u64,
    }

    /// What identifies a popped event: its order key and what it carries.
    fn key(event: &Event) -> (SimTime, u64, Option<u32>, Option<u64>) {
        let (payload, tag) = match event.kind {
            EventKind::Deliver { payload, .. } => (Some(payload), None),
            EventKind::Timer { tag, .. } => (None, Some(tag)),
            _ => (None, None),
        };
        (event.at, event.seq, payload, tag)
    }

    impl Checked {
        fn new() -> Self {
            Checked {
                queue: EventQueue::with_capacity(0),
                oracle: BinaryHeap::new(),
                clock: SimTime::ZERO,
                seq: 0,
            }
        }

        /// Timers, deliveries and injections in rotation, each carrying
        /// its `seq` where the variant has room for it.
        fn event(&self, delay_us: u64) -> Event {
            let id = ProcessId(self.seq as usize % 7);
            let kind = match self.seq % 3 {
                0 => EventKind::Timer {
                    owner: id,
                    tag: self.seq,
                    timer: TimerId(self.seq),
                    epoch: 0,
                },
                1 => EventKind::Deliver {
                    from: id,
                    to: ProcessId(0),
                    payload: self.seq as u32,
                },
                _ => EventKind::Injection {
                    idx: self.seq as usize,
                },
            };
            Event {
                at: self.clock + SimDuration::from_micros(delay_us),
                seq: self.seq,
                kind,
            }
        }

        fn push(&mut self, delay_us: u64) {
            self.queue.push(self.event(delay_us));
            self.oracle.push(self.event(delay_us));
            self.seq += 1;
            assert_eq!(self.queue.len(), self.oracle.len());
        }

        fn peek(&mut self) {
            self.queue.load();
            assert_eq!(self.queue.peek().map(key), self.oracle.peek().map(key));
            assert_eq!(self.queue.len(), self.oracle.len());
        }

        /// Pops both sides; `false` once both are empty.
        fn pop(&mut self) -> bool {
            let want = self.oracle.pop();
            self.queue.load();
            let got = self.queue.pop();
            assert_eq!(got.as_ref().map(key), want.as_ref().map(key));
            assert_eq!(self.queue.len(), self.oracle.len());
            assert_eq!(self.queue.is_empty(), self.oracle.is_empty());
            match want {
                Some(event) => {
                    self.clock = event.at;
                    true
                }
                None => false,
            }
        }

        fn drain(&mut self) {
            while self.pop() {}
            assert!(self.queue.is_empty());
        }
    }

    #[test]
    fn a_ring_chunk_is_eight_whole_cache_lines() {
        // A wider `EventKind` variant fails here instead of costing every
        // sift more bytes and every chunk a ninth line at 10⁵ pending timers.
        assert!(std::mem::size_of::<Event>() <= 56);
        assert_eq!(std::mem::size_of::<Chunk>(), 512);
        assert_eq!(std::mem::align_of::<Chunk>(), 64);
    }

    #[test]
    fn pops_match_one_binary_heap_under_random_interleavings() {
        for seed in 0..48 {
            let mut rng = SimRng::seed_from(seed);
            let mut q = Checked::new();
            // Three fills, each drained to empty: the later ones start with
            // the cursor, the free list and near's buffer in a used state.
            for _ in 0..3 {
                for _ in 0..3_000 {
                    // Holding the population near a random target keeps the
                    // clock moving, so far events are overtaken mid-run and
                    // the ring sometimes runs dry under a peek.
                    if (q.queue.len() as u64) < rng.range_u64(0, 64) {
                        let delay = match rng.range_u64(0, 10) {
                            0 => 0,
                            1 => rng.range_u64(1, SLOT_US),
                            2..=4 => rng.range_u64(SLOT_US, RING_US - SLOT_US),
                            5 => RING_US - SLOT_US,
                            6 => RING_US - 1,
                            7 => RING_US,
                            8 => RING_US + SLOT_US,
                            _ => rng.range_u64(10_000_000, 500_000_000),
                        };
                        // A burst shares one `at`: only `seq` orders it.
                        let burst = if rng.chance(0.2) { 7 } else { 1 };
                        for _ in 0..burst {
                            q.push(delay);
                        }
                    } else if rng.chance(0.8) {
                        q.pop();
                    } else {
                        q.peek();
                    }
                }
                q.drain();
            }
        }
    }

    #[test]
    fn a_push_behind_a_peeked_ahead_cursor_pops_first() {
        let mut q = Checked::new();
        q.push(300_000_000);
        q.peek();
        q.push(5_000);
        q.push(0);
        q.push(RING_US + 5_000);
        q.drain();
    }

    #[test]
    fn far_events_are_overtaken_by_the_ring_in_time() {
        // A 10 s event waits in `far` while a 1 s periodic timer carries the
        // cursor past it through the ring.
        let mut q = Checked::new();
        q.push(10_000_000);
        q.push(1_000_000);
        for _ in 0..20 {
            q.pop();
            q.push(1_000_000);
        }
        q.drain();
    }

    #[test]
    fn ten_thousand_events_in_one_slot_pop_in_order() {
        let mut rng = SimRng::seed_from(7);
        let mut q = Checked::new();
        q.push(3 * SLOT_US);
        q.pop();
        // The clock sits on a slot boundary: every delay below one slot
        // lands in the same ring slot, many on the same microsecond.
        for _ in 0..10_000 {
            q.push(5 * SLOT_US + rng.range_u64(0, SLOT_US));
        }
        let chunks = 10_000usize.div_ceil(CHUNK_EVENTS);
        assert_eq!(q.queue.census(), (0, 10_000, chunks));
        q.peek();
        assert_eq!(q.queue.census(), (10_000, 0, chunks));
        q.drain();
    }

    #[test]
    fn slots_of_every_chunk_boundary_size_pop_in_order_through_reused_chunks() {
        // One slot at a time, filled to a population either side of every
        // chunk boundary, on a queue whose clock sits on a slot boundary.
        // Three rounds: from the second on every chunk comes off the free
        // list carrying the events of its previous life, up to nine of them
        // beyond the new `len`.
        let mut rng = SimRng::seed_from(9);
        let mut q = Checked::new();
        q.push(3 * SLOT_US);
        q.pop();
        let mut slab_after_first_round = None;
        for round in 0..3 {
            for population in [0usize, 1, 8, 9, 10, 18, 19, 10_000, 19, 1, 10, 0, 9] {
                for i in 0..population {
                    // Bursts of up to seven share one `at`.
                    if i % 7 == 0 || rng.chance(0.5) {
                        q.push(2 * SLOT_US + rng.range_u64(0, SLOT_US));
                    } else {
                        q.push(2 * SLOT_US + SLOT_US / 2);
                    }
                }
                let (near, ring, slab) = q.queue.census();
                assert_eq!((near, ring), (0, population));
                assert!(slab >= population.div_ceil(CHUNK_EVENTS));
                q.peek();
                assert_eq!(q.queue.census(), (population, 0, slab));
                q.drain();
                assert_eq!(q.queue.census(), (0, 0, slab), "round {round}");
                // Land on the next slot boundary, as the first pop did.
                q.push(SLOT_US - q.clock.as_micros() % SLOT_US);
                q.pop();
            }
            let (_, _, slab) = q.queue.census();
            let first = *slab_after_first_round.get_or_insert(slab);
            assert_eq!(first, 10_000usize.div_ceil(CHUNK_EVENTS));
            assert_eq!(slab, first, "round {round} reused the first round's chunks");
        }
    }

    #[test]
    fn many_part_filled_slots_cost_one_chunk_each_and_refill_by_their_own_len() {
        // 300 slots of 1..=19 events, linked interleaved so that no slot's
        // chunks are neighbours in the slab; then the same again with the
        // populations shifted, so a reused chunk's stale tail is longer
        // than its new `len` as often as shorter.
        let mut q = Checked::new();
        q.push(3 * SLOT_US);
        q.pop();
        for round in 0..3u64 {
            let population = |slot: u64| (slot * 7 + round * 5) % 19 + 1;
            let mut total = 0;
            for pass in 0..19 {
                for slot in 0..300 {
                    if pass < population(slot) {
                        q.push((2 + slot) * SLOT_US + pass * 50);
                        total += 1;
                    }
                }
            }
            let occupied = 300;
            let (near, ring, slab) = q.queue.census();
            assert_eq!((near, ring), (0, total as usize));
            assert!(
                slab <= total as usize / CHUNK_EVENTS + occupied,
                "round {round}: {slab} chunks for {total} events"
            );
            q.drain();
            assert_eq!(q.queue.census(), (0, 0, slab));
            q.push(SLOT_US - q.clock.as_micros() % SLOT_US);
            q.pop();
        }
    }

    #[test]
    fn the_slab_is_as_long_as_the_peak_ring_population() {
        let mut q = Checked::new();
        for round in 0..50u64 {
            for i in 0..100 {
                q.push(SLOT_US + (round * 7 + i) * 997 % (RING_US - 2 * SLOT_US));
            }
            for _ in 0..100 {
                q.pop();
            }
        }
        let (_, ring, slab) = q.queue.census();
        assert_eq!(ring, 0);
        assert!(slab <= 100, "freed chunks are reused, not leaked: {slab}");
    }
}
