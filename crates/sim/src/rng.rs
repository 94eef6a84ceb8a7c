//! Deterministic randomness for simulation runs.
//!
//! All stochastic choices in a run — network latency draws, protocol jitter,
//! failure injection — are made from a single [`SimRng`] stream seeded at
//! construction. Running the same scenario with the same seed therefore
//! produces bit-identical traces, metrics and experiment rows.
//!
//! [`SimRng`] is built on a self-contained ChaCha8 block function: a
//! portable, explicitly versioned stream cipher keyed by the seed, with a
//! 64-bit block counter and a 64-bit *stream id* (the ChaCha nonce). The
//! implementation lives entirely in this file so the draw sequence can never
//! drift underneath us via a dependency upgrade — reproducibility across
//! toolchains is a stated resilience requirement (see `DESIGN.md`,
//! "Determinism & panic-safety policy").
//!
//! This module is the **only** sanctioned entropy source in sim-visible
//! crates; `riot-lint` rule `D3` rejects `thread_rng`, `rand::random` and
//! `RandomState` everywhere else.
//!
//! riot-lint: allow-file(P1, reason = "ChaCha8 core: fixed-size [u32; 16] state and output arrays indexed by literal constants")

/// Expands a 64-bit seed into key material via the SplitMix64 generator
/// (Steele, Lea & Flood 2014). SplitMix64 is a bijective mixer with provably
/// equidistributed output, the standard choice for seeding larger states.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The ChaCha block function with 8 rounds (4 double-rounds), RFC 8439
/// layout: 4 constant words, 8 key words, 2 counter words, 2 nonce words.
fn chacha8_block(key: &[u32; 8], counter: u64, stream: u64) -> [u32; 16] {
    let mut state: [u32; 16] = [
        0x6170_7865, // "expa"
        0x3320_646e, // "nd 3"
        0x7962_2d32, // "2-by"
        0x6b20_6574, // "te k"
        key[0],
        key[1],
        key[2],
        key[3],
        key[4],
        key[5],
        key[6],
        key[7],
        counter as u32,
        (counter >> 32) as u32,
        stream as u32,
        (stream >> 32) as u32,
    ];
    let initial = state;
    for _ in 0..4 {
        // column round
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        // diagonal round
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for (word, init) in state.iter_mut().zip(initial.iter()) {
        *word = word.wrapping_add(*init);
    }
    state
}

/// A seeded, reproducible random-number generator for a simulation run.
///
/// # Examples
///
/// ```
/// use riot_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    key: [u32; 8],
    stream: u64,
    counter: u64,
    block: [u32; 16],
    /// Next unread word in `block`; 16 means "exhausted, refill".
    cursor: usize,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let word = splitmix64(&mut sm);
            pair[0] = word as u32;
            if let Some(hi) = pair.get_mut(1) {
                *hi = (word >> 32) as u32;
            }
        }
        SimRng {
            key,
            stream: 0,
            counter: 0,
            block: [0; 16],
            cursor: 16,
        }
    }

    /// Derives an independent child stream, e.g. one per node, so that adding
    /// a consumer does not perturb the draws seen by others.
    ///
    /// The child is keyed by `stream`; distinct stream ids select distinct
    /// ChaCha nonces and therefore statistically independent sequences.
    /// Forking is a pure function of the parent's key: `fork(s)` called twice
    /// on the same parent yields identical children regardless of how much
    /// the parent has been consumed in between.
    pub fn fork(&self, stream: u64) -> SimRng {
        SimRng {
            key: self.key,
            stream,
            counter: 0,
            block: [0; 16],
            cursor: 16,
        }
    }

    fn next_u32(&mut self) -> u32 {
        if self.cursor >= 16 {
            self.block = chacha8_block(&self.key, self.counter, self.stream);
            self.counter = self.counter.wrapping_add(1);
            self.cursor = 0;
        }
        let word = self.block[self.cursor];
        self.cursor += 1;
        word
    }

    /// 32-bit words handed out since seeding or forking (a `u64` takes
    /// two): the blocks generated less the last one's unread words, so
    /// drawing pays nothing for the count.
    pub fn words_used(&self) -> u64 {
        self.counter * 16 + self.cursor as u64 - 16
    }

    /// Draws the next raw 64-bit value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// Draws a uniform `f64` in `[0, 1)` using the top 53 bits of a draw.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Draws a uniform integer in `[lo, hi)`, bias-free via rejection
    /// sampling.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        if span.is_power_of_two() {
            return lo + (self.next_u64() & (span - 1));
        }
        // Reject draws from the final partial cycle so every residue is
        // equally likely.
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let draw = self.next_u64();
            if draw < zone {
                return lo + draw % span;
            }
        }
    }

    /// Draws a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad range [{lo}, {hi})"
        );
        lo + self.unit() * (hi - lo)
    }

    /// Picks a uniformly random element of a slice, or `None` if empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.range_u64(0, items.len() as u64) as usize;
            items.get(i)
        }
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_u64(0, (i + 1) as u64) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(8);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should not coincide");
    }

    #[test]
    fn chacha_block_avalanches() {
        // The block function must actually mix: flipping one seed bit should
        // flip roughly half the output bits.
        let a = SimRng::seed_from(0).fork(0).next_u64();
        let b = SimRng::seed_from(1).fork(0).next_u64();
        let flipped = (a ^ b).count_ones();
        assert!(
            (16..=48).contains(&flipped),
            "avalanche too weak: {flipped} bits"
        );
    }

    #[test]
    fn forked_streams_are_independent_and_reproducible() {
        let root = SimRng::seed_from(1);
        let mut c1 = root.fork(10);
        let mut c1b = root.fork(10);
        let mut c2 = root.fork(11);
        assert_eq!(c1.next_u64(), c1b.next_u64(), "same stream id reproduces");
        // Streams 10 and 11 should diverge immediately with overwhelming probability.
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn fork_ignores_parent_position() {
        let mut root = SimRng::seed_from(1);
        let before = root.fork(10).next_u64();
        root.next_u64();
        let after = root.fork(10).next_u64();
        assert_eq!(before, after, "fork must be a pure function of the key");
    }

    #[test]
    fn words_used_counts_every_word_across_refills() {
        let mut r = SimRng::seed_from(23);
        assert_eq!(r.words_used(), 0);
        r.next_u64();
        assert_eq!(r.words_used(), 2);
        // A power-of-two span takes one `u64`, whatever it draws.
        r.range_u64(0, 1 << 20);
        assert_eq!(r.words_used(), 4);
        // `chance` draws only strictly inside (0, 1).
        assert!(!r.chance(0.0) && r.chance(1.0));
        assert_eq!(r.words_used(), 4);
        r.chance(0.5);
        assert_eq!(r.words_used(), 6);
        // Five more `u64`s cross the first block's 16 words.
        for _ in 0..5 {
            r.next_u64();
        }
        assert_eq!(r.words_used(), 16);
        r.next_u64();
        assert_eq!(r.words_used(), 18, "the refill is counted once");
        for _ in 0..100 {
            r.next_u64();
        }
        assert_eq!(r.words_used(), 218);
        // Rejection sampling: a span just over half the range rejects about
        // half its draws, and each try is counted.
        let before = r.words_used();
        let mut calls = 0;
        while r.words_used() - before < 2 * 64 {
            r.range_u64(0, (1 << 63) + 1);
            calls += 1;
        }
        assert_eq!((r.words_used() - before) % 2, 0);
        assert!(calls < 64, "{calls} calls took 64 draws: none rejected");
    }

    #[test]
    fn a_fork_starts_at_zero_words() {
        let mut root = SimRng::seed_from(29);
        for _ in 0..20 {
            root.next_u64();
        }
        let mut child = root.fork(3);
        assert_eq!((root.words_used(), child.words_used()), (40, 0));
        child.next_u64();
        assert_eq!((root.words_used(), child.words_used()), (40, 2));
    }

    #[test]
    fn chance_edges() {
        let mut r = SimRng::seed_from(3);
        assert!(!r.chance(0.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::seed_from(5);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits} hits for p=0.3");
    }

    #[test]
    fn pick_and_shuffle() {
        let mut r = SimRng::seed_from(13);
        let empty: [u32; 0] = [];
        assert!(r.pick(&empty).is_none());
        let items = [1, 2, 3];
        assert!(items.contains(r.pick(&items).expect("non-empty slice")));

        let mut v: Vec<u32> = (0..50).collect();
        let orig = v.clone();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle is a permutation");
        assert_ne!(v, orig, "50 elements almost surely move");
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = SimRng::seed_from(17);
        for _ in 0..1000 {
            let x = r.range_u64(10, 20);
            assert!((10..20).contains(&x));
            let y = r.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&y));
        }
    }

    #[test]
    fn range_u64_power_of_two_span() {
        let mut r = SimRng::seed_from(19);
        for _ in 0..1000 {
            assert!(r.range_u64(0, 16) < 16);
        }
    }
}
