//! In-simulation metrics: run-total counters and histograms.
//!
//! One of the kernel's three observation surfaces (crate docs): what a run
//! *counted* — messages sent, restarts commanded, control round-trip
//! latencies — lives here; what *happened*, event by event, goes to
//! observers on the bus ([`crate::observer`]), and bounded aggregates over
//! those events are stream operators ([`crate::stream`]). Storage is
//! id-indexed `Vec`s behind a deterministic intern table ([`MetricKey`],
//! see [`crate::intern`]): a writer interns its names once and updates by
//! key with zero heap allocations; readers may look a metric up by name
//! after the run.

use crate::intern::{Interner, MetricKey};
use std::fmt;

/// A histogram that retains all recorded samples.
///
/// Simulation runs record at most a few million samples per metric, so exact
/// retention is affordable and gives exact quantiles in exchange.
///
/// # Examples
///
/// ```
/// use riot_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     h.record(x);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.mean(), 2.5);
/// assert_eq!(h.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample. Non-finite samples are ignored.
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.samples.push(value);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean of the samples, or `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Smallest sample, or `0.0` if empty.
    pub fn min(&self) -> f64 {
        let m = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Largest sample, or `0.0` if empty.
    pub fn max(&self) -> f64 {
        let m = self
            .samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Exact `q`-quantile (`0.0 ..= 1.0`) using the nearest-rank method, or
    /// `0.0` if empty.
    ///
    /// Selects the rank in place rather than sorting: under the total order
    /// the `k`-th smallest sample is one fixed value, so the result is the
    /// sorted lookup's, bit for bit. It reorders the samples, which moves
    /// the last bits of a later [`mean`](Histogram::mean); read it first.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
        let n = self.samples.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        *self
            .samples
            .select_nth_unstable_by(rank - 1, f64::total_cmp)
            .1
    }
}

/// A summary of a [`Histogram`] suitable for table output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum sample.
    pub max: f64,
}

crate::impl_to_json_struct!(HistogramSummary {
    count,
    mean,
    min,
    p50,
    p95,
    p99,
    max
});

impl fmt::Display for HistogramSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} min={:.3} p50={:.3} p95={:.3} p99={:.3} max={:.3}",
            self.count, self.mean, self.min, self.p50, self.p95, self.p99, self.max
        )
    }
}

/// The metrics recorder owned by a simulation run.
///
/// Metric names are dotted paths by convention (`"net.dropped"`,
/// `"device.control.latency_ms"`); the recorder itself treats them as
/// opaque keys.
///
/// Writers [`intern`](Metrics::intern) their names once and update through
/// the `*_key` methods: a counter increment through a [`MetricKey`] is a
/// bounds-checked `Vec` write — no allocation, no tree walk. Reads by name
/// ([`counter`](Metrics::counter), [`histogram`](Metrics::histogram)) cost
/// one hash probe of the name and are meant for after the run;
/// [`summarize`](Metrics::summarize) reads by key.
///
/// # Examples
///
/// ```
/// use riot_sim::Metrics;
///
/// let mut m = Metrics::new();
/// let sent = m.intern("net.sent");
/// let rtt = m.intern("rtt_ms");
/// m.incr_key(sent);
/// m.incr_by_key(sent, 2);
/// m.observe_key(rtt, 12.5);
///
/// assert_eq!(m.counter_key(sent), 3);
/// assert_eq!(m.counter("net.sent"), 3);
/// assert_eq!(m.histogram("rtt_ms").unwrap().count(), 1);
/// assert_eq!(m.counter("never.written"), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    interner: Interner,
    /// Both stores are id-indexed and kept in lockstep with the interner.
    /// A name that was interned but never written reads like one that was
    /// never mentioned: a zero counter, no histogram.
    counters: Vec<u64>,
    histograms: Vec<Option<Histogram>>,
}

impl Metrics {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Interns `name`, minting a dense [`MetricKey`] on first sight.
    /// Idempotent; interning alone does not create a visible metric. The
    /// key is valid for this recorder and its clones only — using a key
    /// minted by a different recorder is a no-op (debug builds assert).
    pub fn intern(&mut self, name: &str) -> MetricKey {
        let key = self.interner.intern(name);
        while self.counters.len() < self.interner.len() {
            self.counters.push(0);
            self.histograms.push(None);
        }
        key
    }

    /// Returns the key for an already-interned name without minting.
    pub fn lookup(&self, name: &str) -> Option<MetricKey> {
        self.interner.get(name)
    }

    /// Increments a counter by one through a pre-interned key —
    /// the zero-allocation hot path.
    #[inline]
    pub fn incr_key(&mut self, key: MetricKey) {
        self.incr_by_key(key, 1);
    }

    /// Increments a counter by `delta` through a pre-interned key.
    #[inline]
    pub fn incr_by_key(&mut self, key: MetricKey, delta: u64) {
        if let Some(slot) = self.counters.get_mut(key.index()) {
            *slot += delta;
        } else {
            debug_assert!(false, "MetricKey minted by a different recorder");
        }
    }

    /// Reads a counter; missing counters read as zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.lookup(name).map_or(0, |key| self.counter_key(key))
    }

    /// Reads a counter through a pre-interned key.
    #[inline]
    pub fn counter_key(&self, key: MetricKey) -> u64 {
        self.counters.get(key.index()).copied().unwrap_or(0)
    }

    /// Records one histogram sample through a pre-interned key. Allocation
    /// only happens when the histogram grows, never for the key.
    #[inline]
    pub fn observe_key(&mut self, key: MetricKey, value: f64) {
        if let Some(slot) = self.histograms.get_mut(key.index()) {
            slot.get_or_insert_with(Histogram::new).record(value);
        } else {
            debug_assert!(false, "MetricKey minted by a different recorder");
        }
    }

    /// Borrows a histogram, if any sample was recorded under `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.lookup(name)
            .and_then(|key| self.histograms.get(key.index()))
            .and_then(Option::as_ref)
    }

    /// Summarizes the histogram behind `key` (count, mean, quantiles), if
    /// any sample was recorded.
    pub fn summarize(&mut self, key: MetricKey) -> Option<HistogramSummary> {
        let h = self.histograms.get_mut(key.index())?.as_mut()?;
        Some(HistogramSummary {
            count: h.count(),
            mean: h.mean(),
            min: h.min(),
            p50: h.quantile(0.5),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            max: h.max(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("x"), 0);
        let x = m.intern("x");
        m.incr_key(x);
        m.incr_by_key(x, 4);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn selected_quantiles_are_the_sorted_ones_bit_for_bit() {
        let mut rng = crate::SimRng::seed_from(35);
        let qs = [0.0, 0.01, 0.25, 0.5, 0.95, 0.99, 1.0];
        for n in [1usize, 2, 3, 7, 64, 257] {
            // Few distinct values (duplicates), both zeros, negatives.
            let pool = [-0.0, 0.0, -1.5, 2.25, 1e-300, -7.0, 1e9, 0.1];
            let samples: Vec<f64> = (0..n)
                .map(|_| *rng.pick(&pool).unwrap() * if rng.chance(0.5) { 1.0 } else { 3.0 })
                .collect();
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            let mut h = Histogram::new();
            for &x in &samples {
                h.record(x);
            }
            // Queried in a scrambled order, so each selection starts from
            // what the last one left.
            let mut order = qs;
            rng.shuffle(&mut order);
            for q in order {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                assert_eq!(
                    h.quantile(q).to_bits(),
                    sorted[rank - 1].to_bits(),
                    "n {n}, q {q}"
                );
            }
            assert_eq!(h.count(), n);
        }
    }

    #[test]
    fn histogram_quantiles_exact() {
        let mut h = Histogram::new();
        for x in 1..=100 {
            h.record(x as f64);
        }
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.95), 95.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(1.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn summary_matches_histogram() {
        let mut m = Metrics::new();
        let h = m.intern("h");
        for x in [1.0, 2.0, 3.0, 4.0] {
            m.observe_key(h, x);
        }
        let s = m.summarize(h).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        let missing = m.intern("missing");
        assert!(m.summarize(missing).is_none());
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn string_and_key_apis_share_one_slot() {
        // A name read after the run finds what its key wrote, and interning
        // the same name again yields the same key.
        let mut m = Metrics::new();
        let c = m.intern("c");
        m.incr_key(c);
        m.incr_by_key(c, 3);
        assert_eq!(m.intern("c"), c);
        assert_eq!(m.lookup("c"), Some(c));
        assert_eq!(m.counter("c"), 4);
        assert_eq!(m.counter_key(c), 4);

        let h = m.intern("h");
        m.observe_key(h, 1.0);
        m.observe_key(h, 2.0);
        assert_eq!(m.histogram("h").map(Histogram::count), Some(2));
        assert_eq!(m.counter("h"), 0, "one name, two stores, no crosstalk");
    }

    #[test]
    fn interning_alone_creates_no_visible_metric() {
        // A registered-but-never-written name must stay invisible, so that
        // eager pre-interning at startup cannot change what a reader sees.
        let mut m = Metrics::new();
        let ghost = m.intern("ghost");
        let real = m.intern("real");
        m.incr_key(real);
        assert_eq!(m.counter("real"), 1);
        assert_eq!(m.counter("ghost"), 0);
        assert!(m.histogram("ghost").is_none());
        assert!(m.summarize(ghost).is_none());
    }

    #[test]
    fn clones_keep_keys_valid() {
        let mut m = Metrics::new();
        let k = m.intern("x");
        m.incr_key(k);
        let mut c = m.clone();
        c.incr_key(k);
        assert_eq!(m.counter("x"), 1);
        assert_eq!(c.counter("x"), 2);
    }
}
