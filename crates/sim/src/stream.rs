//! Streaming telemetry: windowed operators over the observability bus.
//!
//! The observer bus ([`crate::observer`]) turned the kernel's event flow
//! into a stream; this module turns that stream into *telemetry computed
//! while the run executes*, in O(window) memory, instead of materializing
//! full traces or unbounded per-tick series and analyzing them post-hoc.
//! It is the substrate the paper's monitoring/adaptation pillars (and the
//! roadmap's million-node item) stand on: a scenario that wants p99 control
//! latency should not have to retain every sample to get it.
//!
//! ## Pieces
//!
//! * **Reducers** — [`OnlineStats`] (Welford count/mean/M2 with exact
//!   min/max) and [`QuantileSketch`] (fixed log-bucket quantile sketch with
//!   a documented relative value-error bound, allocation-free after setup).
//! * **Windows** — [`TumblingWindow`]: non-overlapping spans, stats over
//!   window means, bounded by construction.
//! * **Operators** — the closed set [`StreamOp`]: [`MeasureProbe`] (follows
//!   one measurement key from [`Ctx::measure`](crate::Ctx::measure) events),
//!   [`FlowAccounting`] (per-[`MetricKey`] delivery counts over a
//!   [`CountByKey`]) and [`ActivityTracker`] (up/down liveness mirrored
//!   from lifecycle events). These three are every operator a scenario or
//!   the benchmark ever pushed, so they are an enum, not a trait: the
//!   pipeline derives `Clone`, reads come back typed without a downcast,
//!   and the call graph sees through the dispatch. A fourth operator is one
//!   variant, one `From` impl and one arm in each of [`StreamOp`]'s two
//!   `match`es.
//! * **[`StreamPipeline`]** — an ordered list of operators that is itself
//!   one [`SimObserver`] on the bus, so a whole pipeline costs the kernel a
//!   single dispatch slot.
//!
//! ## Determinism
//!
//! Operators inherit the observer contract: they are passive taps fed the
//! exact same event sequence on every run of a seed, so every aggregate
//! here is a pure function of the event stream — identical across harness
//! thread counts, and absent entirely (costing one branch) when no spec
//! opts in. All window boundaries are in virtual time; no operator reads
//! wall-clock time or ambient entropy (riot-lint D2/D3 apply to this
//! module like the rest of the crate).
//!
//! ## Hot-path discipline
//!
//! [`StreamPipeline::on_event`] is a declared `[hot]` root in
//! `lint-hotpaths.toml`; it dispatches by `match`, so riot-lint's call
//! graph reaches every leaf update ([`OnlineStats::record`],
//! [`QuantileSketch::record`], [`CountByKey::observe_slot`],
//! [`TumblingWindow::push_sample`]) from it and A1 proves them
//! allocation-free (DESIGN.md §10).

use crate::intern::MetricKey;
use crate::observer::{EventMask, SimEvent, SimEventKind, SimObserver};
use crate::process::ProcessId;
use crate::time::{SimDuration, SimTime};

/// Numerically stable streaming moments: count, mean, M2 (Welford), plus
/// exact min/max. O(1) state, O(1) update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        OnlineStats::new()
    }
}

impl OnlineStats {
    /// An empty reducer.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one sample in (Welford's update).
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample seen (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Linear-interpolated base-2 logarithm: exponent plus mantissa fraction,
/// straight off the float's bit pattern. Exact at powers of two, strictly
/// monotone, and at most 0.0861 below the true `log2(u)` in between — the
/// properties the sketch's bucket mapping needs, with no transcendental
/// call on the hot path. Callers guarantee `u` is positive and normal (or
/// `+inf`, which maps beyond every finite bucket).
#[inline]
fn log2_interp(u: f64) -> f64 {
    let bits = u.to_bits();
    let e = ((bits >> 52) & 0x7FF) as i64 - 1023;
    let m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    e as f64 + (m - 1.0)
}

/// An online quantile sketch over fixed logarithmic buckets.
///
/// Samples are mapped to buckets through the interpolated logarithm
/// `L(u) = ⌊log2 u⌋ + (mantissa − 1)` (see `log2_interp`): bucket `i` holds
/// values `v` with `i ≤ L(v/lo)/ln γ < i+1`, where `γ = (1+α)²`. Because
/// `L` is monotone and its slope against `log2` never drops below `ln 2`,
/// the value ratio spanned by one bucket never exceeds `γ` — the same
/// guarantee exact `γ`-spaced buckets give, bought with ~1/ln 2 ≈ 1.44×
/// more buckets instead of a logarithm per sample (the DDSketch
/// interpolated-mapping trade). A query returns the geometric midpoint of
/// the bucket holding the exact nearest-rank element, clamped to the exact
/// observed `[min, max]`.
///
/// ## Error bound
///
/// Bucket counts are exact, so rank selection is exact at bucket
/// granularity: the query walks the counts to the bucket containing the
/// true nearest-rank sample. A bucket's boundary ratio is at most `γ`, so
/// its geometric midpoint satisfies `|mid − v| / v ≤ √γ − 1 = α` for every
/// `v` it holds: for samples inside `[lo, hi]` every reported quantile is
/// within **relative value error α** of the exact nearest-rank quantile
/// (default α = 0.01, i.e. 1%). Samples at or below `lo` report the exact
/// minimum; samples beyond the sized range report the exact maximum.
///
/// ## Memory and hot-path cost
///
/// `≈ log2(hi/lo)/ln γ` u64 buckets allocated once at construction
/// (≈ 1500 buckets ≈ 12 KiB for the [`QuantileSketch::for_latency_ms`]
/// span); [`QuantileSketch::record`] is a multiply, an exponent extraction
/// and an increment — allocation-free, as proven by riot-lint A1 (it is a
/// declared hot root).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    lo: f64,
    gamma: f64,
    /// `1/lo`, so the hot path multiplies instead of dividing.
    scale: f64,
    /// `ln γ`: the bucket width in `log2_interp` units.
    ln_gamma: f64,
    inv_ln_gamma: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// A sketch sized for values in `[lo, hi]` with relative value-error
    /// bound `alpha`. `lo` must be positive, `hi` greater than `lo`, and
    /// `alpha` in `(0, 1)`; degenerate arguments fall back to a one-bucket
    /// sketch that still reports exact min/max.
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Self {
        let lo = if lo.is_finite() && lo > 0.0 { lo } else { 1.0 };
        let alpha = if alpha.is_finite() && alpha > 0.0 && alpha < 1.0 {
            alpha
        } else {
            0.01
        };
        let gamma = (1.0 + alpha) * (1.0 + alpha);
        let ln_gamma = gamma.ln();
        let n = if hi.is_finite() && hi > lo {
            (log2_interp(hi / lo) / ln_gamma).floor() as usize + 1
        } else {
            1
        };
        QuantileSketch {
            lo,
            gamma,
            scale: 1.0 / lo,
            ln_gamma,
            inv_ln_gamma: 1.0 / ln_gamma,
            buckets: vec![0; n.max(1)],
            underflow: 0,
            overflow: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// A sketch pre-sized for latency milliseconds: 0.001 ms – 1 000 000 ms
    /// at the default α = 0.01 (≈ 1500 buckets, 12 KiB).
    pub fn for_latency_ms() -> Self {
        QuantileSketch::new(0.001, 1_000_000.0, 0.01)
    }

    /// Folds one sample in. Non-finite samples are ignored.
    #[inline]
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        if v <= self.lo {
            self.underflow += 1;
            return;
        }
        // v > lo makes v·scale ≥ ~1 up to rounding; the float→usize cast
        // saturates the rounding-edge negative to bucket 0, and +inf (from
        // v·scale overflowing) lands past every bucket, i.e. in overflow.
        let idx = (log2_interp(v * self.scale) * self.inv_ln_gamma) as usize;
        match self.buckets.get_mut(idx) {
            Some(slot) => *slot += 1,
            None => self.overflow += 1,
        }
    }

    /// Lower value boundary of bucket `i`, in `v/lo` units: the `u` at
    /// which `log2_interp(u)` reaches `i·ln γ`. Query-path only.
    fn bucket_floor(&self, i: usize) -> f64 {
        let t = i as f64 * self.ln_gamma;
        let e = t.floor();
        f64::exp2(e) * (1.0 + (t - e))
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The configured relative value-error bound (√γ − 1).
    pub fn alpha(&self) -> f64 {
        self.gamma.sqrt() - 1.0
    }

    /// Exact smallest sample (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact largest sample (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by nearest rank over the bucket
    /// counts; `NaN` when empty. See the type docs for the error bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.underflow;
        if rank <= seen {
            return self.min;
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if rank <= seen {
                let mid = self.lo * (self.bucket_floor(i) * self.bucket_floor(i + 1)).sqrt();
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median shorthand.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile shorthand.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile shorthand.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Non-overlapping fixed-width windows in virtual time. Keeps the stats of
/// the *current* window plus O(1) roll-up state: the stats of the last
/// closed window and an [`OnlineStats`] over all closed windows' means —
/// a bounded replacement for retaining one value per tick.
#[derive(Debug, Clone, Copy)]
pub struct TumblingWindow {
    width: SimDuration,
    window_end: SimTime,
    current: OnlineStats,
    last: OnlineStats,
    closed: u64,
    over_means: OnlineStats,
}

impl TumblingWindow {
    /// Windows of `width`, aligned to the virtual-time origin. Zero width
    /// is clamped to 1 µs.
    pub fn new(width: SimDuration) -> Self {
        let width = if width.as_micros() == 0 {
            SimDuration::from_micros(1)
        } else {
            width
        };
        TumblingWindow {
            width,
            window_end: SimTime::ZERO + width,
            current: OnlineStats::new(),
            last: OnlineStats::new(),
            closed: 0,
            over_means: OnlineStats::new(),
        }
    }

    /// Folds one sample into the window containing `at`, closing any
    /// windows that elapsed since the previous sample.
    #[inline]
    pub fn push_sample(&mut self, at: SimTime, value: f64) {
        while at >= self.window_end {
            self.close_current();
        }
        self.current.record(value);
    }

    fn close_current(&mut self) {
        if self.current.count() > 0 {
            self.over_means.record(self.current.mean());
        }
        self.last = self.current;
        self.current = OnlineStats::new();
        self.closed += 1;
        self.window_end += self.width;
    }

    /// Stats of the window currently filling.
    pub fn current(&self) -> &OnlineStats {
        &self.current
    }

    /// Stats of the most recently closed window (empty before the first
    /// close).
    pub fn last_closed(&self) -> &OnlineStats {
        &self.last
    }

    /// Number of windows closed so far (empty windows included).
    pub fn closed_count(&self) -> u64 {
        self.closed
    }

    /// Stats over the means of all non-empty closed windows.
    pub fn over_means(&self) -> &OnlineStats {
        &self.over_means
    }
}

/// Exact per-key event counting over a *closed* key set declared at
/// construction — per-jurisdiction or per-link flow accounting. Lookups
/// are binary search over a sorted slot vector (no hashing, riot-lint D1),
/// updates a single increment; events for undeclared keys are ignored.
#[derive(Debug, Clone)]
pub struct CountByKey {
    slots: Vec<(MetricKey, u64)>,
}

impl CountByKey {
    /// A counter over the given keys (duplicates collapse to one slot).
    pub fn new(keys: &[MetricKey]) -> Self {
        let mut slots: Vec<(MetricKey, u64)> = Vec::with_capacity(keys.len());
        for &k in keys {
            if !slots.iter().any(|&(have, _)| have == k) {
                slots.push((k, 0));
            }
        }
        slots.sort_by_key(|&(k, _)| k.index());
        CountByKey { slots }
    }

    /// The stable slot index of `key` for [`CountByKey::observe_slot`]
    /// (`None` for a key not declared at construction).
    pub fn slot(&self, key: MetricKey) -> Option<usize> {
        self.slots
            .binary_search_by_key(&key.index(), |&(k, _)| k.index())
            .ok()
    }

    /// Increments by pre-resolved slot index (see [`CountByKey::slot`]);
    /// out-of-range slots are ignored.
    #[inline]
    pub fn observe_slot(&mut self, slot: usize) {
        if let Some((_, n)) = self.slots.get_mut(slot) {
            *n += 1;
        }
    }

    /// The count for `key` (0 for undeclared keys).
    pub fn count(&self, key: MetricKey) -> u64 {
        self.slots
            .binary_search_by_key(&key.index(), |&(k, _)| k.index())
            .ok()
            .and_then(|pos| self.slots.get(pos))
            .map(|&(_, n)| n)
            .unwrap_or(0)
    }

    /// All `(key, count)` slots in key-registration order (which is the
    /// deterministic intern order of the declaring run).
    pub fn iter(&self) -> impl Iterator<Item = (MetricKey, u64)> + '_ {
        self.slots.iter().copied()
    }

    /// Sum over all slots.
    pub fn total(&self) -> u64 {
        self.slots.iter().map(|&(_, n)| n).sum()
    }
}

/// Follows one measurement key: every [`SimEventKind::Measure`] event
/// carrying `key` feeds an [`OnlineStats`], a [`QuantileSketch`], and a
/// [`TumblingWindow`] — the standard latency-telemetry bundle.
#[derive(Clone)]
pub struct MeasureProbe {
    key: MetricKey,
    stats: OnlineStats,
    sketch: QuantileSketch,
    window: TumblingWindow,
}

impl MeasureProbe {
    /// Probes `key`, bucketing quantiles with `sketch` and windowing means
    /// with tumbling windows of `window_width`.
    pub fn new(key: MetricKey, sketch: QuantileSketch, window_width: SimDuration) -> Self {
        MeasureProbe {
            key,
            stats: OnlineStats::new(),
            sketch,
            window: TumblingWindow::new(window_width),
        }
    }

    /// The key this probe follows.
    pub fn key(&self) -> MetricKey {
        self.key
    }

    /// Whole-run streaming moments.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// Whole-run quantile sketch.
    pub fn sketch(&self) -> &QuantileSketch {
        &self.sketch
    }

    /// Tumbling-window roll-up.
    pub fn window(&self) -> &TumblingWindow {
        &self.window
    }

    /// Folds one bus event in; anything but a `Measure` of this probe's
    /// key is ignored.
    #[inline]
    pub fn on_event(&mut self, event: &SimEvent) {
        if let SimEventKind::Measure {
            key, value_bits, ..
        } = event.kind
        {
            if key == self.key {
                let v = f64::from_bits(value_bits);
                self.stats.record(v);
                self.sketch.record(v);
                self.window.push_sample(event.at, v);
            }
        }
    }
}

/// Per-destination flow accounting: counts delivered messages by the
/// [`MetricKey`] class of their destination process (e.g. one key per
/// jurisdiction). The process → counter-slot map is a dense vector resolved
/// once at construction, so the per-event cost is one bounds-checked load
/// plus one increment — no per-event key search.
#[derive(Clone)]
pub struct FlowAccounting {
    slot_of: Vec<Option<u32>>,
    counts: CountByKey,
}

impl FlowAccounting {
    /// Accounts deliveries to process `p` under `key_of[p.index()]`;
    /// processes mapped to `None` are not accounted.
    pub fn new(key_of: Vec<Option<MetricKey>>) -> Self {
        let mut keys: Vec<MetricKey> = Vec::with_capacity(key_of.len());
        for k in key_of.iter().flatten() {
            keys.push(*k);
        }
        let counts = CountByKey::new(&keys);
        let slot_of = key_of
            .iter()
            .map(|k| k.and_then(|key| counts.slot(key)).map(|s| s as u32))
            .collect();
        FlowAccounting { slot_of, counts }
    }

    /// The accumulated per-key delivery counts.
    pub fn counts(&self) -> &CountByKey {
        &self.counts
    }

    /// Folds one bus event in; anything but a `Delivered` to an accounted
    /// process is ignored.
    #[inline]
    pub fn on_event(&mut self, event: &SimEvent) {
        if let SimEventKind::Delivered { to, .. } = event.kind {
            if let Some(Some(slot)) = self.slot_of.get(to.index()) {
                self.counts.observe_slot(*slot as usize);
            }
        }
    }
}

/// Mirrors process liveness from the event stream: every
/// [`SimEventKind::ProcessDown`]/[`SimEventKind::ProcessUp`] flips one
/// bit. Because lifecycle events are emitted exactly once per transition,
/// the mirrored state provably equals the kernel's own liveness table at
/// every instant — which lets consumers (e.g. `Scenario::sample`) answer
/// liveness queries from the stream instead of rescanning kernel state.
#[derive(Clone)]
pub struct ActivityTracker {
    up: Vec<bool>,
    transitions: u64,
}

impl ActivityTracker {
    /// Tracks `n` processes, all initially up (the kernel's spawn state).
    pub fn new(n: usize) -> Self {
        ActivityTracker {
            up: vec![true; n],
            transitions: 0,
        }
    }

    /// Mirrored liveness of `id` (`false` for out-of-range ids).
    #[inline]
    pub fn is_up(&self, id: ProcessId) -> bool {
        self.up.get(id.index()).copied().unwrap_or(false)
    }

    /// Number of processes currently up.
    pub fn up_count(&self) -> usize {
        self.up.iter().filter(|&&b| b).count()
    }

    /// Number of lifecycle transitions observed.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Folds one bus event in; anything but a lifecycle transition is
    /// ignored.
    #[inline]
    pub fn on_event(&mut self, event: &SimEvent) {
        let (idx, state) = match event.kind {
            SimEventKind::ProcessDown { id } => (id.index(), false),
            SimEventKind::ProcessUp { id } => (id.index(), true),
            _ => return,
        };
        if let Some(slot) = self.up.get_mut(idx) {
            *slot = state;
            self.transitions += 1;
        }
    }
}

/// The closed set of stream operators (see the module docs for why it is
/// an enum). Built from an operator with `into()`, which is what
/// [`StreamPipeline::push`] does.
#[derive(Clone)]
pub enum StreamOp {
    /// Latency telemetry over one measurement key (boxed: six times the
    /// size of the other two).
    Measure(Box<MeasureProbe>),
    /// Per-key delivery counts.
    Flows(FlowAccounting),
    /// The liveness mirror.
    Activity(ActivityTracker),
}

impl StreamOp {
    /// The event kinds the operator consumes (same contract as
    /// [`SimObserver::interest`]).
    fn interest(&self) -> EventMask {
        match self {
            StreamOp::Measure(_) => EventMask::MEASURE,
            StreamOp::Flows(_) => EventMask::DELIVERED,
            StreamOp::Activity(_) => EventMask::LIFECYCLE,
        }
    }

    #[inline]
    fn on_event(&mut self, event: &SimEvent) {
        match self {
            StreamOp::Measure(probe) => MeasureProbe::on_event(probe, event),
            StreamOp::Flows(flows) => FlowAccounting::on_event(flows, event),
            StreamOp::Activity(tracker) => ActivityTracker::on_event(tracker, event),
        }
    }
}

impl From<MeasureProbe> for StreamOp {
    fn from(op: MeasureProbe) -> Self {
        StreamOp::Measure(Box::new(op))
    }
}

impl From<FlowAccounting> for StreamOp {
    fn from(op: FlowAccounting) -> Self {
        StreamOp::Flows(op)
    }
}

impl From<ActivityTracker> for StreamOp {
    fn from(op: ActivityTracker) -> Self {
        StreamOp::Activity(op)
    }
}

/// An ordered list of operators behind a single observer slot: the kernel
/// dispatches each event once to the pipeline, which fans it out to every
/// operator in push order. Operators are read back after the run by index
/// through the typed accessors.
///
/// The pipeline skips operators for kinds outside their interest mask and
/// advertises the union as its own [`SimObserver::interest`], so a pipeline
/// of narrow operators costs the kernel nothing on kinds none of them
/// consume.
#[derive(Clone, Default)]
pub struct StreamPipeline {
    ops: Vec<(EventMask, StreamOp)>,
}

impl StreamPipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        StreamPipeline::default()
    }

    /// A pipeline pre-sized for `n` operators.
    pub fn with_capacity(n: usize) -> Self {
        StreamPipeline {
            ops: Vec::with_capacity(n),
        }
    }

    /// Appends an operator; returns its index for post-run retrieval.
    pub fn push(&mut self, op: impl Into<StreamOp>) -> usize {
        let op = op.into();
        self.ops.push((op.interest(), op));
        self.ops.len() - 1
    }

    /// The operator at `idx`, if it is a [`MeasureProbe`].
    pub fn measure_probe(&self, idx: usize) -> Option<&MeasureProbe> {
        match self.ops.get(idx) {
            Some((_, StreamOp::Measure(probe))) => Some(probe.as_ref()),
            _ => None,
        }
    }

    /// The operator at `idx`, if it is a [`FlowAccounting`].
    pub fn flow_accounting(&self, idx: usize) -> Option<&FlowAccounting> {
        match self.ops.get(idx) {
            Some((_, StreamOp::Flows(flows))) => Some(flows),
            _ => None,
        }
    }

    /// The operator at `idx`, if it is an [`ActivityTracker`].
    pub fn activity_tracker(&self, idx: usize) -> Option<&ActivityTracker> {
        match self.ops.get(idx) {
            Some((_, StreamOp::Activity(tracker))) => Some(tracker),
            _ => None,
        }
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if no operators are registered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl SimObserver for StreamPipeline {
    #[inline]
    fn on_event(&mut self, event: &SimEvent) {
        let bit = event.kind.mask();
        for (mask, op) in &mut self.ops {
            if mask.intersects(bit) {
                StreamOp::on_event(op, event);
            }
        }
    }

    fn interest(&self) -> EventMask {
        let mut union = EventMask::NONE;
        for (mask, _) in &self.ops {
            union |= *mask;
        }
        union
    }

    fn name(&self) -> &str {
        "stream-pipeline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measure(at_us: u64, key: MetricKey, v: f64) -> SimEvent {
        SimEvent {
            at: SimTime::from_micros(at_us),
            kind: SimEventKind::Measure {
                id: ProcessId(0),
                key,
                value_bits: v.to_bits(),
            },
            detail: String::new(),
        }
    }

    fn delivered(at_us: u64, to: usize) -> SimEvent {
        SimEvent {
            at: SimTime::from_micros(at_us),
            kind: SimEventKind::Delivered {
                from: ProcessId(0),
                to: ProcessId(to),
            },
            detail: String::new(),
        }
    }

    #[test]
    fn online_stats_match_naive_moments() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert_eq!(s.count(), xs.len() as u64);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn sketch_quantiles_within_alpha_of_exact() {
        // Deterministic skewed sample: latencies spanning three decades.
        let mut xs: Vec<f64> = (1..=5000u64)
            .map(|i| 0.5 + ((i * 2_654_435_761) % 100_000) as f64 / 100.0)
            .collect();
        let mut sketch = QuantileSketch::for_latency_ms();
        for &x in &xs {
            sketch.record(x);
        }
        xs.sort_by(|a, b| a.total_cmp(b));
        let alpha = sketch.alpha();
        for q in [0.5, 0.95, 0.99] {
            let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
            let exact = xs[rank - 1];
            let got = sketch.quantile(q);
            assert!(
                (got - exact).abs() <= alpha * exact + 1e-9,
                "q={q}: sketch {got} vs exact {exact} beyond α={alpha}"
            );
        }
        assert_eq!(sketch.count(), 5000);
    }

    #[test]
    fn sketch_extremes_are_exact_and_empty_is_nan() {
        let mut sketch = QuantileSketch::new(1.0, 100.0, 0.05);
        assert!(sketch.quantile(0.5).is_nan());
        sketch.record(0.25); // below lo → underflow, exact min
        sketch.record(1e9); // beyond hi → overflow, exact max
        assert_eq!(sketch.quantile(0.0), 0.25);
        assert_eq!(sketch.quantile(1.0), 1e9);
        assert_eq!(sketch.min(), 0.25);
        assert_eq!(sketch.max(), 1e9);
    }

    #[test]
    fn tumbling_window_rolls_over_and_rolls_up() {
        let mut w = TumblingWindow::new(SimDuration::from_secs(1));
        w.push_sample(SimTime::from_millis(100), 10.0);
        w.push_sample(SimTime::from_millis(900), 20.0);
        assert_eq!(w.current().count(), 2);
        assert_eq!(w.closed_count(), 0);
        // Jump over an empty window: two closes, one of them empty.
        w.push_sample(SimTime::from_millis(2500), 7.0);
        assert_eq!(w.closed_count(), 2);
        assert_eq!(w.last_closed().count(), 0, "second window was empty");
        assert_eq!(w.over_means().count(), 1);
        assert!((w.over_means().mean() - 15.0).abs() < 1e-12);
        assert_eq!(w.current().count(), 1);
    }

    #[test]
    fn count_by_key_counts_declared_keys_only() {
        let mut m = crate::metrics::Metrics::new();
        let (a, b, c) = (m.intern("k.a"), m.intern("k.b"), m.intern("k.c"));
        let mut counts = CountByKey::new(&[b, a, b]);
        let (slot_a, slot_b) = (counts.slot(a).unwrap(), counts.slot(b).unwrap());
        assert_eq!(counts.slot(c), None, "undeclared → no slot");
        counts.observe_slot(slot_a);
        counts.observe_slot(slot_b);
        counts.observe_slot(slot_b);
        counts.observe_slot(99); // out of range → ignored
        assert_eq!(counts.count(a), 1);
        assert_eq!(counts.count(b), 2);
        assert_eq!(counts.count(c), 0);
        assert_eq!(counts.total(), 3);
        assert_eq!(counts.iter().count(), 2, "duplicates collapsed");
    }

    #[test]
    fn measure_probe_follows_only_its_key() {
        let mut m = crate::metrics::Metrics::new();
        let mine = m.intern("lat.mine");
        let other = m.intern("lat.other");
        let mut probe = MeasureProbe::new(
            mine,
            QuantileSketch::for_latency_ms(),
            SimDuration::from_secs(1),
        );
        probe.on_event(&measure(10, mine, 5.0));
        probe.on_event(&measure(20, other, 500.0));
        probe.on_event(&measure(30, mine, 15.0));
        assert_eq!(probe.stats().count(), 2);
        assert!((probe.stats().mean() - 10.0).abs() < 1e-12);
        assert_eq!(probe.sketch().count(), 2);
        assert_eq!(probe.window().current().count(), 2);
    }

    #[test]
    fn flow_accounting_classifies_deliveries() {
        let mut m = crate::metrics::Metrics::new();
        let eu = m.intern("flow.eu");
        let us = m.intern("flow.us");
        let mut flows = FlowAccounting::new(vec![Some(eu), Some(us), Some(eu), None]);
        for to in [0, 1, 2, 2, 3, 7] {
            flows.on_event(&delivered(to as u64, to));
        }
        assert_eq!(flows.counts().count(eu), 3);
        assert_eq!(flows.counts().count(us), 1);
        assert_eq!(flows.counts().total(), 4);
    }

    #[test]
    fn activity_tracker_mirrors_lifecycle() {
        let mut t = ActivityTracker::new(3);
        assert!(t.is_up(ProcessId(2)));
        assert!(!t.is_up(ProcessId(9)));
        t.on_event(&SimEvent {
            at: SimTime::from_secs(1),
            kind: SimEventKind::ProcessDown { id: ProcessId(1) },
            detail: String::new(),
        });
        assert!(!t.is_up(ProcessId(1)));
        assert_eq!(t.up_count(), 2);
        t.on_event(&SimEvent {
            at: SimTime::from_secs(2),
            kind: SimEventKind::ProcessUp { id: ProcessId(1) },
            detail: String::new(),
        });
        assert!(t.is_up(ProcessId(1)));
        assert_eq!(t.transitions(), 2);
    }

    #[test]
    fn a_cloned_pipeline_fed_the_same_events_reports_the_same_aggregates() {
        let mut m = crate::metrics::Metrics::new();
        let (lat, eu) = (m.intern("lat.ms"), m.intern("flow.eu"));
        let mut original = StreamPipeline::with_capacity(3);
        let probe = original.push(MeasureProbe::new(
            lat,
            QuantileSketch::for_latency_ms(),
            SimDuration::from_millis(10),
        ));
        let flows = original.push(FlowAccounting::new(vec![Some(eu), None]));
        let activity = original.push(ActivityTracker::new(2));
        let down = SimEvent {
            at: SimTime::from_micros(7),
            kind: SimEventKind::ProcessDown { id: ProcessId(1) },
            detail: String::new(),
        };
        let prefix = [measure(1, lat, 4.0), delivered(2, 0), down];
        let suffix = [measure(20_000, lat, 9.0), delivered(20_001, 0)];
        for ev in &prefix {
            original.on_event(ev);
        }
        // Fork mid-run: the clone carries the prefix's state and then sees
        // the same suffix.
        let mut fork = original.clone();
        for ev in &suffix {
            original.on_event(ev);
            fork.on_event(ev);
        }
        assert_eq!(fork.len(), 3);
        assert_eq!(fork.interest(), original.interest());
        let (a, b) = (
            original.measure_probe(probe).unwrap(),
            fork.measure_probe(probe).unwrap(),
        );
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.stats().count(), 2);
        assert_eq!(a.sketch(), b.sketch());
        assert_eq!(a.window().closed_count(), b.window().closed_count());
        assert_eq!(a.window().over_means(), b.window().over_means());
        let (a, b) = (
            original.flow_accounting(flows).unwrap(),
            fork.flow_accounting(flows).unwrap(),
        );
        assert_eq!(a.counts().count(eu), 2);
        assert_eq!(b.counts().count(eu), 2);
        let (a, b) = (
            original.activity_tracker(activity).unwrap(),
            fork.activity_tracker(activity).unwrap(),
        );
        assert_eq!((a.up_count(), a.transitions()), (1, 1));
        assert_eq!((b.up_count(), b.transitions()), (1, 1));
        // A typed read at another operator's index is `None`, not a panic.
        assert!(fork.measure_probe(flows).is_none());
    }
}
