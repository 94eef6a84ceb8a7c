//! Scenario-level observability: observer registration specs, online
//! requirement monitors, and their reported outcomes.
//!
//! ## Which surface for what
//!
//! A scenario is observed through three surfaces and keeps one record of
//! its own:
//!
//! * **events** — what happened, in order: an observer on the kernel bus.
//!   [`ScenarioSpec::trace_tail`](crate::ScenarioSpec::trace_tail) keeps
//!   the last N (all of them, if N is large enough) in a `RingTrace`;
//!   [`ObserverSpec`] registers anything else.
//! * **bounded aggregates** — what a signal looked like, in memory
//!   independent of run length: the [`StreamSpec`] pipeline's operators,
//!   reported as [`StreamSummary`] rows.
//! * **run totals** — how often and how long: `riot_sim::Metrics` counters
//!   and histograms, read into [`ScenarioResult`](crate::ScenarioResult)'s
//!   counters and `control_latency`.
//! * **the samples** — the per-tick requirement verdicts and telemetry the
//!   resilience numbers are integrated from: the scenario's own
//!   [`SampleLog`](crate::SampleLog), not an observer and not a metric.
//!
//! ## Online monitors and the `sat` note
//!
//! Each sample tick values the seven [`VALUATION_ATOMS`] — `all`, `goal`,
//! then the five [`REQUIREMENT_NAMES`](crate::REQUIREMENT_NAMES) in their
//! canonical order. The LTL properties of
//! [`ScenarioSpec::monitors`](crate::ScenarioSpec::monitors) live in an
//! `riot_formal::OnlineMonitor` bank the [`Scenario`](crate::Scenario) owns
//! and steps with that valuation, as data, at the tick — so a violation is
//! timestamped at the sample that caused it instead of after a post-hoc
//! replay. The bank is not on the bus and reads no text.
//!
//! The same valuation is rendered onto the kernel bus as an annotation with
//! the [`SAT_LABEL`] label, for whoever reads the event trace:
//!
//! ```text
//! sat all=1 goal=1 latency=1 availability=1 coverage=0 freshness=1 privacy=1
//! ```
//!
//! It is a trace line, not an input: formatted only when some observer (the
//! ring, an [`ObserverSpec`] observer) subscribed to notes, and nothing in
//! the workspace parses it back. Token order is [`VALUATION_ATOMS`] order.
//!
//! ## Registration order (determinism contract)
//!
//! Observers cannot perturb a run (they only read events), but *reported*
//! artifacts must be reproducible, so `Scenario::build` registers three
//! taps in a fixed, documented order:
//!
//! 1. the forensic `RingTrace` from `ScenarioSpec::trace_tail` (if any),
//! 2. the streaming-telemetry pipeline from `ScenarioSpec::streams` (if
//!    on; see [`StreamSpec`]),
//! 3. each [`ObserverSpec`] factory, in registration order.
//!
//! Nothing the run reads is an observer: the node-state slab learns a
//! device's liveness from the injection that crashed or revived it.

use riot_formal::{OnlineMonitor, ParseError, Verdict3};
use riot_sim::{AnyObserver, Json, SimObserver, ToJson};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// The label of the trace note a sample's valuation is rendered under, and
/// the display name of the scenario's monitor bank.
pub(crate) const SAT_LABEL: &str = "sat";

/// The atoms a sample tick values, in bit order: atom *i* is bit *i* of the
/// valuation the monitor bank is stepped with and token *i* of the `sat`
/// note. `all`, `goal`, then [`REQUIREMENT_NAMES`](crate::REQUIREMENT_NAMES).
pub(crate) const VALUATION_ATOMS: [&str; 7] = [
    "all",
    "goal",
    "latency",
    "availability",
    "coverage",
    "freshness",
    "privacy",
];

/// One LTL property to monitor online during a scenario run.
///
/// The formula is parsed by `riot_formal::parse_ltl`; its atoms must be
/// among the sample tick's atoms — `all`, `goal` and the
/// [`REQUIREMENT_NAMES`](crate::REQUIREMENT_NAMES) — and
/// [`MonitorSpec::validate`] says whether they are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorSpec {
    /// Name the outcome is reported under.
    pub name: String,
    /// LTL source text, e.g. `"G (!all -> F all)"`.
    pub formula: String,
}

/// Why a [`MonitorSpec`] cannot be monitored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorError {
    /// The formula is not LTL.
    Formula(ParseError),
    /// The formula names an atom no sample values. It would read false for
    /// the whole run, so the property would check nothing.
    UnknownAtom(String),
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::Formula(e) => write!(f, "bad formula: {e}"),
            MonitorError::UnknownAtom(atom) => write!(
                f,
                "unknown atom '{atom}' (known: {})",
                VALUATION_ATOMS.join(" ")
            ),
        }
    }
}

impl std::error::Error for MonitorError {}

impl MonitorSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, formula: impl Into<String>) -> Self {
        MonitorSpec {
            name: name.into(),
            formula: formula.into(),
        }
    }

    /// Checks that the formula parses and names only the sample tick's
    /// atoms (see [`MonitorSpec`]).
    /// [`ScenarioSpec::validate`](crate::ScenarioSpec::validate) runs this
    /// on every monitor; a reader of monitor text from outside the program
    /// calls it to report the error where the text is.
    pub fn validate(&self) -> Result<(), MonitorError> {
        self.watch_on(&mut valuation_bank())
    }

    /// Watches the property on a bank made by [`valuation_bank`].
    pub(crate) fn watch_on(&self, bank: &mut OnlineMonitor) -> Result<(), MonitorError> {
        bank.watch(&self.name, &self.formula)
            .map_err(MonitorError::Formula)?;
        // The valuation atoms went in first: a name behind them is one the
        // formula brought.
        match bank.atoms().names().nth(VALUATION_ATOMS.len()) {
            Some(atom) => Err(MonitorError::UnknownAtom(atom.to_owned())),
            None => Ok(()),
        }
    }
}

/// An empty monitor bank whose vocabulary is [`VALUATION_ATOMS`], interned
/// in order before anything is watched — so atom *i* is bit *i*.
pub(crate) fn valuation_bank() -> OnlineMonitor {
    let mut bank = OnlineMonitor::new(SAT_LABEL);
    for name in VALUATION_ATOMS {
        bank.atoms_mut().intern(name);
    }
    bank
}

/// The end-of-run outcome of one online-monitored property.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorOutcome {
    /// Property name from the [`MonitorSpec`].
    pub name: String,
    /// Formula source text.
    pub formula: String,
    /// Final three-valued verdict; reports print [`Verdict3::name`].
    pub verdict: Verdict3,
    /// Number of valuation samples the monitor consumed.
    pub steps: usize,
    /// The property resolved at end of run: a definite verdict stands, an
    /// inconclusive residual is evaluated on the empty suffix.
    pub holds_at_end: bool,
    /// Virtual time (seconds) at which the verdict first became `Violated` —
    /// the online detection timestamp — if it ever did.
    pub first_violation_s: Option<f64>,
    /// Virtual time (seconds) at which the verdict first became `Satisfied`,
    /// if it ever did.
    pub first_satisfaction_s: Option<f64>,
}

impl MonitorOutcome {
    /// `true` when the property failed to hold at end of run: either a
    /// definite violation, or an inconclusive residual whose pending
    /// obligation was left unmet (a response property still waiting for
    /// recovery when the run ended). This is the oracle predicate the
    /// `riot-campaign` fuzzer treats as a finding.
    pub fn failed(&self) -> bool {
        !self.holds_at_end
    }
}

/// Extracts reported outcomes from a finished monitor bank.
pub(crate) fn monitor_outcomes(bank: &OnlineMonitor) -> Vec<MonitorOutcome> {
    bank.properties()
        .iter()
        .map(|p| MonitorOutcome {
            name: p.name().to_owned(),
            formula: p.source().to_owned(),
            verdict: p.verdict(),
            steps: p.monitor().steps(),
            holds_at_end: p.finish(),
            first_violation_s: p.first_violation().map(|t| t.as_secs_f64()),
            first_satisfaction_s: p.first_satisfaction().map(|t| t.as_secs_f64()),
        })
        .collect()
}

/// Deferred observer registration for [`ScenarioSpec`](crate::ScenarioSpec).
///
/// A spec is `Clone` and outlives any single run, so it carries observer
/// *factories* rather than observer instances: each `Scenario::build`
/// instantiates a fresh observer per factory, in registration order.
///
/// # Examples
///
/// Counting delivered messages without touching the scenario internals:
///
/// ```
/// use riot_core::{ObserverSpec, Scenario, ScenarioSpec};
/// use riot_model::MaturityLevel;
/// use riot_sim::{SimDuration, SimEvent, SimEventKind, SimObserver};
/// use std::sync::{Arc, Mutex};
///
/// struct DeliveryCounter(Arc<Mutex<u64>>);
/// impl SimObserver for DeliveryCounter {
///     fn on_event(&mut self, event: &SimEvent) {
///         if matches!(event.kind, SimEventKind::Delivered { .. }) {
///             *self.0.lock().unwrap() += 1;
///         }
///     }
/// }
///
/// let delivered = Arc::new(Mutex::new(0u64));
/// let mut spec = ScenarioSpec::new("observed", MaturityLevel::Ml1, 7);
/// spec.edges = 2;
/// spec.devices_per_edge = 2;
/// spec.duration = SimDuration::from_secs(10);
/// let handle = delivered.clone();
/// spec.observers.register(move || DeliveryCounter(handle.clone()));
/// let result = Scenario::build(spec).run();
/// assert_eq!(*delivered.lock().unwrap(), result.messages_sent - result.messages_dropped);
/// ```
#[derive(Clone, Default)]
pub struct ObserverSpec {
    factories: Vec<Arc<dyn Fn() -> Box<dyn AnyObserver> + Send + Sync>>,
}

impl ObserverSpec {
    /// An empty registration list.
    pub fn new() -> Self {
        ObserverSpec::default()
    }

    /// Registers a factory; every built scenario gets one fresh observer
    /// from it, registered after the built-in ring trace and stream pipeline.
    pub fn register<O, F>(&mut self, factory: F)
    where
        O: SimObserver + Any,
        F: Fn() -> O + Send + Sync + 'static,
    {
        self.factories.push(Arc::new(move || Box::new(factory())));
    }

    /// Number of registered factories.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// `true` when no factory is registered.
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }

    /// Instantiates one observer per factory, in registration order.
    pub(crate) fn instantiate(&self) -> Vec<Box<dyn AnyObserver>> {
        self.factories.iter().map(|f| f()).collect()
    }
}

impl fmt::Debug for ObserverSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObserverSpec")
            .field("factories", &self.factories.len())
            .finish()
    }
}

/// Whether a scenario runs the built-in streaming-telemetry pipeline.
///
/// Off by default: a spec that does not opt in gets no stream observer at
/// all, so existing results artifacts are byte-identical with or without this
/// feature compiled in. On ([`StreamSpec::standard`]), `Scenario::build`
/// registers one [`StreamPipeline`](riot_sim::StreamPipeline) observer
/// holding five operators — three latency probes, the per-jurisdiction flow
/// accountant, the node-liveness mirror — each a passive bus tap in
/// O(window) memory that cannot perturb the run and only *adds* one
/// [`StreamSummary`] row to reported results. The pipeline is one switch,
/// not one per operator: every caller wants all rows or none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamSpec {
    on: bool,
}

impl StreamSpec {
    /// The pipeline off.
    pub fn new() -> Self {
        StreamSpec::default()
    }

    /// The pipeline on.
    pub fn standard() -> Self {
        StreamSpec { on: true }
    }

    /// `true` when the pipeline is off (the default).
    pub fn is_empty(&self) -> bool {
        !self.on
    }
}

/// Moment statistics of one stream, computed online (Welford) in O(1) memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamStats {
    /// Arithmetic mean of all samples.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// Percentiles of one stream from the online quantile sketch.
///
/// Each reported value is within relative *value* error `alpha` of some
/// sample whose rank is exact at bucket granularity (see
/// `riot_sim::QuantileSketch`); `alpha` echoes the sketch's configured bound
/// so consumers need not hard-code it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamQuantiles {
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// Relative value-error bound of the estimates.
    pub alpha: f64,
}

/// Row names of the three latency probes, each the metric key its probe
/// reads: control round trips at the device, then the virtual age of a
/// reading (`now - produced_at`) when the edge and when the cloud accepts it.
pub(crate) const PROBE_ROWS: [&str; 3] = [
    "device.control.latency_ms",
    "edge.ingest.latency_ms",
    "cloud.ingest.latency_ms",
];
/// Row name of the flow accountant: every `Delivered` event counted against
/// the destination node's data-domain jurisdiction.
pub(crate) const FLOWS_ROW: &str = "flows.jurisdiction";
/// Row name of the node-liveness mirror: up/down transitions seen.
pub(crate) const ACTIVITY_ROW: &str = "activity.transitions";

/// End-of-run report of one stream operator: a bounded-memory summary row.
///
/// Unlike the per-sample columns of a [`SampleLog`](crate::SampleLog) (and
/// the `*_series` vectors [`ScenarioResult`](crate::ScenarioResult) copies
/// from it), a summary's size is independent
/// of run length — it is the streaming-telemetry answer to "what did this
/// signal look like" without retaining the signal.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// Stable row name: the probed metric key, `flows.jurisdiction` or
    /// `activity.transitions`.
    pub name: String,
    /// Number of events/samples the stream consumed.
    pub count: u64,
    /// Moment statistics, when the stream carries a numeric signal with at
    /// least one sample.
    pub stats: Option<StreamStats>,
    /// Sketch percentiles, when the stream keeps a quantile sketch with at
    /// least one sample.
    pub quantiles: Option<StreamQuantiles>,
    /// Named sub-counts (e.g. delivered messages per jurisdiction), empty
    /// for purely numeric streams.
    pub flows: Vec<(String, u64)>,
}

impl ToJson for StreamSummary {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name".to_owned(), Json::Str(self.name.clone())),
            ("count".to_owned(), Json::UInt(self.count)),
        ];
        if let Some(s) = &self.stats {
            pairs.push((
                "stats".to_owned(),
                Json::obj(vec![
                    ("mean".to_owned(), Json::Float(s.mean)),
                    ("stddev".to_owned(), Json::Float(s.stddev)),
                    ("min".to_owned(), Json::Float(s.min)),
                    ("max".to_owned(), Json::Float(s.max)),
                ]),
            ));
        }
        if let Some(q) = &self.quantiles {
            pairs.push((
                "quantiles".to_owned(),
                Json::obj(vec![
                    ("p50".to_owned(), Json::Float(q.p50)),
                    ("p95".to_owned(), Json::Float(q.p95)),
                    ("p99".to_owned(), Json::Float(q.p99)),
                    ("alpha".to_owned(), Json::Float(q.alpha)),
                ]),
            ));
        }
        if !self.flows.is_empty() {
            pairs.push((
                "flows".to_owned(),
                Json::obj(
                    self.flows
                        .iter()
                        .map(|(name, n)| (name.clone(), Json::UInt(*n)))
                        .collect(),
                ),
            ));
        }
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_sim::SimEvent;

    struct Nop;
    impl SimObserver for Nop {
        fn on_event(&mut self, _event: &SimEvent) {}
    }

    #[test]
    fn observer_spec_instantiates_per_factory() {
        let mut spec = ObserverSpec::new();
        assert!(spec.is_empty());
        spec.register(|| Nop);
        spec.register(|| Nop);
        assert_eq!(spec.len(), 2);
        assert_eq!(spec.instantiate().len(), 2);
        let cloned = spec.clone();
        assert_eq!(cloned.len(), 2, "clones share the factories");
        assert_eq!(format!("{spec:?}"), "ObserverSpec { factories: 2 }");
    }

    #[test]
    fn outcomes_mirror_bank_state() {
        let mut bank = OnlineMonitor::new(SAT_LABEL);
        bank.watch("safety", "G all").unwrap();
        let outcomes = monitor_outcomes(&bank);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].name, "safety");
        assert_eq!(outcomes[0].formula, "G all");
        assert_eq!(outcomes[0].verdict, Verdict3::Inconclusive);
        assert_eq!(outcomes[0].steps, 0);
        assert!(outcomes[0].holds_at_end, "G vacuous on the empty trace");
        assert!(outcomes[0].first_violation_s.is_none());
        assert!(!outcomes[0].failed());
    }

    #[test]
    fn valuation_atoms_are_all_goal_then_the_requirements() {
        assert_eq!(VALUATION_ATOMS[..2], ["all", "goal"]);
        assert_eq!(VALUATION_ATOMS[2..], crate::REQUIREMENT_NAMES);
        // The bank interns them in that order, so atom i is bit i.
        let bank = valuation_bank();
        assert!(bank.atoms().names().eq(VALUATION_ATOMS));
    }

    #[test]
    fn oracle_predicates_track_verdict_and_residual() {
        let mk = |verdict: Verdict3, holds_at_end: bool| MonitorOutcome {
            name: "p".to_owned(),
            formula: "G all".to_owned(),
            verdict,
            steps: 1,
            holds_at_end,
            first_violation_s: None,
            first_satisfaction_s: None,
        };
        let violated = mk(Verdict3::Violated, false);
        assert!(violated.failed());
        // A pending response obligation: no definite verdict, but the
        // residual does not accept the empty suffix — the oracle view
        // counts it as failed while the verdict stays inconclusive.
        let pending = mk(Verdict3::Inconclusive, false);
        assert!(pending.failed());
        let ok = mk(Verdict3::Satisfied, true);
        assert!(!ok.failed());
    }
}
