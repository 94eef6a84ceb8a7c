//! Online runtime verification on the simulation observability bus.
//!
//! An [`OnlineMonitor`] is a [`SimObserver`] that advances LTL [`Monitor`]s
//! *while the run executes* instead of replaying a recorded time series
//! afterwards. Memory is O(formula) per property — the distinct residuals
//! met, a capped few (see [`Monitor`]) — independent of run length, and a
//! violation is timestamped the instant the verdict becomes definite, which
//! is exactly the detection signal a MAPE-K loop needs (the paper's pillar
//! VII cannot wait for the run to end).
//!
//! ## Valuation wire format
//!
//! Scenario drivers publish requirement-satisfaction states as annotation
//! events (`SimEventKind::Note`). A note addressed to a monitor with label
//! `sat` looks like:
//!
//! ```text
//! sat all=1 goal=0 coverage=1 latency=0
//! ```
//!
//! i.e. the label, then space-separated `name=0|1` pairs. Each matching note
//! becomes one trace state: atoms named in watched formulas are set from the
//! pairs (absent pairs default to false), and every watched monitor takes one
//! step. Notes with a different label, and all non-note events, are ignored,
//! so several monitors with distinct labels can share one bus.
//!
//! Determinism: the observer only reads events and mutates its own state, so
//! registering it cannot perturb the run (see `riot_sim::observer`).

use crate::ltl::Ltl;
use crate::monitor::{Monitor, Verdict3};
use crate::parse::{parse_ltl, ParseError};
use crate::prop::{Atoms, Valuation};
use riot_sim::{EventMask, SimEvent, SimEventKind, SimObserver, SimTime};

/// One property watched by an [`OnlineMonitor`].
#[derive(Debug, Clone)]
pub struct OnlineProperty {
    name: String,
    source: String,
    monitor: Monitor,
    first_violation: Option<SimTime>,
    first_satisfaction: Option<SimTime>,
}

impl OnlineProperty {
    /// The property's name (chosen at [`OnlineMonitor::watch`] time).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The formula source text as passed to [`OnlineMonitor::watch`].
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The underlying progression monitor.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The current three-valued verdict.
    pub fn verdict(&self) -> Verdict3 {
        self.monitor.verdict()
    }

    /// Virtual time at which the verdict first became [`Verdict3::Violated`],
    /// if it ever did — the online detection timestamp.
    pub fn first_violation(&self) -> Option<SimTime> {
        self.first_violation
    }

    /// Virtual time at which the verdict first became
    /// [`Verdict3::Satisfied`], if it ever did.
    pub fn first_satisfaction(&self) -> Option<SimTime> {
        self.first_satisfaction
    }

    /// Resolves the property at end of run: a definite verdict stands, an
    /// inconclusive residual is evaluated on the empty suffix (see
    /// [`Monitor::finish`]).
    pub fn finish(&self) -> bool {
        self.monitor.finish()
    }
}

/// A streaming LTL monitor bank riding the observability bus.
///
/// # Examples
///
/// Feeding valuations directly (as the scenario driver's notes would):
///
/// ```
/// use riot_formal::{OnlineMonitor, Verdict3};
/// use riot_sim::{ProcessId, SimEvent, SimEventKind, SimObserver, SimTime};
///
/// let mut om = OnlineMonitor::new("sat");
/// om.watch("always-ok", "G ok").unwrap();
///
/// let note = |t: u64, text: &str| SimEvent {
///     at: SimTime::from_secs(t),
///     kind: SimEventKind::Note { id: ProcessId(usize::MAX), text: text.to_owned() },
///     detail: String::new(),
/// };
/// om.on_event(&note(1, "sat ok=1"));
/// assert_eq!(om.properties()[0].verdict(), Verdict3::Inconclusive);
/// om.on_event(&note(2, "sat ok=0"));
/// assert_eq!(om.properties()[0].verdict(), Verdict3::Violated);
/// assert_eq!(om.properties()[0].first_violation(), Some(SimTime::from_secs(2)));
/// ```
#[derive(Debug, Clone)]
pub struct OnlineMonitor {
    label: String,
    atoms: Atoms,
    props: Vec<OnlineProperty>,
    samples: usize,
}

impl OnlineMonitor {
    /// Creates a monitor bank listening for notes prefixed with `label`.
    pub fn new(label: impl Into<String>) -> Self {
        OnlineMonitor {
            label: label.into(),
            atoms: Atoms::new(),
            props: Vec::new(),
            samples: 0,
        }
    }

    /// Parses `formula` and watches it under `name`. Atom names in the
    /// formula are matched against the `name=0|1` pairs of incoming notes.
    pub fn watch(&mut self, name: impl Into<String>, formula: &str) -> Result<(), ParseError> {
        let phi = parse_ltl(formula, &mut self.atoms)?;
        self.props.push(OnlineProperty {
            name: name.into(),
            source: formula.to_owned(),
            monitor: Monitor::new(phi),
            first_violation: None,
            first_satisfaction: None,
        });
        Ok(())
    }

    /// Watches an already-built formula under `name`. The formula must have
    /// been built against [`OnlineMonitor::atoms_mut`] of *this* bank.
    pub fn watch_ltl(&mut self, name: impl Into<String>, phi: Ltl) {
        let source = phi.render(&self.atoms);
        self.props.push(OnlineProperty {
            name: name.into(),
            source,
            monitor: Monitor::new(phi),
            first_violation: None,
            first_satisfaction: None,
        });
    }

    /// The note label this bank listens for.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The atom vocabulary accumulated from watched formulas.
    pub fn atoms(&self) -> &Atoms {
        &self.atoms
    }

    /// Mutable vocabulary access, for building formulas with [`Ltl`]
    /// combinators instead of the parser.
    pub fn atoms_mut(&mut self) -> &mut Atoms {
        &mut self.atoms
    }

    /// Watched properties, in [`OnlineMonitor::watch`] order.
    pub fn properties(&self) -> &[OnlineProperty] {
        &self.props
    }

    /// Looks up a watched property by name.
    pub fn property(&self, name: &str) -> Option<&OnlineProperty> {
        self.props.iter().find(|p| p.name == name)
    }

    /// Number of trace states consumed (matching notes seen).
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// `true` if any watched property is currently [`Verdict3::Violated`] —
    /// the cheap poll a MAPE-K planner would issue between events.
    pub fn any_violated(&self) -> bool {
        self.props.iter().any(|p| p.verdict() == Verdict3::Violated)
    }

    /// Feeds one trace state directly, bypassing note parsing. Used by the
    /// note path, by tests, and by post-hoc replays that want byte-identical
    /// progression semantics.
    pub fn step_valuation(&mut self, at: SimTime, state: Valuation) {
        self.samples += 1;
        for prop in &mut self.props {
            match prop.monitor.step(state) {
                Verdict3::Violated => prop.first_violation.get_or_insert(at),
                Verdict3::Satisfied => prop.first_satisfaction.get_or_insert(at),
                Verdict3::Inconclusive => continue,
            };
        }
    }

    /// Parses a note body (`name=0|1` pairs, label already stripped) into a
    /// valuation over this bank's atoms. Unknown names are ignored; absent
    /// atoms are false.
    fn parse_valuation(&self, body: &str) -> Valuation {
        let mut val = Valuation::EMPTY;
        for token in body.split_whitespace() {
            let Some((key, raw)) = token.split_once('=') else {
                continue;
            };
            if let Some(atom) = self.atoms.lookup(key) {
                val.set(atom, raw == "1" || raw == "true");
            }
        }
        val
    }
}

impl SimObserver for OnlineMonitor {
    fn on_event(&mut self, event: &SimEvent) {
        let SimEventKind::Note { ref text, .. } = event.kind else {
            return;
        };
        let Some(rest) = text.strip_prefix(self.label.as_str()) else {
            return;
        };
        // The label must be a whole word: "sat" must not match "saturated".
        let body = match rest.strip_prefix(' ') {
            Some(body) => body,
            None if rest.is_empty() => rest,
            None => return,
        };
        let val = self.parse_valuation(body);
        self.step_valuation(event.at, val);
    }

    /// Valuation notes are all the bank reads.
    fn interest(&self) -> EventMask {
        EventMask::NOTE
    }

    fn name(&self) -> &str {
        "online-monitor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_sim::ProcessId;

    fn note(t: u64, text: &str) -> SimEvent {
        SimEvent {
            at: SimTime::from_secs(t),
            kind: SimEventKind::Note {
                id: ProcessId(usize::MAX),
                text: text.to_owned(),
            },
            detail: String::new(),
        }
    }

    #[test]
    fn ignores_foreign_labels_and_non_notes() {
        let mut om = OnlineMonitor::new("sat");
        om.watch("safety", "G p").unwrap();
        om.on_event(&note(1, "other p=0"));
        om.on_event(&note(1, "saturated p=0"));
        om.on_event(&SimEvent {
            at: SimTime::from_secs(1),
            kind: SimEventKind::ProcessDown { id: ProcessId(0) },
            detail: String::new(),
        });
        assert_eq!(om.samples(), 0);
        assert_eq!(om.properties()[0].verdict(), Verdict3::Inconclusive);
    }

    #[test]
    fn absent_atoms_default_to_false() {
        let mut om = OnlineMonitor::new("sat");
        om.watch("liveness", "F p").unwrap();
        om.on_event(&note(1, "sat q=1"));
        assert_eq!(om.samples(), 1);
        assert_eq!(om.properties()[0].verdict(), Verdict3::Inconclusive);
        om.on_event(&note(2, "sat p=1"));
        assert_eq!(om.properties()[0].verdict(), Verdict3::Satisfied);
        assert_eq!(
            om.properties()[0].first_satisfaction(),
            Some(SimTime::from_secs(2))
        );
    }

    #[test]
    fn detection_timestamp_is_the_violating_state() {
        let mut om = OnlineMonitor::new("sat");
        om.watch("safety", "G healthy").unwrap();
        om.on_event(&note(1, "sat healthy=1"));
        om.on_event(&note(2, "sat healthy=1"));
        om.on_event(&note(3, "sat healthy=0"));
        om.on_event(&note(4, "sat healthy=1"));
        let p = &om.properties()[0];
        assert_eq!(p.verdict(), Verdict3::Violated);
        assert_eq!(p.first_violation(), Some(SimTime::from_secs(3)));
        assert!(om.any_violated());
        assert!(!p.finish());
    }

    #[test]
    fn online_equals_post_hoc_replay() {
        // The refactor's correctness oracle in miniature: the same series
        // fed as notes and as a post-hoc Monitor replay must agree.
        let series = [true, true, false, false, true, false, true];

        let mut om = OnlineMonitor::new("sat");
        om.watch("recovers", "G (!all -> F all)").unwrap();
        for (i, up) in series.iter().enumerate() {
            om.on_event(&note(i as u64 + 1, &format!("sat all={}", u8::from(*up))));
        }

        let mut atoms = Atoms::new();
        let phi = parse_ltl("G (!all -> F all)", &mut atoms).unwrap();
        let all = atoms.lookup("all").unwrap();
        let mut replay = Monitor::new(phi);
        for up in series {
            let mut v = Valuation::EMPTY;
            v.set(all, up);
            replay.step(v);
        }

        let online = &om.properties()[0];
        assert_eq!(online.verdict(), replay.verdict());
        assert_eq!(online.monitor().steps(), replay.steps());
        assert_eq!(online.finish(), replay.finish());
    }

    #[test]
    fn zero_samples_resolves_like_the_empty_trace() {
        let mut om = OnlineMonitor::new("sat");
        om.watch("safety", "G p").unwrap();
        om.watch("liveness", "F p").unwrap();
        assert_eq!(om.samples(), 0);
        assert!(
            om.property("safety").unwrap().finish(),
            "G vacuous on empty"
        );
        assert!(
            !om.property("liveness").unwrap().finish(),
            "F fails on empty"
        );
    }

    #[test]
    fn watch_ltl_uses_the_shared_vocabulary() {
        let mut om = OnlineMonitor::new("sat");
        let p = om.atoms_mut().intern("p");
        om.watch_ltl("direct", Ltl::atom(p).globally());
        om.on_event(&note(1, "sat p=0"));
        assert_eq!(om.properties()[0].verdict(), Verdict3::Violated);
        assert_eq!(om.properties()[0].source(), "G p");
    }

    #[test]
    fn parse_error_is_surfaced() {
        let mut om = OnlineMonitor::new("sat");
        assert!(om.watch("bad", "G (p ->").is_err());
        assert!(om.properties().is_empty());
    }

    #[test]
    fn interest_follows_what_is_bound() {
        let mut om = OnlineMonitor::new("sat");
        assert_eq!(om.interest(), EventMask::NOTE, "nothing watched");
        om.watch("fast", "G fast").unwrap();
        assert_eq!(om.interest(), EventMask::NOTE, "one property watched");
    }
}
