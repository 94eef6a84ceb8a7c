//! Online runtime verification: LTL monitors stepped while the run executes.
//!
//! An [`OnlineMonitor`] is a bank of LTL [`Monitor`]s over one shared atom
//! vocabulary, advanced one trace state at a time by whoever owns it
//! ([`OnlineMonitor::step_valuation`]) instead of replaying a recorded time
//! series afterwards. Memory is O(formula) per property — the distinct
//! residuals met, a capped few (see [`Monitor`]) — independent of run
//! length, and a violation is timestamped the instant the verdict becomes
//! definite, which is exactly the detection signal a MAPE-K loop needs (the
//! paper's pillar VII cannot wait for the run to end).
//!
//! A state is a [`Valuation`] over [`OnlineMonitor::atoms`]: the owner
//! interns the atoms it can value before it watches a formula, so bit *i* of
//! a state is the *i*-th atom interned and a formula naming anything else
//! is detectable (the vocabulary grew). `riot_core::Scenario` owns one bank
//! and steps it once per requirement sample; an atom never set reads false.

use crate::monitor::{Monitor, Verdict3};
use crate::parse::{parse_ltl, ParseError};
use crate::prop::{Atoms, Valuation};
use riot_sim::SimTime;

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

/// A streaming LTL monitor bank.
///
/// # Examples
///
/// Feeding valuations directly, as a scenario's sample tick does:
///
/// ```
/// use riot_formal::{OnlineMonitor, Valuation, Verdict3};
/// use riot_sim::SimTime;
///
/// let mut om = OnlineMonitor::new("sat");
/// let ok = om.atoms_mut().intern("ok");
/// om.watch("always-ok", "G ok").unwrap();
///
/// om.step_valuation(SimTime::from_secs(1), Valuation::EMPTY.with(ok));
/// assert_eq!(om.properties()[0].verdict(), Verdict3::Inconclusive);
/// om.step_valuation(SimTime::from_secs(2), Valuation::EMPTY);
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
    /// Creates an empty monitor bank. `label` is the bank's display name
    /// ([`OnlineMonitor::label`]) and nothing else: no input is matched
    /// against it.
    pub fn new(label: impl Into<String>) -> Self {
        OnlineMonitor {
            label: label.into(),
            atoms: Atoms::new(),
            props: Vec::new(),
            samples: 0,
        }
    }

    /// Parses `formula` against the bank's vocabulary and watches it under
    /// `name`. An atom the vocabulary lacks is interned behind the ones
    /// already there.
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

    /// The bank's display name, as given to [`OnlineMonitor::new`].
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The atom vocabulary accumulated from watched formulas.
    pub fn atoms(&self) -> &Atoms {
        &self.atoms
    }

    /// Mutable vocabulary access, for interning the atoms a caller can
    /// value before it watches a formula.
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

    /// Number of trace states consumed.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Feeds one trace state, observed at virtual time `at`: every watched
    /// monitor takes one step, and a verdict that becomes definite is
    /// timestamped `at`.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps `om` at second `t` with exactly the named atoms true.
    fn step(om: &mut OnlineMonitor, t: u64, holds: &[&str]) {
        let state = Valuation::from_atoms(
            holds
                .iter()
                .map(|name| om.atoms().lookup(name).expect("atom is in the vocabulary")),
        );
        om.step_valuation(SimTime::from_secs(t), state);
    }

    #[test]
    fn absent_atoms_default_to_false() {
        let mut om = OnlineMonitor::new("sat");
        om.atoms_mut().intern("q");
        om.watch("liveness", "F p").unwrap();
        step(&mut om, 1, &["q"]);
        assert_eq!(om.samples(), 1);
        assert_eq!(om.properties()[0].verdict(), Verdict3::Inconclusive);
        step(&mut om, 2, &["p"]);
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
        step(&mut om, 1, &["healthy"]);
        step(&mut om, 2, &["healthy"]);
        step(&mut om, 3, &[]);
        step(&mut om, 4, &["healthy"]);
        let p = &om.properties()[0];
        assert_eq!(p.verdict(), Verdict3::Violated);
        assert_eq!(p.first_violation(), Some(SimTime::from_secs(3)));
        assert!(!p.finish());
    }

    #[test]
    fn online_equals_post_hoc_replay() {
        // The bank's correctness oracle in miniature: the same series
        // stepped through the bank and through a lone Monitor must agree.
        let series = [true, true, false, false, true, false, true];

        let mut om = OnlineMonitor::new("sat");
        om.watch("recovers", "G (!all -> F all)").unwrap();
        for (i, up) in series.iter().enumerate() {
            step(&mut om, i as u64 + 1, if *up { &["all"] } else { &[] });
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
        om.watch("direct", "G p").unwrap();
        assert_eq!(om.atoms().lookup("p"), Some(p), "no second atom");
        step(&mut om, 1, &[]);
        assert_eq!(om.properties()[0].verdict(), Verdict3::Violated);
        assert_eq!(om.properties()[0].source(), "G p");
    }

    #[test]
    fn parse_error_is_surfaced() {
        let mut om = OnlineMonitor::new("sat");
        assert!(om.watch("bad", "G (p ->").is_err());
        assert!(om.properties().is_empty());
    }
}
