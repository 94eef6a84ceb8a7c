//! Requirements: the unit of resilience measurement.
//!
//! The framework adopts the paper's working definition — resilience is "the
//! persistence of reliable requirements satisfaction when facing change" —
//! so a requirement must be *measurable at runtime*. A [`Requirement`] is a
//! [`Predicate`] over the value a [`Telemetry`] source reports for it;
//! evaluation yields a three-valued [`Verdict`] (satisfied / violated /
//! unknown), where unknown captures the paper's environment uncertainty:
//! the value may be unobservable during a disruption.

use std::collections::BTreeMap;
use std::fmt;

/// Identifies a requirement within a system model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequirementId(pub u32);

impl fmt::Display for RequirementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// The concern a requirement addresses; the paper's recurring quartet is
/// latency, availability, privacy and timeliness/freshness (§IV, §VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequirementKind {
    /// A bound on reaction or round-trip time.
    Latency,
    /// A floor on the fraction of time a service answers.
    Availability,
    /// No sensitive data outside its scope.
    Privacy,
    /// A bound on data staleness.
    Freshness,
    /// A floor on sensing/actuation coverage.
    Coverage,
    /// Anything else.
    Custom,
}

/// A predicate over one metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// Metric must be `<= bound`.
    AtMost(f64),
    /// Metric must be `>= bound`.
    AtLeast(f64),
    /// Metric must lie in `[lo, hi]`.
    Between(f64, f64),
    /// Metric must be exactly zero (e.g. a violation counter).
    Zero,
}

impl Predicate {
    /// Applies the predicate to a value.
    pub fn holds(&self, value: f64) -> bool {
        match *self {
            Predicate::AtMost(b) => value <= b,
            Predicate::AtLeast(b) => value >= b,
            Predicate::Between(lo, hi) => value >= lo && value <= hi,
            Predicate::Zero => value == 0.0,
        }
    }
}

/// Three-valued requirement outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The predicate held on an observed value.
    Satisfied,
    /// The predicate failed on an observed value.
    Violated,
    /// The metric was not observable.
    Unknown,
}

impl Verdict {
    /// Conjunction over three-valued logic (Kleene): any violation
    /// dominates, otherwise any unknown, otherwise satisfied.
    pub fn and(self, other: Verdict) -> Verdict {
        use Verdict::*;
        match (self, other) {
            (Violated, _) | (_, Violated) => Violated,
            (Unknown, _) | (_, Unknown) => Unknown,
            _ => Satisfied,
        }
    }

    /// Disjunction over three-valued logic.
    pub fn or(self, other: Verdict) -> Verdict {
        use Verdict::*;
        match (self, other) {
            (Satisfied, _) | (_, Satisfied) => Satisfied,
            (Unknown, _) | (_, Unknown) => Unknown,
            _ => Violated,
        }
    }

    /// `true` only for [`Verdict::Satisfied`].
    pub fn is_satisfied(self) -> bool {
        self == Verdict::Satisfied
    }
}

/// A source of runtime measurements: the value each requirement reads.
///
/// The scenario runner implements this over each sample's measurements,
/// one per [`RequirementKind`]; tests can use a plain `BTreeMap` from
/// requirement id to value.
pub trait Telemetry {
    /// The current value `req` reads, or `None` if unobservable.
    fn value(&self, req: &Requirement) -> Option<f64>;
}

impl Telemetry for BTreeMap<RequirementId, f64> {
    fn value(&self, req: &Requirement) -> Option<f64> {
        self.get(&req.id).copied()
    }
}

/// A measurable requirement.
///
/// # Examples
///
/// ```
/// use riot_model::{Predicate, Requirement, RequirementId, RequirementKind, Verdict};
/// use std::collections::BTreeMap;
///
/// let req = Requirement::new(
///     RequirementId(0),
///     "street lights react within 200ms",
///     RequirementKind::Latency,
///     Predicate::AtMost(200.0),
/// );
/// let mut t = BTreeMap::new();
/// t.insert(req.id, 120.0);
/// assert_eq!(req.evaluate(&t), Verdict::Satisfied);
/// t.insert(req.id, 500.0);
/// assert_eq!(req.evaluate(&t), Verdict::Violated);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Requirement {
    /// Identity.
    pub id: RequirementId,
    /// Human-readable statement.
    pub name: String,
    /// Concern category.
    pub kind: RequirementKind,
    /// The predicate over the value [`Telemetry`] reports for this
    /// requirement.
    pub predicate: Predicate,
}

impl Requirement {
    /// Creates a requirement.
    pub fn new(
        id: RequirementId,
        name: impl Into<String>,
        kind: RequirementKind,
        predicate: Predicate,
    ) -> Self {
        Requirement {
            id,
            name: name.into(),
            kind,
            predicate,
        }
    }

    /// Evaluates against a telemetry source.
    pub fn evaluate(&self, telemetry: &impl Telemetry) -> Verdict {
        match telemetry.value(self) {
            Some(v) if self.predicate.holds(v) => Verdict::Satisfied,
            Some(_) => Verdict::Violated,
            None => Verdict::Unknown,
        }
    }
}

/// An ordered collection of requirements.
#[derive(Debug, Clone, Default)]
pub struct RequirementSet {
    reqs: BTreeMap<RequirementId, Requirement>,
}

impl RequirementSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        RequirementSet::default()
    }

    /// Inserts a requirement, replacing any with the same id.
    pub fn insert(&mut self, req: Requirement) {
        self.reqs.insert(req.id, req);
    }

    /// Looks up a requirement.
    pub fn get(&self, id: RequirementId) -> Option<&Requirement> {
        self.reqs.get(&id)
    }

    /// Number of requirements.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Iterates in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Requirement> {
        self.reqs.values()
    }
}

impl FromIterator<Requirement> for RequirementSet {
    fn from_iter<I: IntoIterator<Item = Requirement>>(iter: I) -> Self {
        let mut set = RequirementSet::new();
        for r in iter {
            set.insert(r);
        }
        set
    }
}

impl Extend<Requirement> for RequirementSet {
    fn extend<I: IntoIterator<Item = Requirement>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telemetry(pairs: &[(u32, f64)]) -> BTreeMap<RequirementId, f64> {
        pairs.iter().map(|(k, v)| (RequirementId(*k), *v)).collect()
    }

    #[test]
    fn predicates_hold() {
        assert!(Predicate::AtMost(5.0).holds(5.0));
        assert!(!Predicate::AtMost(5.0).holds(5.1));
        assert!(Predicate::AtLeast(0.9).holds(0.95));
        assert!(Predicate::Between(1.0, 2.0).holds(1.5));
        assert!(!Predicate::Between(1.0, 2.0).holds(2.5));
        assert!(Predicate::Zero.holds(0.0));
        assert!(!Predicate::Zero.holds(0.001));
    }

    #[test]
    fn verdict_kleene_logic() {
        use Verdict::*;
        assert_eq!(Satisfied.and(Satisfied), Satisfied);
        assert_eq!(Satisfied.and(Unknown), Unknown);
        assert_eq!(Unknown.and(Violated), Violated);
        assert_eq!(Violated.or(Satisfied), Satisfied);
        assert_eq!(Violated.or(Unknown), Unknown);
        assert_eq!(Violated.or(Violated), Violated);
        assert!(Satisfied.is_satisfied());
        assert!(!Unknown.is_satisfied());
    }

    #[test]
    fn requirement_evaluation_three_valued() {
        let r = Requirement::new(
            RequirementId(1),
            "fresh data",
            RequirementKind::Freshness,
            Predicate::AtMost(10.0),
        );
        assert_eq!(r.evaluate(&telemetry(&[(1, 3.0)])), Verdict::Satisfied);
        assert_eq!(r.evaluate(&telemetry(&[(1, 30.0)])), Verdict::Violated);
        assert_eq!(r.evaluate(&telemetry(&[(0, 3.0)])), Verdict::Unknown);
        assert_eq!(r.evaluate(&telemetry(&[])), Verdict::Unknown);
    }

    #[test]
    fn set_satisfaction_fraction_counts_unknown_as_unsatisfied() {
        let set: RequirementSet = vec![
            Requirement::new(
                RequirementId(0),
                "a",
                RequirementKind::Latency,
                Predicate::AtMost(1.0),
            ),
            Requirement::new(
                RequirementId(1),
                "b",
                RequirementKind::Availability,
                Predicate::AtLeast(0.9),
            ),
            Requirement::new(
                RequirementId(2),
                "c",
                RequirementKind::Privacy,
                Predicate::Zero,
            ),
        ]
        .into_iter()
        .collect();
        let t = telemetry(&[(0, 0.5), (1, 0.5)]);
        // req0 satisfied, req1 violated, req2 unknown.
        let verdicts: Vec<Verdict> = set.iter().map(|r| r.evaluate(&t)).collect();
        assert_eq!(
            verdicts,
            [Verdict::Satisfied, Verdict::Violated, Verdict::Unknown]
        );
        let satisfied = verdicts.iter().filter(|v| v.is_satisfied()).count();
        assert_eq!(satisfied, 1, "unknown is not satisfied");
    }

    #[test]
    fn empty_set_is_vacuously_satisfied() {
        let set = RequirementSet::new();
        assert!(set.is_empty());
        let t = telemetry(&[]);
        assert!(set.iter().all(|r| r.evaluate(&t).is_satisfied()));
    }

    #[test]
    fn insert_replaces_same_id() {
        let mut set = RequirementSet::new();
        set.insert(Requirement::new(
            RequirementId(0),
            "v1",
            RequirementKind::Custom,
            Predicate::Zero,
        ));
        set.insert(Requirement::new(
            RequirementId(0),
            "v2",
            RequirementKind::Custom,
            Predicate::Zero,
        ));
        assert_eq!(set.len(), 1);
        assert_eq!(set.get(RequirementId(0)).unwrap().name, "v2");
    }
}
