//! Goal models: AND/OR decomposition of design goals into measurable
//! requirements.
//!
//! §IV-B of the paper calls for "requirements methods (e.g. goal modeling
//! and validation)" applied to IoT. A [`GoalModel`] is an arena-allocated
//! AND/OR tree whose leaves reference [`Requirement`]s
//! (`riot_model::Requirement`); evaluation propagates three-valued verdicts
//! up the tree and also produces a quantitative satisfaction score, the
//! fraction of leaf requirements satisfied.

use crate::requirement::{RequirementId, RequirementSet, Telemetry, Verdict};
use std::fmt;

/// Identifies a node within one [`GoalModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GoalId(pub u32);

impl fmt::Display for GoalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "goal{}", self.0)
    }
}

/// A node's decomposition operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoalOp {
    /// All children must hold.
    And(Vec<GoalId>),
    /// At least one child must hold.
    Or(Vec<GoalId>),
    /// A leaf: delegated to a requirement.
    Leaf(RequirementId),
}

/// One node of the goal tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoalNode {
    /// Human-readable goal statement.
    pub name: String,
    /// Decomposition.
    pub op: GoalOp,
}

/// The result of evaluating a goal model.
#[derive(Debug, Clone, PartialEq)]
pub struct GoalEvaluation {
    /// Verdict of the root goal.
    pub root: Verdict,
    /// Verdict per node, indexed by `GoalId`.
    pub verdicts: Vec<Verdict>,
    /// Fraction of leaf requirements satisfied, in `[0, 1]`.
    pub leaf_score: f64,
}

/// An AND/OR goal tree over requirements.
///
/// # Examples
///
/// ```
/// use riot_model::{
///     GoalModel, Predicate, Requirement, RequirementId, RequirementKind, RequirementSet, Verdict,
/// };
/// use std::collections::BTreeMap;
///
/// let mut reqs = RequirementSet::new();
/// reqs.insert(Requirement::new(
///     RequirementId(0), "low latency", RequirementKind::Latency, Predicate::AtMost(100.0),
/// ));
/// reqs.insert(Requirement::new(
///     RequirementId(1), "available", RequirementKind::Availability, Predicate::AtLeast(0.9),
/// ));
///
/// let mut goals = GoalModel::new();
/// let lat = goals.leaf("react fast", RequirementId(0));
/// let avail = goals.leaf("stay up", RequirementId(1));
/// let root = goals.and("dependable service", vec![lat, avail]);
/// goals.set_root(root);
///
/// let mut t = BTreeMap::new();
/// t.insert(RequirementId(0), 50.0);
/// t.insert(RequirementId(1), 0.99);
/// let eval = goals.evaluate(&reqs, &t);
/// assert_eq!(eval.root, Verdict::Satisfied);
/// assert_eq!(eval.leaf_score, 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GoalModel {
    nodes: Vec<GoalNode>,
    root: Option<GoalId>,
}

impl GoalModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        GoalModel::default()
    }

    /// Adds a leaf goal referencing a requirement; returns its id.
    pub fn leaf(&mut self, name: impl Into<String>, req: RequirementId) -> GoalId {
        self.push(GoalNode {
            name: name.into(),
            op: GoalOp::Leaf(req),
        })
    }

    /// Adds an AND goal over children; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty or references an unknown node.
    pub fn and(&mut self, name: impl Into<String>, children: Vec<GoalId>) -> GoalId {
        self.validate_children(&children);
        self.push(GoalNode {
            name: name.into(),
            op: GoalOp::And(children),
        })
    }

    /// Adds an OR goal over children; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty or references an unknown node.
    pub fn or(&mut self, name: impl Into<String>, children: Vec<GoalId>) -> GoalId {
        self.validate_children(&children);
        self.push(GoalNode {
            name: name.into(),
            op: GoalOp::Or(children),
        })
    }

    fn validate_children(&self, children: &[GoalId]) {
        assert!(!children.is_empty(), "a composite goal needs children");
        for c in children {
            assert!(
                (c.0 as usize) < self.nodes.len(),
                "child {c} added after its parent — build bottom-up"
            );
        }
    }

    fn push(&mut self, node: GoalNode) -> GoalId {
        let id = GoalId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Declares the root goal.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn set_root(&mut self, id: GoalId) {
        assert!((id.0 as usize) < self.nodes.len(), "unknown goal {id}");
        self.root = Some(id);
    }

    /// Borrows a node.
    pub fn node(&self, id: GoalId) -> Option<&GoalNode> {
        self.nodes.get(id.0 as usize)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the model has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Evaluates the tree bottom-up. Leaves referencing requirements missing
    /// from `reqs` evaluate to [`Verdict::Unknown`]. An empty or rootless
    /// model evaluates to a vacuous satisfied root with score 1.0.
    pub fn evaluate(&self, reqs: &RequirementSet, telemetry: &impl Telemetry) -> GoalEvaluation {
        // riot-lint: allow(A1, reason = "one verdict buffer per sample tick, bounded by the goal-tree size; never per event")
        let mut verdicts = vec![Verdict::Unknown; self.nodes.len()];
        let mut sat_leaves = 0usize;
        let mut total_leaves = 0usize;
        // Children always precede parents (enforced at construction), so one
        // forward pass suffices.
        for (i, node) in self.nodes.iter().enumerate() {
            // riot-lint: allow(P1, reason = "verdicts is sized to nodes.len(); i enumerates nodes")
            verdicts[i] = match &node.op {
                GoalOp::Leaf(rid) => {
                    total_leaves += 1;
                    let v = reqs
                        .get(*rid)
                        .map(|r| r.evaluate(telemetry))
                        .unwrap_or(Verdict::Unknown);
                    if v.is_satisfied() {
                        sat_leaves += 1;
                    }
                    v
                }
                GoalOp::And(children) => children
                    .iter()
                    // riot-lint: allow(P1, reason = "children precede parents, enforced at construction")
                    .map(|c| verdicts[c.0 as usize])
                    .fold(Verdict::Satisfied, Verdict::and),
                GoalOp::Or(children) => children
                    .iter()
                    // riot-lint: allow(P1, reason = "children precede parents, enforced at construction")
                    .map(|c| verdicts[c.0 as usize])
                    .fold(Verdict::Violated, Verdict::or),
            };
        }
        let root = self
            .root
            // riot-lint: allow(P1, reason = "the root id is validated against nodes at construction")
            .map(|r| verdicts[r.0 as usize])
            .unwrap_or(Verdict::Satisfied);
        let leaf_score = if total_leaves == 0 {
            1.0
        } else {
            sat_leaves as f64 / total_leaves as f64
        };
        GoalEvaluation {
            root,
            verdicts,
            leaf_score,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirement::{Predicate, Requirement, RequirementKind};
    use std::collections::BTreeMap;

    fn reqs() -> RequirementSet {
        vec![
            Requirement::new(
                RequirementId(0),
                "lat",
                RequirementKind::Latency,
                Predicate::AtMost(100.0),
            ),
            Requirement::new(
                RequirementId(1),
                "avail",
                RequirementKind::Availability,
                Predicate::AtLeast(0.9),
            ),
            Requirement::new(
                RequirementId(2),
                "priv",
                RequirementKind::Privacy,
                Predicate::Zero,
            ),
        ]
        .into_iter()
        .collect()
    }

    /// Values of the three requirements of [`reqs`]: latency, availability
    /// and privacy leaks.
    fn telemetry(pairs: &[(u32, f64)]) -> BTreeMap<RequirementId, f64> {
        pairs.iter().map(|(k, v)| (RequirementId(*k), *v)).collect()
    }

    #[test]
    fn and_or_tree_evaluation() {
        let r = reqs();
        let mut g = GoalModel::new();
        let lat = g.leaf("lat", RequirementId(0));
        let avail = g.leaf("avail", RequirementId(1));
        let privacy = g.leaf("priv", RequirementId(2));
        // (lat OR avail) AND priv
        let either = g.or("responsive or available", vec![lat, avail]);
        let root = g.and("root", vec![either, privacy]);
        g.set_root(root);

        // lat violated, avail satisfied, priv satisfied → root satisfied.
        let t = telemetry(&[(0, 500.0), (1, 0.95), (2, 0.0)]);
        let e = g.evaluate(&r, &t);
        assert_eq!(e.root, Verdict::Satisfied);
        assert!((e.leaf_score - 2.0 / 3.0).abs() < 1e-12);

        // privacy violated → root violated despite OR satisfied.
        let t = telemetry(&[(0, 50.0), (1, 0.95), (2, 2.0)]);
        assert_eq!(g.evaluate(&r, &t).root, Verdict::Violated);
    }

    #[test]
    fn unknown_propagates_kleene() {
        let r = reqs();
        let mut g = GoalModel::new();
        let lat = g.leaf("lat", RequirementId(0));
        let avail = g.leaf("avail", RequirementId(1));
        let root = g.and("root", vec![lat, avail]);
        g.set_root(root);
        // avail unobservable, lat satisfied → unknown root.
        let t = telemetry(&[(0, 10.0)]);
        assert_eq!(g.evaluate(&r, &t).root, Verdict::Unknown);
        // avail unobservable but lat violated → violated root (Kleene AND).
        let t = telemetry(&[(0, 1000.0)]);
        assert_eq!(g.evaluate(&r, &t).root, Verdict::Violated);
    }

    #[test]
    fn missing_requirement_is_unknown() {
        let r = RequirementSet::new();
        let mut g = GoalModel::new();
        let leaf = g.leaf("dangling", RequirementId(77));
        g.set_root(leaf);
        assert_eq!(g.evaluate(&r, &telemetry(&[])).root, Verdict::Unknown);
    }

    #[test]
    fn rootless_model_is_vacuous() {
        let g = GoalModel::new();
        let e = g.evaluate(&RequirementSet::new(), &telemetry(&[]));
        assert_eq!(e.root, Verdict::Satisfied);
        assert_eq!(e.leaf_score, 1.0);
        assert!(g.is_empty());
    }

    #[test]
    fn nodes_are_indexed_in_build_order() {
        let mut g = GoalModel::new();
        let a = g.leaf("a", RequirementId(5));
        let b = g.leaf("b", RequirementId(3));
        let _root = g.and("r", vec![a, b]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.node(a).unwrap().name, "a");
        assert_eq!(g.node(b).unwrap().op, GoalOp::Leaf(RequirementId(3)));
    }

    #[test]
    #[should_panic(expected = "needs children")]
    fn empty_and_panics() {
        let mut g = GoalModel::new();
        let _ = g.and("empty", vec![]);
    }

    #[test]
    #[should_panic(expected = "build bottom-up")]
    fn forward_reference_panics() {
        let mut g = GoalModel::new();
        let _ = g.and("bad", vec![GoalId(10)]);
    }

    #[test]
    #[should_panic(expected = "unknown goal")]
    fn bad_root_panics() {
        let mut g = GoalModel::new();
        g.set_root(GoalId(0));
    }
}
