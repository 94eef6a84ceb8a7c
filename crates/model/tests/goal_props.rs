//! Property tests of the requirements/goal layer: Kleene logic laws and
//! goal-tree evaluation invariants.
//!
//! Randomized inputs are drawn from the workspace's own seeded [`SimRng`]
//! rather than `proptest`, so every run explores the same cases — test
//! determinism is part of the determinism policy (`DESIGN.md`).

use riot_model::{
    GoalModel, Predicate, Requirement, RequirementId, RequirementKind, RequirementSet, Verdict,
};
use riot_sim::SimRng;
use std::collections::BTreeMap;

const CASES: usize = 500;

fn verdict(rng: &mut SimRng) -> Verdict {
    match rng.range_u64(0, 3) {
        0 => Verdict::Satisfied,
        1 => Verdict::Violated,
        _ => Verdict::Unknown,
    }
}

/// Kleene conjunction/disjunction: commutative, associative, monotone,
/// with correct identities.
#[test]
fn kleene_laws() {
    let mut rng = SimRng::seed_from(0x60A1_0001);
    for _ in 0..CASES {
        let (a, b, c) = (verdict(&mut rng), verdict(&mut rng), verdict(&mut rng));
        assert_eq!(a.and(b), b.and(a));
        assert_eq!(a.or(b), b.or(a));
        assert_eq!(a.and(b).and(c), a.and(b.and(c)));
        assert_eq!(a.or(b).or(c), a.or(b.or(c)));
        assert_eq!(a.and(Verdict::Satisfied), a);
        assert_eq!(a.or(Verdict::Violated), a);
        assert_eq!(a.and(Verdict::Violated), Verdict::Violated);
        assert_eq!(a.or(Verdict::Satisfied), Verdict::Satisfied);
        // De Morgan in three-valued logic, with negation as swap.
        let neg = |v: Verdict| match v {
            Verdict::Satisfied => Verdict::Violated,
            Verdict::Violated => Verdict::Satisfied,
            Verdict::Unknown => Verdict::Unknown,
        };
        assert_eq!(neg(a.and(b)), neg(a).or(neg(b)));
    }
}

/// An AND goal over N leaves is satisfied iff the satisfaction fraction
/// is 1.0; an OR goal is violated iff the fraction is 0.0 (given no
/// unknowns).
#[test]
fn and_or_tree_agrees_with_fraction() {
    let mut rng = SimRng::seed_from(0x60A1_0003);
    for _ in 0..CASES {
        let n = rng.range_u64(1, 10) as usize;
        let values: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 10.0)).collect();
        let mut reqs = RequirementSet::new();
        let mut telemetry: BTreeMap<RequirementId, f64> = BTreeMap::new();
        let mut goals = GoalModel::new();
        let mut leaves = Vec::new();
        for (i, v) in values.iter().enumerate() {
            let id = RequirementId(i as u32);
            reqs.insert(Requirement::new(
                id,
                format!("r{i}"),
                RequirementKind::Custom,
                Predicate::AtMost(5.0),
            ));
            telemetry.insert(id, *v);
            leaves.push(goals.leaf(format!("leaf{i}"), id));
        }
        let and_root = goals.and("all", leaves.clone());
        goals.set_root(and_root);
        let eval = goals.evaluate(&reqs, &telemetry);
        let satisfied = reqs
            .iter()
            .filter(|r| r.evaluate(&telemetry).is_satisfied())
            .count();
        let frac = satisfied as f64 / n as f64;
        assert_eq!(eval.root == Verdict::Satisfied, (frac - 1.0).abs() < 1e-12);
        assert!((eval.leaf_score - frac).abs() < 1e-12);

        let mut goals_or = GoalModel::new();
        let leaves_or: Vec<_> = (0..values.len())
            .map(|i| goals_or.leaf(format!("leaf{i}"), RequirementId(i as u32)))
            .collect();
        let or_root = goals_or.or("any", leaves_or);
        goals_or.set_root(or_root);
        let eval_or = goals_or.evaluate(&reqs, &telemetry);
        assert_eq!(eval_or.root == Verdict::Violated, frac == 0.0);
    }
}

/// Missing metrics never evaluate to Violated — uncertainty is
/// represented, not guessed.
#[test]
fn missing_metrics_are_unknown() {
    let mut rng = SimRng::seed_from(0x60A1_0004);
    for _ in 0..CASES {
        let present = rng.chance(0.5);
        let value = rng.range_f64(0.0, 10.0);
        let req = Requirement::new(
            RequirementId(0),
            "probe",
            RequirementKind::Custom,
            Predicate::AtMost(5.0),
        );
        let mut telemetry: BTreeMap<RequirementId, f64> = BTreeMap::new();
        if present {
            telemetry.insert(req.id, value);
        }
        let verdict = req.evaluate(&telemetry);
        if present {
            assert_ne!(verdict, Verdict::Unknown);
        } else {
            assert_eq!(verdict, Verdict::Unknown);
        }
    }
}
