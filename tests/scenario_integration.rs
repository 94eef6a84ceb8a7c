//! Cross-crate integration: every maturity level builds, runs and reports
//! sane numbers end-to-end (sim + net + model + coord + data + adapt glued
//! by core).

use riot_core::{Scenario, ScenarioSpec, REQUIREMENT_NAMES};
use riot_model::MaturityLevel;
use riot_sim::SimDuration;

fn quick_spec(level: MaturityLevel, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(format!("it/{level}"), level, seed);
    spec.edges = 3;
    spec.devices_per_edge = 4;
    spec.duration = SimDuration::from_secs(40);
    spec.warmup = SimDuration::from_secs(10);
    spec
}

#[test]
fn every_level_runs_and_reports() {
    for level in MaturityLevel::ALL {
        let result = Scenario::build(quick_spec(level, 1)).run();
        assert_eq!(result.level, level);
        assert_eq!(result.devices, 12);
        assert_eq!(result.edges, 3);
        assert!((result.duration_s - 40.0).abs() < 1e-9);
        // Every standard requirement is reported with values in [0, 1].
        for name in REQUIREMENT_NAMES {
            let o = result
                .report
                .requirements
                .get(name)
                .unwrap_or_else(|| panic!("{level}: missing requirement {name}"));
            assert!(
                (0.0..=1.0).contains(&o.baseline),
                "{level}/{name} baseline {}",
                o.baseline
            );
            assert!(
                (0.0..=1.0).contains(&o.resilience),
                "{level}/{name} resilience {}",
                o.resilience
            );
        }
        assert!((0.0..=1.0).contains(&result.report.mean_satisfaction));
        // The satisfaction series covers the run at the sampling period.
        assert_eq!(result.sat_all_series.len(), 40);
        assert_eq!(result.satfrac_series.len(), 40);
    }
}

#[test]
fn traffic_profile_matches_architecture() {
    let ml1 = Scenario::build(quick_spec(MaturityLevel::Ml1, 2)).run();
    let ml2 = Scenario::build(quick_spec(MaturityLevel::Ml2, 2)).run();
    let ml4 = Scenario::build(quick_spec(MaturityLevel::Ml4, 2)).run();
    assert_eq!(ml1.messages_sent, 0, "ML1 silos do not communicate");
    assert!(
        ml2.messages_sent > 500,
        "ML2 pushes everything to the cloud"
    );
    assert!(
        ml4.messages_sent > ml2.messages_sent / 2,
        "ML4 runs coordination + replication traffic"
    );
    assert!(ml4.events_processed > ml4.messages_sent, "timers exist too");
}

#[test]
fn calm_runs_have_no_failovers_or_restarts() {
    for level in MaturityLevel::ALL {
        let result = Scenario::build(quick_spec(level, 3)).run();
        assert_eq!(
            result.restarts, 0,
            "{level}: nothing failed, nothing to restart"
        );
        // Loss-induced failovers are possible but must be rare and benign.
        assert!(
            result.failovers <= 2,
            "{level}: {} failovers in a calm run",
            result.failovers
        );
    }
}

#[test]
fn telemetry_means_are_published() {
    let result = Scenario::build(quick_spec(MaturityLevel::Ml4, 4)).run();
    let coverage = result
        .telemetry_means
        .get("coverage")
        .copied()
        .expect("coverage telemetry");
    assert!(coverage > 0.9, "calm ML4 coverage near 1.0: {coverage}");
    let staleness = result
        .telemetry_means
        .get("freshness_s")
        .copied()
        .expect("freshness telemetry");
    assert!(staleness < 5.0, "edge-mesh staleness small: {staleness}");
}

#[test]
fn devices_and_layout_agree() {
    let spec = quick_spec(MaturityLevel::Ml3, 5);
    let scenario = Scenario::build(spec.clone());
    assert_eq!(scenario.devices().len(), spec.device_count());
    for (i, info) in scenario.devices().enumerate() {
        let e = i / spec.devices_per_edge;
        let d = i % spec.devices_per_edge;
        assert_eq!(info.id, spec.device_id(e, d));
        assert_eq!(info.edge_index, e);
        assert_eq!(
            info.key.index(),
            i,
            "device keys are minted in device order"
        );
    }
    assert_eq!(scenario.keys().len(), spec.device_count());
}
