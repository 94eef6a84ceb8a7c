//! Data governance end-to-end (§VI / Figure 4): flows between domains are
//! policed at egress and ingress, and domain transfers trigger purges.

use riot_core::{standard_domains, Scenario, ScenarioSpec};
use riot_data::{DataMeta, KeySpace, PolicyAction, PolicyEngine, ReplicatedStore, Sensitivity};
use riot_model::{Disruption, DisruptionSchedule, DomainId, MaturityLevel};
use riot_sim::{SimDuration, SimTime};

fn privacy_spec(level: MaturityLevel) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(format!("gov/{level}"), level, 31337);
    spec.edges = 3;
    spec.devices_per_edge = 6;
    spec.duration = SimDuration::from_secs(60);
    spec.warmup = SimDuration::from_secs(15);
    spec.personal_every = 2;
    spec.vendor_edge = true;
    spec
}

#[test]
fn ungoverned_levels_leak_governed_level_does_not() {
    let ml2 = Scenario::build(privacy_spec(MaturityLevel::Ml2)).run();
    let ml3 = Scenario::build(privacy_spec(MaturityLevel::Ml3)).run();
    let ml4 = Scenario::build(privacy_spec(MaturityLevel::Ml4)).run();
    assert!(
        ml2.report.requirements["privacy"].resilience < 0.2,
        "ML2 cloud brokering leaks: {}",
        ml2.report.requirements["privacy"].resilience
    );
    assert!(
        ml3.report.requirements["privacy"].resilience < 0.2,
        "ML3 vendor-edge ingestion leaks"
    );
    assert!(
        (ml4.report.requirements["privacy"].resilience - 1.0).abs() < f64::EPSILON,
        "ML4 governance holds"
    );
    // Governance does not tax the operational data plane.
    assert!(ml4.report.requirements["freshness"].resilience > 0.95);
    assert!(ml4.report.requirements["availability"].resilience > 0.9);
}

#[test]
fn domain_transfer_leaks_without_governance_purges_with() {
    let transfer = |spec: &ScenarioSpec| {
        DisruptionSchedule::new().at(
            SimTime::from_secs(30),
            Disruption::DomainTransfer {
                entity: spec.edge_id(0).0 as u64,
                to: DomainId(1),
            },
        )
    };
    let mut ml3_spec = privacy_spec(MaturityLevel::Ml3);
    ml3_spec.vendor_edge = false; // isolate the transfer channel
    ml3_spec.disruptions = transfer(&ml3_spec);
    let ml3 = Scenario::build(ml3_spec).run();

    let mut ml4_spec = privacy_spec(MaturityLevel::Ml4);
    ml4_spec.vendor_edge = false;
    ml4_spec.disruptions = transfer(&ml4_spec);
    let ml4 = Scenario::build(ml4_spec).run();

    assert!(
        ml3.report.requirements["privacy"].resilience < 0.8,
        "transferred ML3 store keeps out-of-scope data at rest: {}",
        ml3.report.requirements["privacy"].resilience
    );
    assert!(
        (ml4.report.requirements["privacy"].resilience - 1.0).abs() < 0.02,
        "ML4 purge on transfer: {}",
        ml4.report.requirements["privacy"].resilience
    );
}

#[test]
fn redaction_keeps_aggregates_flowing() {
    let registry = standard_domains();
    let keys = KeySpace::new();
    let (icu_key, temp_key) = (keys.intern("icu/load"), keys.intern("lobby/temp"));
    let mut hospital =
        ReplicatedStore::with_keys(0, DomainId(0), PolicyEngine::governed(), keys.clone());
    let special = DataMeta {
        sensitivity: Sensitivity::Special,
        purposes: riot_data::PurposeSet::only(riot_data::Purpose::Analytics),
        origin: DomainId(0),
        produced_at: SimTime::ZERO,
    };
    hospital.put_key(icu_key, 0.7, special, SimTime::ZERO);
    hospital.put_key(
        temp_key,
        21.5,
        DataMeta::operational(DomainId(0), SimTime::ZERO),
        SimTime::ZERO,
    );

    let outbound = hospital.sync_out(DomainId(1), &registry, SimTime::ZERO);
    assert_eq!(outbound.entries.len(), 2, "both records flow in some form");
    let icu = outbound
        .entries
        .iter()
        .find(|e| e.record.key == icu_key)
        .unwrap();
    let temp = outbound
        .entries
        .iter()
        .find(|e| e.record.key == temp_key)
        .unwrap();
    assert!(icu.record.is_redacted(), "special-category value blanked");
    assert!(!temp.record.is_redacted(), "operational value intact");

    let mut vendor = ReplicatedStore::with_keys(1, DomainId(1), PolicyEngine::permissive(), keys);
    vendor.on_sync(outbound, &registry, SimTime::ZERO);
    assert_eq!(
        vendor.privacy_violations(&registry),
        0,
        "redacted data is not a violation"
    );
}

#[test]
fn policy_decisions_are_auditable() {
    let registry = standard_domains();
    let engine = PolicyEngine::governed();
    let personal = DataMeta::personal(DomainId(0), SimTime::ZERO);
    let ctx = riot_data::FlowContext {
        meta: &personal,
        from: DomainId(0),
        to: DomainId(1),
    };
    let (action, rule) = engine.decide(&ctx, &registry);
    assert_eq!(action, PolicyAction::Deny);
    assert_eq!(
        rule, "personal-data-stays-in-scope",
        "the audit trail names the rule"
    );
}
