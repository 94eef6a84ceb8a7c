//! Golden byte-identity tests for the scenario layer (DESIGN.md §13).
//!
//! Two rings of defence around the committed `results/*.json` artifacts,
//! the cheaper first:
//!
//! 1. [`committed_artifacts_are_byte_pinned`] hashes the eight committed
//!    files against golden FNV-1a digests. Any PR that regenerates an
//!    artifact — deliberately or by accident — must update the digest
//!    here, which makes artifact drift a reviewed diff instead of a
//!    silent one.
//! 2. [`ten_k_device_scenario_is_golden`] runs a fresh 10⁴-device
//!    scenario and pins its entire serialized result. This is the scale
//!    regime the committed artifacts never reach (they top out at tens of
//!    devices), so slab bugs that only bite at scale (slot aliasing,
//!    wheel wrap, bitset word edges at device 64·k) cannot hide behind
//!    ring 1.
//!
//! The behavioural ring — the slab fold against the process-table rescan
//! oracle, across seeds × disruption suites — is a unit test of `riot-core`
//! (`scenario.rs::incremental_sampling_equals_full_rescan_on_every_level`),
//! because the oracle is a `#[cfg(test)]` item of that crate.

use riot_core::{Scenario, ScenarioSpec};
use riot_model::MaturityLevel;
use riot_sim::{SimDuration, ToJson};
use std::path::Path;

/// FNV-1a 64-bit — dependency-free content digest for golden pinning.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(artifact, byte length, FNV-1a digest)` for every committed result.
/// Regenerating an artifact bin must reproduce these bytes exactly.
const GOLDEN_ARTIFACTS: &[(&str, usize, u64)] = &[
    ("a1_coord_ablation", 9836, 0xbc37_bbd6_8bfa_004d),
    ("a2_data_ablation", 1433, 0x2bd2_ab3a_163a_c0e2),
    ("e1_maturity", 14107, 0x90f4_c4ac_1666_e9e2),
    ("e2_landscape", 581, 0xb865_2881_aebc_0ec2),
    ("e3_verification", 954, 0x1aa2_61ee_f628_e6f6),
    ("e4_control", 4035, 0x8874_3d64_3f01_d093),
    ("e5_dataflows", 1819, 0x12c8_c471_09d3_10d0),
    ("e6_mape", 2013, 0x46de_7a2a_7105_3817),
];

#[test]
fn committed_artifacts_are_byte_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (name, len, digest) in GOLDEN_ARTIFACTS {
        let path = root.join("results").join(format!("{name}.json"));
        let bytes =
            std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (*len, *digest),
            "results/{name}.json drifted from its golden digest — if the \
             regeneration was deliberate, update GOLDEN_ARTIFACTS"
        );
    }
}

/// The 10⁴-device golden spec: ML1 (pure device timers — the regime where
/// the slab fast paths are all active), short horizon so the test stays
/// debug-buildable.
fn ten_k_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("golden-1e4", MaturityLevel::Ml1, 11);
    spec.edges = 10;
    spec.devices_per_edge = 1_000;
    spec.duration = SimDuration::from_secs(10);
    spec.warmup = SimDuration::from_secs(2);
    spec.sample_every = SimDuration::from_secs(1);
    spec
}

#[test]
fn ten_k_device_scenario_is_golden() {
    let result = Scenario::build(ten_k_spec()).run();
    assert_eq!(result.devices, 10_000);
    assert_eq!(result.events_processed, 300_000);
    // The whole serialized result — series, reports, monitors — pinned as
    // one digest. A drift here without a matching code-change rationale
    // means the scenario layer stopped being deterministic at scale.
    let json = result.to_json().pretty();
    assert_eq!(fnv1a(json.as_bytes()), 0x405e_14ca_cf40_2c03);
}
