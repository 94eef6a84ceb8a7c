//! # riot-bench — the experiment harness
//!
//! One binary per table/figure of the reproduction (see `DESIGN.md` §3):
//!
//! | binary | artifact | claim under test |
//! |---|---|---|
//! | `e1_maturity` | Tables 1 & 2 | the maturity ladder is ordered w.r.t. measured resilience |
//! | `e2_landscape` | Figure 1 | the composed landscape model is expressible and operable |
//! | `e3_verification` | Figure 2 | design-time checking + runtime monitoring at IoT scale |
//! | `e4_control` | Figure 3 | decentralized edge control beats centralized cloud control under stress |
//! | `e5_dataflows` | Figure 4 | governance eliminates privacy violations at bounded freshness cost |
//! | `e6_mape` | Figure 5 | edge-placed MAPE recovers faster than cloud-placed under cloud disruption |
//! | `a1_coord_ablation` | design choice | gossip/SWIM parameter sensitivity |
//! | `a2_data_ablation` | design choice | sync-period vs staleness trade-off |
//!
//! Every binary prints plain-text tables and writes machine-readable JSON
//! under `results/`. The `riot` binary is a general-purpose scenario CLI
//! (`--help` for usage): pick a maturity level (or all), a disruption
//! suite, sizes, roaming, and get the resilience table plus optional JSON.
//! Speed is measured by the `benchmark` binary alone (`BENCHMARK.json`,
//! `src/bin/benchmark/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use riot_harness::HarnessConfig;
use riot_sim::ToJson;
use std::fs;
use std::path::{Path, PathBuf};

/// Prints the standard experiment banner.
pub fn banner(id: &str, artifact: &str, claim: &str) {
    println!("=== {id} — reproducing {artifact}");
    println!("    claim: {claim}");
    println!();
}

/// The workspace-root `results/` directory, resolved from this crate's
/// compile-time manifest location (`crates/bench` → two levels up) so the
/// output lands in the same place no matter which directory the binary is
/// invoked from.
fn results_dir() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(manifest)
        .join("results")
}

/// Writes `value` as pretty JSON to `<workspace-root>/results/<name>.json`,
/// creating the directory as needed. Failures are reported but non-fatal:
/// the printed tables are the primary artifact.
pub fn write_json<T: ToJson>(name: &str, value: &T) {
    let dir = results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = fs::write(&path, value.to_json().pretty()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        // Host-independent form, so archived logs stay machine-agnostic.
        println!("[wrote results/{name}.json]");
    }
}

/// Formats a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// The harness configuration shared by every experiment binary: defaults
/// from the environment (`RIOT_THREADS`, `RIOT_PROGRESS`, available
/// cores), overridable on any binary's command line with `--threads N`.
/// Returns an error message for a malformed flag so `main` can print
/// usage and exit nonzero.
pub fn sweep_config(args: impl IntoIterator<Item = String>) -> Result<HarnessConfig, String> {
    let mut config = HarnessConfig::from_env();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            let value = args
                .next()
                .ok_or_else(|| "--threads requires a value".to_owned())?;
            let n: usize = value
                .parse()
                .map_err(|_| format!("--threads: '{value}' is not a positive integer"))?;
            if n == 0 {
                return Err("--threads must be at least 1".to_owned());
            }
            config = config.threads(n);
        }
    }
    Ok(config)
}

/// [`sweep_config`] over the process arguments; prints the error and
/// exits on a malformed flag.
pub fn sweep_config_from_args() -> HarnessConfig {
    match sweep_config(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Disruption suites shared by the experiment binaries: one per disruption
/// vector of Tables 1 & 2, each expressed against the deterministic node-id
/// layout of a [`riot_core::ScenarioSpec`].
pub mod suites {
    use riot_campaign::{Campaign, CampaignVector};
    use riot_core::ScenarioSpec;
    use riot_model::{ComponentId, Disruption, DisruptionSchedule};
    use riot_sim::{SimDuration, SimTime};

    /// Infrastructure loss: edge crashes with staggered recovery.
    pub fn infrastructure(spec: &ScenarioSpec) -> DisruptionSchedule {
        let mut s = DisruptionSchedule::new();
        s.push(
            SimTime::from_secs(40),
            Disruption::NodeCrash {
                node: spec.edge_id(0),
                recover_after: Some(SimDuration::from_secs(25)),
            },
        );
        if spec.edges > 2 {
            s.push(
                SimTime::from_secs(70),
                Disruption::NodeCrash {
                    node: spec.edge_id(1),
                    recover_after: Some(SimDuration::from_secs(15)),
                },
            );
        }
        s
    }

    /// Service failure: a quarter of the devices lose their component.
    pub fn service(spec: &ScenarioSpec) -> DisruptionSchedule {
        let mut s = DisruptionSchedule::new();
        let mut t = 35u64;
        for e in 0..spec.edges {
            for d in 0..spec.devices_per_edge {
                if (e * spec.devices_per_edge + d) % 4 == 1 {
                    let node = spec.device_id(e, d);
                    s.push(
                        SimTime::from_secs(t),
                        Disruption::ComponentFault {
                            node,
                            component: ComponentId(node.0 as u32),
                        },
                    );
                    t += 7;
                }
            }
        }
        s
    }

    /// Connectivity loss: a cloud outage, then an edge partition —
    /// expressed as a `riot-campaign` program (a blackout vector and a
    /// split-brain vector) and compiled against the spec's node layout.
    /// The schedule is byte-identical to the hand-rolled original under
    /// every spec shape, which the suite tests below pin.
    pub fn connectivity(spec: &ScenarioSpec) -> DisruptionSchedule {
        let mut c = Campaign::new();
        c.push(CampaignVector::CloudBlackout {
            onset: 40,
            heal: 25,
        });
        c.push(CampaignVector::SplitBrain {
            onset: 80,
            heal: 15,
        });
        c.compile(spec)
    }

    /// Governance change: an edge transfers to the vendor domain mid-run —
    /// a single jurisdiction-flip campaign vector.
    pub fn governance(spec: &ScenarioSpec) -> DisruptionSchedule {
        Campaign::single(CampaignVector::JurisdictionFlip { onset: 45, edge: 0 }).compile(spec)
    }

    /// Mobility: devices roam to neighbouring edges — a mobility-burst
    /// campaign vector with one roamer per edge.
    pub fn mobility(spec: &ScenarioSpec) -> DisruptionSchedule {
        Campaign::single(CampaignVector::MobilityBurst {
            onset: 40,
            roamers: spec.edges as u64,
            spacing: 10,
        })
        .compile(spec)
    }

    /// All suites with their display names, in table order.
    pub fn all(spec: &ScenarioSpec) -> Vec<(&'static str, DisruptionSchedule)> {
        vec![
            ("infrastructure", infrastructure(spec)),
            ("service", service(spec)),
            ("connectivity", connectivity(spec)),
            ("governance", governance(spec)),
            ("mobility", mobility(spec)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_core::ScenarioSpec;
    use riot_model::{Disruption, DisruptionSchedule, DomainId, MaturityLevel};
    use riot_sim::{SimDuration, SimTime};

    #[test]
    fn f3_formats() {
        assert_eq!(f3(1.23456), "1.235");
    }

    /// The hand-rolled schedules the campaign-compiled suites replaced,
    /// kept verbatim as the equality reference: the DSL programs must
    /// reproduce them byte-for-byte under every spec shape, or the
    /// committed `results/*.json` would drift.
    mod hand_rolled {
        use super::*;

        pub fn connectivity(spec: &ScenarioSpec) -> DisruptionSchedule {
            let mut s = DisruptionSchedule::new();
            s.push(
                SimTime::from_secs(40),
                Disruption::CloudOutage {
                    cloud: spec.cloud_id(),
                    heal_after: Some(SimDuration::from_secs(25)),
                },
            );
            if spec.edges >= 4 {
                let left: Vec<_> = (0..spec.edges / 2).map(|i| spec.edge_id(i)).collect();
                let right: Vec<_> = (spec.edges / 2..spec.edges)
                    .map(|i| spec.edge_id(i))
                    .collect();
                s.push(
                    SimTime::from_secs(80),
                    Disruption::Partition {
                        groups: vec![left, right],
                        heal_after: Some(SimDuration::from_secs(15)),
                    },
                );
            }
            s
        }

        pub fn governance(spec: &ScenarioSpec) -> DisruptionSchedule {
            DisruptionSchedule::new().at(
                SimTime::from_secs(45),
                Disruption::DomainTransfer {
                    entity: spec.edge_id(0).0 as u64,
                    to: DomainId(1),
                },
            )
        }

        pub fn mobility(spec: &ScenarioSpec) -> DisruptionSchedule {
            let mut s = DisruptionSchedule::new();
            let mut t = 40u64;
            for e in 0..spec.edges {
                let device = spec.device_id(e, 0);
                let new_parent = spec.edge_id((e + 1) % spec.edges);
                if spec.edges > 1 {
                    s.push(
                        SimTime::from_secs(t),
                        Disruption::Mobility { device, new_parent },
                    );
                    t += 10;
                }
            }
            s
        }
    }

    #[test]
    fn campaign_suites_match_the_hand_rolled_schedules() {
        // Every shape the experiment binaries use, plus degenerate ones.
        for (edges, dpe) in [(1, 4), (2, 3), (3, 2), (4, 8), (6, 5)] {
            let mut spec = ScenarioSpec::new("suite-eq", MaturityLevel::Ml3, 11);
            spec.edges = edges;
            spec.devices_per_edge = dpe;
            assert_eq!(
                suites::connectivity(&spec),
                hand_rolled::connectivity(&spec),
                "connectivity @ {edges}x{dpe}"
            );
            assert_eq!(
                suites::governance(&spec),
                hand_rolled::governance(&spec),
                "governance @ {edges}x{dpe}"
            );
            assert_eq!(
                suites::mobility(&spec),
                hand_rolled::mobility(&spec),
                "mobility @ {edges}x{dpe}"
            );
        }
    }

    #[test]
    fn results_dir_is_workspace_rooted() {
        let dir = results_dir();
        assert!(dir.ends_with("results"));
        assert!(!dir.to_string_lossy().contains("crates"));
    }

    #[test]
    fn sweep_config_parses_threads_flag() {
        let args = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            sweep_config(args(&["--threads", "3"])).map(|c| c.threads),
            Ok(3)
        );
        // Unknown flags are left for the binary's own parser.
        assert_eq!(
            sweep_config(args(&["--level", "ml4", "--threads", "2"])).map(|c| c.threads),
            Ok(2)
        );
        assert!(sweep_config(args(&["--threads"])).is_err());
        assert!(sweep_config(args(&["--threads", "zero"])).is_err());
        assert!(sweep_config(args(&["--threads", "0"])).is_err());
    }
}
