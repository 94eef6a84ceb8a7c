//! # riot-core — resilient IoT systems, assembled
//!
//! The facade of the `riot` framework: it wires the substrates —
//! simulation kernel (`riot-sim`), network (`riot-net`), system model
//! (`riot-model`), formal methods (`riot-formal`), decentralized
//! coordination (`riot-coord`) and governed data plane (`riot-data`) —
//! with its own MAPE-K self-adaptation loop into the four architecture
//! archetypes of the paper's maturity ladder (Tables 1 & 2) and runs them
//! as measurable scenarios.
//!
//! * [`ArchitectureConfig`] expands a `MaturityLevel` into the six
//!   switches a run turns: the level (which places control: local / cloud
//!   / edge / edge+failover), MAPE placement (none / cloud / edge),
//!   replication mode, governance posture, coordination stack and the
//!   anti-entropy period. The timings no architecture varies are
//!   constants.
//! * Devices, edges and the cloud, the three node types of Figure 1's
//!   landscape, run as the scenario's own processes.
//! * [`ScenarioSpec`] / [`Scenario`] build and run a deployment under a
//!   [`riot_model::DisruptionSchedule`], sampling the five standard
//!   requirements (latency, availability, coverage, freshness, privacy).
//! * [`ScenarioResult`] / [`ResilienceReport`] quantify the paper's
//!   definition of resilience — *persistence of requirement satisfaction
//!   when facing change* — as time-weighted satisfaction, MTTR and outage
//!   statistics, integrated from the run's [`SampleLog`]: one typed column
//!   per sampled series, owned by the scenario.
//! * Scenarios also publish each sample's requirement valuation onto the
//!   kernel observability bus: [`MonitorSpec`] watches LTL properties *online*
//!   (verdicts and detection timestamps in [`ScenarioResult::monitors`]),
//!   [`ScenarioSpec::trace_tail`] keeps bounded crash forensics,
//!   [`ScenarioSpec::streams`] attaches windowed streaming-telemetry
//!   operators (online percentiles, per-jurisdiction flow accounting,
//!   liveness mirroring — [`StreamSpec`]) whose bounded
//!   [`StreamSummary`] rows land in [`ScenarioResult::streams`], and
//!   [`ObserverSpec`] registers custom streaming observers.
//!
//! ## Quickstart
//!
//! ```
//! use riot_core::{Scenario, ScenarioSpec};
//! use riot_model::MaturityLevel;
//! use riot_sim::SimDuration;
//!
//! let mut spec = ScenarioSpec::new("quick", MaturityLevel::Ml4, 1);
//! spec.edges = 2;
//! spec.devices_per_edge = 2;
//! spec.duration = SimDuration::from_secs(20);
//! spec.warmup = SimDuration::from_secs(5);
//! let result = Scenario::build(spec).run();
//! assert!(result.overall_resilience() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod cloud;
mod config;
mod device;
mod edge;
mod keys;
mod mobility;
mod msg;
mod observe;
mod recovery;
mod report;
mod resilience;
mod scenario;
mod state;

pub use config::{ArchitectureConfig, ControlPlacement, MapePlacement, ReplicationMode};
pub use mobility::{roaming_schedule, Layout, MobilitySpec};
pub use msg::{AppMsg, Msg, ReadingPayload};
pub use observe::{
    MonitorError, MonitorOutcome, MonitorSpec, ObserverSpec, StreamQuantiles, StreamSpec,
    StreamStats, StreamSummary,
};
pub use report::{resilience_table, secs, Stats, Table};
pub use resilience::{
    RequirementOutcome, ResilienceReport, SampleLog, Thresholds, GOAL_NAME, REQUIREMENT_NAMES,
};
pub use scenario::{
    standard_domains, DeviceInfo, Scenario, ScenarioResult, ScenarioSpec, SpecError, MAX_TRACE_TAIL,
};
