//! Scenario assembly and execution: the experiment engine.
//!
//! A [`ScenarioSpec`] describes a deployment (size, maturity level,
//! domains, disruption schedule); [`Scenario::build`] assembles the
//! network, domain registry and node processes; [`Scenario::run`] executes
//! it, sampling the five standard requirements every
//! [`ScenarioSpec::sample_every`] and producing a [`ScenarioResult`] with
//! the resilience report and run counters.
//!
//! ## Node-id layout
//!
//! Deterministic and derivable from the spec alone (so disruption
//! schedules can be written before the system exists): the cloud is
//! process 0, edges are `1..=edges`, devices follow grouped by edge.
//! [`ScenarioSpec::cloud_id`], [`ScenarioSpec::edge_id`] and
//! [`ScenarioSpec::device_id`] encode this.
//!
//! ## Files
//!
//! One job each: `spec` (the [`ScenarioSpec`], its checks and the id
//! layout), `build` ([`Scenario::build`]), `run` (the run loop and the
//! sample tick), `disrupt` (a disruption's injection), `result`
//! ([`ScenarioResult`] and its harvest) and, compiled for tests only,
//! `oracle` (the full-rescan sampler the slab fold is checked against) and
//! `tests`.

mod build;
mod disrupt;
mod oracle;
mod result;
mod run;
mod spec;
mod tests;

pub use build::standard_domains;
pub use result::ScenarioResult;
pub use spec::{ScenarioSpec, SpecError, MAX_TRACE_TAIL};

use crate::msg::Msg;
use crate::observe::PROBE_ROWS;
use crate::resilience::SampleLog;
use crate::state::NodeSlab;
use riot_data::{DataKey, KeySpace};
use riot_formal::OnlineMonitor;
use riot_model::{DomainRegistry, GoalModel, RequirementSet};
use riot_net::Hierarchy;
use riot_sim::{MetricKey, ProcessId, Sim, SimTime};

/// Static facts about one device of a built scenario.
#[derive(Debug, Clone)]
pub struct DeviceInfo {
    /// Process id.
    pub id: ProcessId,
    /// Index of its primary edge.
    pub edge_index: usize,
    /// Its data key (interned in the scenario's run-wide key space; resolve
    /// through any store's [`riot_data::KeySpace`] for the display name).
    pub key: DataKey,
    /// `true` when it produces personal data.
    pub personal: bool,
}

/// A built, ready-to-run scenario.
pub struct Scenario {
    spec: ScenarioSpec,
    sim: Sim<Msg>,
    hierarchy: Hierarchy,
    /// The run-wide data-key space every store shares.
    keys: KeySpace,
    devices: Vec<DeviceInfo>,
    registry: DomainRegistry,
    requirements: RequirementSet,
    goals: GoalModel,
    /// The online monitor bank over `spec.monitors`, stepped with each
    /// sample's valuation (`crate::observe`). Empty — and stepping nothing —
    /// when the spec has no monitors.
    monitors: OnlineMonitor,
    /// Bus index of the forensic ring, when `spec.trace_tail` is set.
    ring_idx: Option<usize>,
    /// The stream pipeline's handles, when `spec.streams` is on.
    streams: Option<StreamIdx>,
    /// What every sample tick recorded; the result is computed from it.
    log: SampleLog,
    /// The node-state slab every sample tick folds (`crate::state`).
    slab: NodeSlab,
    /// The last sample tick taken (`SimTime::ZERO` before the first).
    sampled_to: SimTime,
}

/// What `finish` needs to harvest the built-in streaming-telemetry
/// pipeline without searching the bus. Inside the pipeline operator `i < 3`
/// is the latency probe reporting as `PROBE_ROWS[i]`, followed by
/// [`FLOWS_OP`] and [`ACTIVITY_OP`].
struct StreamIdx {
    /// Bus index of the `StreamPipeline` observer.
    pipeline: usize,
    /// `(flow key, display label)` per jurisdiction counter, resolved at
    /// build time so the end-of-run harvest needn't reverse-lookup interned
    /// names.
    flow_names: Vec<(MetricKey, &'static str)>,
}

/// Operator index of the per-jurisdiction flow accountant.
const FLOWS_OP: usize = PROBE_ROWS.len();
/// Operator index of the node-liveness mirror.
const ACTIVITY_OP: usize = FLOWS_OP + 1;

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.spec.name)
            .field("level", &self.spec.level)
            .field("devices", &self.devices.len())
            .finish()
    }
}

impl Scenario {
    /// The spec this scenario was built from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The devices of the built scenario.
    pub fn devices(&self) -> &[DeviceInfo] {
        &self.devices
    }

    /// The run-wide data-key space (resolves [`DeviceInfo::key`] to names).
    pub fn keys(&self) -> &KeySpace {
        &self.keys
    }
}
