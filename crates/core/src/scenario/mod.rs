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
//! sample tick), `world` (the kernel's closed world: the node enum, the
//! `Network`, the injection enum, the node-state slab it lends devices),
//! `disrupt` (what an injection does), `result` ([`ScenarioResult`] and
//! its harvest) and, compiled for tests only, `oracle` (the full-rescan
//! sampler the slab fold is checked against) and `tests`.

mod build;
mod disrupt;
mod oracle;
mod result;
mod run;
mod spec;
mod tests;
mod world;

pub use build::standard_domains;
pub use result::ScenarioResult;
pub use spec::{ScenarioSpec, SpecError, MAX_TRACE_TAIL};

use crate::keys::MetricKeys;
use crate::observe::PROBE_ROWS;
use crate::resilience::SampleLog;
use riot_data::{DataKey, KeySpace};
use riot_formal::OnlineMonitor;
use riot_model::{DomainRegistry, GoalModel, RequirementSet};
use riot_net::Hierarchy;
use riot_sim::{MetricKey, ProcessId, SimTime};
use world::ScenarioSim;

/// Static facts about one device of a built scenario, derived from the
/// spec's layout and the device's slot: nothing stores them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceInfo {
    /// Process id.
    pub id: ProcessId,
    /// Index of its primary edge.
    pub edge_index: usize,
    /// Its data key, minted unnamed in the scenario's run-wide key space:
    /// the device keys are one run in slot order.
    pub key: DataKey,
    /// `true` when it produces personal data.
    pub personal: bool,
}

impl DeviceInfo {
    /// Device `slot`'s facts under `spec`, whose device keys are the run
    /// starting at `first_key`. Slots number devices edge by edge, as
    /// [`ScenarioSpec::device_id`] lays out their process ids.
    fn of(spec: &ScenarioSpec, first_key: DataKey, slot: usize) -> DeviceInfo {
        let edge_index = slot / spec.devices_per_edge;
        DeviceInfo {
            id: spec.device_id(edge_index, slot % spec.devices_per_edge),
            edge_index,
            // The spec's node count fits a u32 (`SpecError::TooManyNodes`).
            key: first_key.offset(slot as u32),
            personal: spec.personal_every > 0 && slot.is_multiple_of(spec.personal_every),
        }
    }
}

/// A built, ready-to-run scenario.
pub struct Scenario {
    spec: ScenarioSpec,
    sim: ScenarioSim,
    hierarchy: Hierarchy,
    /// The run-wide data-key space every store shares.
    keys: KeySpace,
    /// The run's metric keys, minted once at build.
    metric_keys: MetricKeys,
    /// The data key of device slot 0: the device keys are one run.
    first_key: DataKey,
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
    /// The consuming store's process per home-edge index, read by every
    /// sample tick's freshness scan; empty when nothing replicates.
    consumer_of_edge: Vec<ProcessId>,
    /// How many devices are not personal: the freshness scan's domain.
    operational: usize,
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
            .field("devices", &self.spec.device_count())
            .finish()
    }
}

impl Scenario {
    /// The devices of the built scenario, in slot order.
    pub fn devices(&self) -> impl ExactSizeIterator<Item = DeviceInfo> + '_ {
        (0..self.spec.device_count()).map(|slot| DeviceInfo::of(&self.spec, self.first_key, slot))
    }

    /// The run-wide data-key space every store shares.
    pub fn keys(&self) -> &KeySpace {
        &self.keys
    }
}
