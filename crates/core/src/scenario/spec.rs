//! The scenario's description: [`ScenarioSpec`], its structural checks
//! ([`ScenarioSpec::validate`]) and the node-id layout.

#[cfg(doc)]
use super::{Scenario, ScenarioResult};
use crate::config::ArchitectureConfig;
use crate::observe::{valuation_bank, MonitorError, MonitorSpec, ObserverSpec, StreamSpec};
use crate::resilience::Thresholds;
use riot_formal::OnlineMonitor;
use riot_model::{DisruptionSchedule, MaturityLevel};
use riot_net::Link;
use riot_sim::{ProcessId, SimDuration};

/// Describes one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (reports and JSON output).
    pub name: String,
    /// Maturity level realized by the architecture.
    pub level: MaturityLevel,
    /// RNG seed; same spec + same seed ⇒ identical result.
    pub seed: u64,
    /// Number of edge components.
    pub edges: usize,
    /// Devices attached to each edge.
    pub devices_per_edge: usize,
    /// Total virtual run time.
    pub duration: SimDuration,
    /// Calm window before disruptions; baseline satisfaction is measured
    /// here.
    pub warmup: SimDuration,
    /// Requirement sampling period.
    pub sample_every: SimDuration,
    /// Requirement thresholds.
    pub thresholds: Thresholds,
    /// Every `k`-th device produces personal (GDPR) data; `0` disables.
    pub personal_every: usize,
    /// When `true`, the last edge belongs to an untrusted analytics-vendor
    /// domain and subscribes to the cloud's data (the E5 setting).
    pub vendor_edge: bool,
    /// The disruption schedule (times are absolute; use `warmup` +offsets).
    pub disruptions: DisruptionSchedule,
    /// Architecture override; defaults to
    /// [`ArchitectureConfig::for_level`].
    pub arch: Option<ArchitectureConfig>,
    /// Edge↔cloud link override (for RTT sweeps).
    pub edge_cloud_link: Option<Link>,
    /// LTL properties monitored *online* over each sample's requirement
    /// valuation (see [`MonitorSpec`] for the atoms a formula may name);
    /// outcomes land in [`ScenarioResult::monitors`].
    pub monitors: Vec<MonitorSpec>,
    /// Keep a bounded ring of the last `N` kernel events and report it in
    /// [`ScenarioResult::trace_tail`]: O(N) retention however long the run,
    /// and crash forensics when a run panics inside a harness cell. A ring
    /// large enough not to wrap holds the run's whole event history.
    pub trace_tail: Option<usize>,
    /// The built-in streaming-telemetry pipeline (windowed operators over
    /// the observer bus; see [`StreamSpec`]). Off by default; on, it only
    /// *adds* [`ScenarioResult::streams`] rows — every published artifact
    /// stays byte-identical.
    pub streams: StreamSpec,
    /// Additional observers registered on the bus, after the built-in
    /// ring and stream pipeline (registration order is fixed; see
    /// [`ObserverSpec`]).
    pub observers: ObserverSpec,
}

/// Largest ring-tail capacity a spec may request (2^20 entries). A request
/// beyond this is almost certainly a units mistake — `RingTrace` used to
/// clamp silently, which hid exactly that class of bug.
pub const MAX_TRACE_TAIL: usize = 1 << 20;

/// A structurally invalid [`ScenarioSpec`], detected by
/// [`ScenarioSpec::validate`] before any simulation resources are committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// `edges = 0`: a scenario needs at least one edge.
    ZeroEdges,
    /// `devices_per_edge = 0`: a scenario needs at least one device.
    ZeroDevicesPerEdge,
    /// The cloud, the edges and their devices, `1 + edges + edges ×
    /// devices_per_edge` nodes, do not fit the kernel's `u32` process ids.
    TooManyNodes {
        /// The spec's edge count.
        edges: usize,
        /// The spec's devices per edge.
        devices_per_edge: usize,
    },
    /// `sample_every` is zero: the sampling loop of [`Scenario::run`] would
    /// never advance.
    ZeroSampleInterval,
    /// `trace_tail = Some(0)` retains nothing; use `None` to disable the
    /// ring instead.
    ZeroTraceTail,
    /// `trace_tail` exceeds [`MAX_TRACE_TAIL`].
    TraceTailTooLarge {
        /// The capacity the spec asked for.
        requested: usize,
    },
    /// A monitor's formula does not parse, or names an atom no sample
    /// values.
    Monitor {
        /// The [`MonitorSpec::name`] of the offending monitor.
        name: String,
        /// What is wrong with its formula.
        error: MonitorError,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::ZeroEdges => write!(f, "edges must be at least 1"),
            SpecError::ZeroDevicesPerEdge => write!(f, "devices_per_edge must be at least 1"),
            SpecError::TooManyNodes {
                edges,
                devices_per_edge,
            } => write!(
                f,
                "{edges} edges x {devices_per_edge} devices_per_edge is more nodes than the \
                 kernel's u32 process ids can number"
            ),
            SpecError::ZeroSampleInterval => {
                write!(
                    f,
                    "sample_every must be positive: a run never ends on a zero interval"
                )
            }
            SpecError::ZeroTraceTail => {
                write!(
                    f,
                    "trace_tail = Some(0) retains nothing; use None to disable"
                )
            }
            SpecError::TraceTailTooLarge { requested } => write!(
                f,
                "trace_tail of {requested} entries exceeds the maximum of {MAX_TRACE_TAIL}"
            ),
            SpecError::Monitor { name, error } => write!(f, "monitor '{name}': {error}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl ScenarioSpec {
    /// A scenario with sensible defaults: 4 edges × 8 devices, 120 s run
    /// with a 30 s warmup, sampled every second.
    pub fn new(name: impl Into<String>, level: MaturityLevel, seed: u64) -> Self {
        ScenarioSpec {
            name: name.into(),
            level,
            seed,
            edges: 4,
            devices_per_edge: 8,
            duration: SimDuration::from_secs(120),
            warmup: SimDuration::from_secs(30),
            sample_every: SimDuration::from_secs(1),
            thresholds: Thresholds::default(),
            personal_every: 4,
            vendor_edge: true,
            disruptions: DisruptionSchedule::new(),
            arch: None,
            edge_cloud_link: None,
            monitors: Vec::new(),
            trace_tail: None,
            streams: StreamSpec::new(),
            observers: ObserverSpec::new(),
        }
    }

    /// Checks spec invariants that [`Scenario::build`] would otherwise trip
    /// over at runtime. `build` reports an error of these checks by
    /// panicking; callers assembling specs from untrusted input (CLI flags,
    /// config files) should call this first and report the typed error
    /// instead.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.checked_monitors().map(drop)
    }

    /// Every check of [`ScenarioSpec::validate`], keeping what the last one
    /// parsed: the monitor bank over [`ScenarioSpec::monitors`], its
    /// vocabulary the valuation atoms (`crate::observe`).
    pub(super) fn checked_monitors(&self) -> Result<OnlineMonitor, SpecError> {
        if self.edges == 0 {
            return Err(SpecError::ZeroEdges);
        }
        if self.devices_per_edge == 0 {
            return Err(SpecError::ZeroDevicesPerEdge);
        }
        let nodes = self
            .edges
            .checked_mul(self.devices_per_edge)
            .and_then(|devices| devices.checked_add(self.edges))
            .and_then(|n| n.checked_add(1));
        if nodes.is_none_or(|n| n >= u32::MAX as usize) {
            return Err(SpecError::TooManyNodes {
                edges: self.edges,
                devices_per_edge: self.devices_per_edge,
            });
        }
        if self.sample_every == SimDuration::ZERO {
            return Err(SpecError::ZeroSampleInterval);
        }
        match self.trace_tail {
            Some(0) => return Err(SpecError::ZeroTraceTail),
            Some(n) if n > MAX_TRACE_TAIL => {
                return Err(SpecError::TraceTailTooLarge { requested: n })
            }
            _ => {}
        }
        let mut bank = valuation_bank();
        for monitor in &self.monitors {
            monitor
                .watch_on(&mut bank)
                .map_err(|error| SpecError::Monitor {
                    name: monitor.name.clone(),
                    error,
                })?;
        }
        Ok(bank)
    }

    /// The cloud's process id.
    pub fn cloud_id(&self) -> ProcessId {
        ProcessId(0)
    }

    /// The `i`-th edge's process id.
    ///
    /// # Panics
    ///
    /// Panics if `i >= edges`.
    pub fn edge_id(&self, i: usize) -> ProcessId {
        assert!(i < self.edges, "edge index {i} out of range");
        ProcessId(1 + i)
    }

    /// The process id of device `d` of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn device_id(&self, e: usize, d: usize) -> ProcessId {
        assert!(
            e < self.edges && d < self.devices_per_edge,
            "device ({e},{d}) out of range"
        );
        ProcessId(1 + self.edges + e * self.devices_per_edge + d)
    }

    /// Total device count.
    pub fn device_count(&self) -> usize {
        self.edges * self.devices_per_edge
    }

    /// The effective architecture configuration.
    pub fn architecture(&self) -> ArchitectureConfig {
        self.arch
            .clone()
            .unwrap_or_else(|| ArchitectureConfig::for_level(self.level))
    }

    /// The vendor edge's index (the last edge), when enabled.
    pub fn vendor_edge_index(&self) -> Option<usize> {
        if self.vendor_edge && self.edges > 1 {
            Some(self.edges - 1)
        } else {
            None
        }
    }
}
