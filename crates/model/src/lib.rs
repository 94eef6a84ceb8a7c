//! # riot-model — the analyzable IoT system model
//!
//! §IV of the paper argues that "modeling is not merely a representation,
//! but a foundation for both design-time analysis of resilience factors and
//! resilient system operationalization". This crate provides those
//! representations:
//!
//! * **Entities** — heterogeneous [`Device`]s (microcontroller → cloud
//!   server) with resource [`Capabilities`] and [`SoftwareStack`]s, plus
//!   the [`ComponentState`] lifecycle of deployed components.
//! * **Domains** — [`Domain`]s with [`Jurisdiction`]s (GDPR/CCPA) and a
//!   pairwise [`TrustLevel`] relation.
//! * **Space** — [`Location`]/[`SpatialIndex`]: locality as a first-class
//!   contextual characteristic.
//! * **Requirements & goals** — measurable [`Requirement`]s with three-
//!   valued verdicts, composed into AND/OR [`GoalModel`]s. Resilience is
//!   *persistence of requirement satisfaction* and is computed from these.
//! * **Disruptions** — the taxonomy of adverse change ([`Disruption`]) with
//!   time-ordered [`DisruptionSchedule`]s.
//! * **Maturity** — Tables 1 & 2 as data: [`MaturityLevel`] ×
//!   [`DisruptionVector`] with the [`LevelCapabilities`] switches the
//!   architecture archetypes are assembled from.
//!
//! The model is deliberately independent of the simulator's runtime types
//! except for identifiers and time, so it can also back design-time analysis
//! in `riot-formal`.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod disruption;
mod domain;
mod entity;
mod goal;
mod maturity;
mod requirement;
mod space;

pub use disruption::{Disruption, DisruptionEvent, DisruptionSchedule};
pub use domain::{Domain, DomainId, DomainRegistry, Jurisdiction, TrustLevel};
pub use entity::{
    interoperability, Capabilities, ComponentId, ComponentState, Device, DeviceClass, DeviceId,
    OsKind, ProtocolKind, RuntimeKind, SoftwareStack,
};
pub use goal::{GoalEvaluation, GoalId, GoalModel, GoalNode, GoalOp};
pub use maturity::{cell, DisruptionVector, LevelCapabilities, MaturityLevel};
pub use requirement::{
    Predicate, Requirement, RequirementId, RequirementKind, RequirementSet, Telemetry, Verdict,
};
pub use space::{Location, SpatialIndex};
