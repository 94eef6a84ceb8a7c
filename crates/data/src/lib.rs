//! # riot-data — inter-IoT data flows with governance
//!
//! §VI of the paper: data now "flows from device to device in a
//! bidirectional manner, and among different data consumers and producers",
//! traversing "computational resources of diverse administrative domains
//! and different levels of trust". This crate is the data plane that makes
//! those flows resilient and governed:
//!
//! * **Convergence** — state-based CRDTs ([`GCounter`], [`PnCounter`],
//!   [`LwwRegister`], [`OrSet`]) whose join-semilattice laws are
//!   property-tested.
//! * **Classification** — [`DataMeta`]: sensitivity (GDPR-style
//!   personal/special categories), purposes, origin domain, age.
//! * **Governance** — [`PolicyEngine`]: ordered first-match rules over
//!   flows (allow / deny / redact), with the paper's ML4 posture available
//!   as [`PolicyEngine::governed`] and the legacy posture as
//!   [`PolicyEngine::permissive`].
//! * **Replication** — [`ReplicatedStore`]: LWW anti-entropy sync with
//!   policy enforced at both egress and ingress, staleness queries, and the
//!   privacy-violation audit used by experiment E5.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod crdt;
mod item;
mod keyspace;
mod policy;
mod store;

pub use crdt::{Crdt, GCounter, LwwRegister, OrSet, PnCounter};
pub use item::{DataMeta, DataRecord, Purpose, PurposeSet, Sensitivity};
pub use keyspace::{DataKey, KeySpace};
pub use policy::{FlowContext, PolicyAction, PolicyEngine, PolicyRule};
pub use store::{ReplicatedStore, StoreEntry, StoreStats, SyncMsg};
