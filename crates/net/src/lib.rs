//! # riot-net — the simulated IoT network substrate
//!
//! Implements [`riot_sim::Medium`] with the structure the paper's landscape
//! (Figure 1) describes: **device**, **edge** and **cloud** nodes joined by
//! links with heterogeneous latency and loss; minimum-expected-latency
//! routing; reversible link cuts and group partitions; node isolation; and
//! device mobility (re-attachment between edges).
//!
//! The disruption vocabulary of the paper — connectivity changes,
//! non-persistent cloud control structures, adverse environments — maps to
//! concrete operations here: [`Network::cut_link`], [`Network::partition`],
//! [`Network::isolate`], [`Network::reattach`], all injectable mid-run via
//! [`riot_sim::Sim::schedule_injection`].
//!
//! ## Example
//!
//! ```
//! use riot_net::{Hierarchy, HierarchySpec};
//!
//! let (mut net, h) = Hierarchy::build(&HierarchySpec::default());
//! assert!(net.reachable(h.devices[0][0], h.cloud));
//! net.isolate(h.cloud);
//! // The edge mesh keeps the neighbourhood alive without the cloud.
//! assert!(net.reachable(h.devices[0][0], h.devices[1][0]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod latency;
mod network;
pub mod topology;

pub use latency::LatencyModel;
pub use network::{Link, Network, NodeInfo, NodeKind, RouteStats};
pub use topology::{full_mesh, line, presets, ring, star, Hierarchy, HierarchySpec};
