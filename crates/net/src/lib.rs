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
//! [`Network::isolate`], [`Network::reattach`], all injectable mid-run
//! from a world's [`riot_sim::World::inject`], which reaches the network
//! through [`riot_sim::Sim::medium_mut`].
//!
//! ## Example
//!
//! ```
//! use riot_net::{Hierarchy, HierarchySpec};
//!
//! let (mut net, h) = Hierarchy::build(&HierarchySpec::default());
//! assert!(net.path(h.devices[0][0], h.cloud).is_some());
//! net.isolate(h.cloud);
//! // The edge mesh keeps the neighbourhood alive without the cloud.
//! assert!(net.path(h.devices[0][0], h.devices[1][0]).is_some());
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod latency;
mod network;
mod topology;

pub use latency::LatencyModel;
pub use network::{Link, Network, NodeKind, RouteStats};
pub use topology::{line, presets, ring, Hierarchy, HierarchySpec};
