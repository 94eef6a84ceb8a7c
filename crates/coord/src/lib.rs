//! # riot-coord — decentralized coordination for resilient IoT
//!
//! §V of the paper argues that "for resilient IoT, coordination presupposes
//! a general absence of centralized control, instead leveraging cooperation
//! between software components, in a peer-to-peer fashion". This crate
//! provides that decentralized side as **sans-I/O state machines** — pure
//! `(now, event) → actions` cores that the simulator glue (or any
//! transport) drives. The centralized side it is compared with is no
//! protocol of its own: it is riot-core's cloud-placed control
//! (`ControlPlacement::Cloud`), which experiment E4 runs against these
//! machines under partitions.
//!
//! * [`Swim`] — SWIM-style failure detection and membership: round-robin
//!   probing, indirect probes through intermediaries, suspicion with
//!   incarnation-numbered refutation, piggybacked dissemination.
//! * [`Gossip`] — epidemic dissemination of versioned entries with
//!   configurable fanout (the `O(log n)` spread measured by ablation A1).
//! * [`Election`] — term-based bully-flavored leader election for an edge
//!   scope, with heartbeats, vetoes and stale-term immunity.
//! * [`ControlPattern`] — the two decentralized MAPE-control patterns a
//!   maturity level realizes (master/slave, regional planning) with the
//!   static "survives coordinator loss?" query.
//!
//! Because the machines are sans-I/O, their unit tests drive whole clusters
//! synchronously with zero-latency harnesses — see the module tests — while
//! `riot-core` wires the same machines into the simulated network.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod election;
mod gossip;
mod member;
mod pattern;
mod swim;

pub use election::{Election, ElectionMsg, ElectionOutput};
pub use gossip::{Entry, Gossip, GossipConfig, GossipMsg};
pub use member::{MemberInfo, MemberState, MembershipView, Update};
pub use pattern::ControlPattern;
pub use swim::{Swim, SwimConfig, SwimMsg, SwimOutput};
