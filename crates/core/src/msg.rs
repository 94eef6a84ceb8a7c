//! The closed-world message type of a riot simulation.
//!
//! Every protocol crate defines its own message enum; [`Msg`] composes them
//! (plus the application-level IoT traffic) into the single type the
//! simulator routes; each process matches on the variants it hosts.

use riot_coord::{ElectionMsg, SwimMsg};
use riot_data::{DataKey, DataMeta, SyncMsg};
use riot_model::{ComponentId, ComponentState};
use riot_sim::{ProcessId, SimTime};

/// One sensor reading with the reporting device's component telemetry: what
/// [`AppMsg::Reading`] and [`AppMsg::RelayedReading`] both carry, so an
/// ingestion path takes it — and a relay forwards it — as one value.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadingPayload {
    /// Data key (the reporting device's id in the run's key space).
    pub key: DataKey,
    /// Observed value.
    pub value: f64,
    /// Governance label.
    pub meta: DataMeta,
    /// The reporting device's component.
    pub component: ComponentId,
    /// Its lifecycle state.
    pub state: ComponentState,
    /// The device that produced it.
    pub device: ProcessId,
}

/// Application-level IoT traffic: sensing, control and actuation.
#[derive(Debug, Clone, PartialEq)]
pub enum AppMsg {
    /// A sensor reading pushed from a device to its data/control host,
    /// carrying the device's component telemetry (the paper's Figure 5:
    /// monitoring *is* sensing at the devices).
    Reading(ReadingPayload),
    /// A relayed copy of a reading (edge → cloud telemetry forwarding).
    RelayedReading(ReadingPayload),
    /// A device asking its controller for a decision (the control loop).
    ControlRequest {
        /// Correlation id.
        req_id: u64,
        /// When the device issued it.
        issued_at: SimTime,
    },
    /// The controller's decision back to the device.
    ControlReply {
        /// Correlation id.
        req_id: u64,
        /// Original issue time (latency is computed at the device).
        issued_at: SimTime,
    },
    /// An Execute-stage command: restart a component on the receiving node.
    Restart {
        /// The component to restart.
        component: ComponentId,
    },
}

/// The closed world of messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// SWIM membership traffic (edges, ML4).
    Swim(SwimMsg),
    /// Leader election traffic (edges, ML4).
    Election(ElectionMsg),
    /// Data-plane anti-entropy.
    Sync(SyncMsg),
    /// Application traffic.
    App(AppMsg),
}
