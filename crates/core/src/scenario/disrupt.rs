//! Disruption injection: what one [`Disruption`] of the schedule does to the
//! running simulation, and the heals it schedules, each applied when the
//! [`Injection`] `Scenario::build` or an earlier injection scheduled pops.
//! What a crash, a revive or a component fault changes of a device's
//! coverage inputs is written to its node-state slab row here, by the
//! injection that made the change.

use super::world::{Node, ScenarioSim};
use riot_model::Disruption;
use riot_net::presets;
use riot_sim::{ProcessId, SimDuration};

/// A mutation of the scenario's world at a scheduled instant.
pub(crate) enum Injection {
    /// One disruption of the spec's schedule.
    Disrupt(Disruption),
    /// The one heal of an outage: the crashed node `revive`, if any, comes
    /// back up, then every link in `cut` is restored.
    Restore {
        cut: Vec<(ProcessId, ProcessId)>,
        revive: Option<ProcessId>,
    },
    /// A degraded link gets its quality back.
    RestoreQuality(ProcessId, ProcessId),
    /// A cut link is restored.
    RestoreLink(ProcessId, ProcessId),
}

/// Applies one injection.
pub(super) fn inject(sim: &mut ScenarioSim, injection: Injection) {
    match injection {
        Injection::Disrupt(disruption) => apply_disruption(sim, disruption),
        Injection::Restore { cut, revive } => {
            if let Some(node) = revive {
                sim.set_up(node);
                note_liveness(sim, node);
            }
            let net = sim.medium_mut();
            for (a, b) in cut {
                net.restore_link(a, b);
            }
        }
        Injection::RestoreQuality(a, b) => sim.medium_mut().restore_link_quality(a, b),
        Injection::RestoreLink(a, b) => sim.medium_mut().restore_link(a, b),
    }
}

/// Writes device `node`'s `UP` input from the kernel's liveness table, right
/// after a crash or a revive: crashing a down node or reviving an up one
/// changes nothing, so the row holds what the kernel did, not what was
/// asked. An edge or the cloud has no row.
fn note_liveness(sim: &mut ScenarioSim, node: ProcessId) {
    if let Some(Node::Device(dev)) = sim.node(node) {
        let (slot, up) = (dev.slot, sim.is_up(node));
        sim.shared_mut().set_up(slot, up);
    }
}

/// Schedules `heal`, `after` from now, when the disruption heals at all.
fn heal_after(sim: &mut ScenarioSim, after: Option<SimDuration>, heal: Injection) {
    if let Some(delay) = after {
        let at = sim.now() + delay;
        sim.inject_at(at, heal);
    }
}

/// Applies one disruption. A disruption aimed at a node of the wrong kind
/// (a component fault at an edge, a domain transfer to a device) does
/// nothing.
fn apply_disruption(sim: &mut ScenarioSim, disruption: Disruption) {
    match disruption {
        Disruption::NodeCrash {
            node,
            recover_after,
        } => {
            sim.set_down(node);
            note_liveness(sim, node);
            // Dead hardware neither hosts software nor relays traffic.
            let cut = sim.medium_mut().isolate(node);
            let revive = Some(node);
            heal_after(sim, recover_after, Injection::Restore { cut, revive });
        }
        Disruption::ComponentFault { node, .. } => {
            if let Some(Node::Device(dev)) = sim.node_mut(node) {
                dev.fail_component();
                let slot = dev.slot;
                sim.shared_mut().set_serving(slot, false);
            }
        }
        Disruption::LinkDegradation {
            a,
            b,
            factor,
            heal_after: after,
        } => {
            sim.medium_mut().degrade_link(a, b, factor);
            heal_after(sim, after, Injection::RestoreQuality(a, b));
        }
        Disruption::LinkCut {
            a,
            b,
            heal_after: after,
        } => {
            sim.medium_mut().cut_link(a, b);
            heal_after(sim, after, Injection::RestoreLink(a, b));
        }
        Disruption::CloudOutage {
            cloud,
            heal_after: after,
        } => {
            let cut = sim.medium_mut().isolate(cloud);
            heal_after(sim, after, Injection::Restore { cut, revive: None });
        }
        Disruption::Partition {
            groups,
            heal_after: after,
        } => {
            let cut = sim.medium_mut().partition(&groups);
            heal_after(sim, after, Injection::Restore { cut, revive: None });
        }
        Disruption::DomainTransfer { entity, to } => {
            let node = ProcessId(entity as usize);
            if let Some(Node::Edge(edge)) = sim.node_mut(node) {
                edge.transfer_domain(to);
            }
        }
        Disruption::Mobility { device, new_parent } => {
            sim.medium_mut()
                .reattach(device, new_parent, presets::device_edge());
            if let Some(Node::Device(dev)) = sim.node_mut(device) {
                dev.rehome(new_parent);
            }
        }
    }
}
