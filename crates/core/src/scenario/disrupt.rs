//! Disruption injection: what one [`Disruption`] of the schedule does to the
//! running simulation, inside the injection `Scenario::build` scheduled for
//! it.

use crate::device::DeviceProcess;
use crate::edge::EdgeProcess;
use crate::msg::Msg;
use riot_model::Disruption;
use riot_net::{presets, Network};
use riot_sim::{ProcessId, Sim, SimDuration};

/// The network under a scenario's simulation.
fn network(sim: &mut Sim<Msg>) -> &mut Network {
    let net = sim.medium_mut::<Network>();
    // riot-lint: allow(P1, reason = "Scenario::build hands the kernel a Network and nothing replaces a medium; this runs only inside injections that build scheduled")
    net.expect("a scenario's medium is the Network it was built with")
}

/// Schedules, `delay` from now, the one injection that undoes an outage: the
/// crashed node `revive`, if any, comes back up, then every link in `cut`
/// is restored.
fn restore_after(
    sim: &mut Sim<Msg>,
    delay: SimDuration,
    cut: Vec<(ProcessId, ProcessId)>,
    revive: Option<ProcessId>,
) {
    let at = sim.now() + delay;
    sim.schedule_injection(at, move |sim| {
        if let Some(node) = revive {
            sim.set_up(node);
        }
        let net = network(sim);
        for (a, b) in cut {
            net.restore_link(a, b);
        }
    });
}

/// Applies one disruption inside an injection.
pub(super) fn apply_disruption(sim: &mut Sim<Msg>, disruption: Disruption) {
    match disruption {
        Disruption::NodeCrash {
            node,
            recover_after,
        } => {
            sim.set_down(node);
            // Dead hardware neither hosts software nor relays traffic.
            let cut = network(sim).isolate(node);
            if let Some(delay) = recover_after {
                restore_after(sim, delay, cut, Some(node));
            }
        }
        Disruption::ComponentFault { node, .. } => {
            if let Some(dev) = sim.process_mut::<DeviceProcess>(node) {
                dev.fail_component();
            }
        }
        Disruption::LinkDegradation {
            a,
            b,
            factor,
            heal_after,
        } => {
            network(sim).degrade_link(a, b, factor);
            if let Some(delay) = heal_after {
                let at = sim.now() + delay;
                sim.schedule_injection(at, move |sim| network(sim).restore_link_quality(a, b));
            }
        }
        Disruption::LinkCut { a, b, heal_after } => {
            network(sim).cut_link(a, b);
            if let Some(delay) = heal_after {
                let at = sim.now() + delay;
                sim.schedule_injection(at, move |sim| network(sim).restore_link(a, b));
            }
        }
        Disruption::CloudOutage { cloud, heal_after } => {
            let cut = network(sim).isolate(cloud);
            if let Some(delay) = heal_after {
                restore_after(sim, delay, cut, None);
            }
        }
        Disruption::Partition { groups, heal_after } => {
            let cut = network(sim).partition(&groups);
            if let Some(delay) = heal_after {
                restore_after(sim, delay, cut, None);
            }
        }
        Disruption::DomainTransfer { entity, to } => {
            let node = ProcessId(entity as usize);
            if let Some(edge) = sim.process_mut::<EdgeProcess>(node) {
                edge.transfer_domain(to);
            }
        }
        Disruption::Mobility { device, new_parent } => {
            network(sim).reattach(device, new_parent, presets::device_edge());
            if let Some(dev) = sim.process_mut::<DeviceProcess>(device) {
                dev.rehome(new_parent);
            }
        }
    }
}
