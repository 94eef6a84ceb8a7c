//! The scenario's closed world: the kernel runs over riot-core's own node
//! enum, the `Network` held by value, the disruption injections of
//! `disrupt` and the node-state slab, with no downcast anywhere. The `Sim`
//! holds the slab beside the medium and lends it to the device each
//! callback runs on; edges and the cloud are not lent it.

use super::disrupt::{self, Injection};
use crate::cloud::CloudProcess;
use crate::device::DeviceProcess;
use crate::edge::EdgeProcess;
use crate::msg::Msg;
use crate::state::NodeSlab;
use riot_net::Network;
use riot_sim::{Ctx, Medium, Process, ProcessId, Sim, World};

/// One entry of the scenario's process table. A device is held inline —
/// 10⁵ of them are the table — and the two large, few nodes are boxed so
/// that they do not set every entry's size.
pub(crate) enum Node {
    Device(DeviceProcess),
    Edge(Box<EdgeProcess>),
    Cloud(Box<CloudProcess>),
}

/// The scenario's [`World`]: [`Node`]s, the `Network`, [`Injection`]s and
/// the [`NodeSlab`].
pub(crate) enum ScenarioWorld {}

/// The kernel over the scenario's closed world.
pub(crate) type ScenarioSim = Sim<Msg, ScenarioWorld>;

impl World<Msg> for ScenarioWorld {
    type Node = Node;
    type Medium = Network;
    type Injection = Injection;
    type Shared = NodeSlab;

    fn inject(sim: &mut ScenarioSim, injection: Injection) {
        disrupt::inject(sim, injection);
    }

    fn medium(net: &mut Network) -> &mut dyn Medium<Msg> {
        net
    }

    fn on_start(node: &mut Node, _: &mut NodeSlab, ctx: &mut Ctx<'_, Msg>) {
        match node {
            Node::Device(d) => d.on_start(ctx),
            Node::Edge(e) => e.on_start(ctx),
            Node::Cloud(c) => c.on_start(ctx),
        }
    }

    fn on_message(
        node: &mut Node,
        slab: &mut NodeSlab,
        ctx: &mut Ctx<'_, Msg>,
        from: ProcessId,
        msg: Msg,
    ) {
        match node {
            Node::Device(d) => d.on_message(slab, ctx, from, msg),
            Node::Edge(e) => e.on_message(ctx, from, msg),
            Node::Cloud(c) => c.on_message(ctx, from, msg),
        }
    }

    fn on_timer(node: &mut Node, slab: &mut NodeSlab, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        match node {
            Node::Device(d) => d.on_timer(slab, ctx, tag),
            Node::Edge(e) => e.on_timer(ctx, tag),
            Node::Cloud(c) => c.on_timer(ctx, tag),
        }
    }

    fn prefetch(node: &Node, slab: &NodeSlab) {
        match node {
            Node::Device(d) => d.prefetch(slab),
            Node::Edge(e) => e.prefetch(),
            Node::Cloud(c) => c.prefetch(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    /// The table's entry is a device and at most a tag word: 10⁵ devices
    /// cost no more inline than the pointer and box they replaced. The tag
    /// lives in a device field's spare values, so an entry is one line.
    #[test]
    fn a_node_is_a_device_and_at_most_a_word() {
        assert!(size_of::<Node>() <= size_of::<DeviceProcess>() + 8);
        assert!(size_of::<Node>() <= 64);
        // The edge and the cloud stay behind their boxes: either inline
        // would make an entry at least its own size.
        assert!(size_of::<EdgeProcess>() > size_of::<Node>());
        assert!(size_of::<CloudProcess>() > size_of::<Node>());
    }
}
