//! Topology builders for the recurring IoT deployment shapes.
//!
//! The paper's landscape (Figure 1) is a three-tier hierarchy: constrained
//! devices attached to edge components, edges meshed with each other and
//! up-linked to the cloud. [`Hierarchy::build`] constructs exactly that;
//! [`line`] and [`ring`] cover the shapes protocol tests want.
//!
//! riot-lint: allow-file(P1, reason = "topology builders index node vectors they allocate in the same function; lengths are fixed by the spec arguments")

use crate::latency::LatencyModel;
use crate::network::{Link, Network, NodeKind};
use riot_sim::{ProcessId, SimDuration};

/// Link presets matching common IoT media.
pub mod presets {
    use super::*;

    /// Device ↔ edge: a local wireless hop — a few jittery milliseconds with
    /// light loss.
    pub fn device_edge() -> Link {
        Link {
            latency: LatencyModel::uniform_ms(2, 8),
            loss: 0.005,
        }
    }

    /// Edge ↔ cloud: a wide-area link — tens of milliseconds, mild jitter,
    /// occasional congestion spikes.
    pub fn edge_cloud() -> Link {
        Link {
            latency: LatencyModel::Spiky {
                base: SimDuration::from_millis(40),
                spike_prob: 0.02,
                spike_factor: 5.0,
            },
            loss: 0.002,
        }
    }

    /// Edge ↔ edge: a metropolitan link between gateways.
    pub fn edge_edge() -> Link {
        Link {
            latency: LatencyModel::uniform_ms(5, 15),
            loss: 0.002,
        }
    }

    /// A perfect 1 ms LAN link, for tests.
    pub fn lan() -> Link {
        Link::lossless(LatencyModel::fixed_ms(1))
    }
}

/// Parameters for the canonical cloud–edge–device hierarchy.
#[derive(Debug, Clone)]
pub struct HierarchySpec {
    /// Number of edge components.
    pub edges: usize,
    /// Devices attached to each edge.
    pub devices_per_edge: usize,
    /// Device-to-edge link.
    pub device_edge: Link,
    /// Edge-to-cloud link.
    pub edge_cloud: Link,
    /// Edge-to-edge mesh link, `None` for no inter-edge links (pure
    /// vertical, ML1/ML2-style infrastructure).
    pub edge_mesh: Option<Link>,
}

impl Default for HierarchySpec {
    fn default() -> Self {
        HierarchySpec {
            edges: 4,
            devices_per_edge: 8,
            device_edge: presets::device_edge(),
            edge_cloud: presets::edge_cloud(),
            edge_mesh: Some(presets::edge_edge()),
        }
    }
}

/// The node roles of a built hierarchy, in spawn order:
/// cloud first, then all edges, then devices grouped by edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    /// The single cloud node.
    pub cloud: ProcessId,
    /// Edge nodes, in order.
    pub edges: Vec<ProcessId>,
    /// `devices[e]` are the devices attached to `edges[e]`.
    pub devices: Vec<Vec<ProcessId>>,
}

impl Hierarchy {
    /// Builds the hierarchy into a fresh [`Network`].
    ///
    /// Node-id order (and therefore required process spawn order) is:
    /// cloud, edges `0..e`, then devices edge-by-edge.
    pub fn build(spec: &HierarchySpec) -> (Network, Hierarchy) {
        let mut net = Network::new();
        let cloud = net.add_node(NodeKind::Cloud);
        let edges: Vec<ProcessId> = (0..spec.edges)
            .map(|_| net.add_node(NodeKind::Edge))
            .collect();
        let mut devices = Vec::with_capacity(spec.edges);
        for &e in &edges {
            let devs: Vec<ProcessId> = (0..spec.devices_per_edge)
                .map(|_| net.add_node(NodeKind::Device))
                .collect();
            devices.push(devs);
            net.add_new_link(e, cloud, spec.edge_cloud);
        }
        // Every pair below is linked once, so no add looks for a link to
        // replace: that walk over two edges' adjacency lists cost O(devices
        // per edge) for each mesh link.
        for (ei, devs) in devices.iter().enumerate() {
            for &d in devs {
                net.add_new_link(d, edges[ei], spec.device_edge);
            }
        }
        if let Some(mesh) = spec.edge_mesh {
            for i in 0..edges.len() {
                for j in (i + 1)..edges.len() {
                    net.add_new_link(edges[i], edges[j], mesh);
                }
            }
        }
        (
            net,
            Hierarchy {
                cloud,
                edges,
                devices,
            },
        )
    }

    /// All device ids, flattened in spawn order.
    pub fn all_devices(&self) -> Vec<ProcessId> {
        self.devices.iter().flatten().copied().collect()
    }

    /// The edge a device is (initially) attached to, if it is a device of
    /// this hierarchy.
    pub fn edge_of(&self, dev: ProcessId) -> Option<ProcessId> {
        self.devices
            .iter()
            .position(|grp| grp.contains(&dev))
            .map(|i| self.edges[i])
    }

    /// Total node count (cloud + edges + devices).
    pub fn node_count(&self) -> usize {
        1 + self.edges.len() + self.devices.iter().map(Vec::len).sum::<usize>()
    }
}

/// Builds a line of `n` nodes of one kind.
pub fn line(kind: NodeKind, n: usize, link: Link) -> (Network, Vec<ProcessId>) {
    let mut net = Network::new();
    let nodes: Vec<ProcessId> = (0..n).map(|_| net.add_node(kind)).collect();
    for w in nodes.windows(2) {
        net.add_link(w[0], w[1], link);
    }
    (net, nodes)
}

/// Builds a ring of `n` nodes of one kind.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(kind: NodeKind, n: usize, link: Link) -> (Network, Vec<ProcessId>) {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let (mut net, nodes) = line(kind, n, link);
    net.add_link(nodes[n - 1], nodes[0], link);
    (net, nodes)
}

/// Builds a complete graph of `n` nodes of one kind.
#[cfg(test)]
pub(crate) fn full_mesh(kind: NodeKind, n: usize, link: Link) -> (Network, Vec<ProcessId>) {
    let mut net = Network::new();
    let nodes: Vec<ProcessId> = (0..n).map(|_| net.add_node(kind)).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            net.add_link(nodes[i], nodes[j], link);
        }
    }
    (net, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_shape() {
        let spec = HierarchySpec {
            edges: 3,
            devices_per_edge: 4,
            ..HierarchySpec::default()
        };
        let (mut net, h) = Hierarchy::build(&spec);
        assert_eq!(h.node_count(), 1 + 3 + 12);
        assert_eq!(net.node_count(), h.node_count());
        assert_eq!(h.cloud, ProcessId(0));
        assert_eq!(h.edges.len(), 3);
        assert_eq!(h.all_devices().len(), 12);
        // Every device reaches the cloud through its edge.
        for &d in &h.all_devices() {
            assert!(net.path(d, h.cloud).is_some());
        }
        assert_eq!(h.edge_of(h.devices[1][0]), Some(h.edges[1]));
        assert_eq!(h.edge_of(h.cloud), None);
    }

    /// The build's adds skip the search for a link to replace, and leave
    /// the network exactly as `add_link` would: ids, adjacency order,
    /// change stamps and counters.
    #[test]
    fn hierarchy_build_equals_the_same_adds_through_add_link() {
        for (edges, devices_per_edge, mesh) in [(1, 3, true), (3, 4, true), (4, 2, false)] {
            let spec = HierarchySpec {
                edges,
                devices_per_edge,
                edge_mesh: mesh.then(presets::edge_edge),
                ..HierarchySpec::default()
            };
            let (built, h) = Hierarchy::build(&spec);
            let mut net = Network::new();
            let cloud = net.add_node(NodeKind::Cloud);
            let es: Vec<ProcessId> = (0..edges).map(|_| net.add_node(NodeKind::Edge)).collect();
            for &e in &es {
                for _ in 0..devices_per_edge {
                    net.add_node(NodeKind::Device);
                }
                net.add_link(e, cloud, spec.edge_cloud);
            }
            for (e, devs) in h.devices.iter().enumerate() {
                for &d in devs {
                    net.add_link(d, es[e], spec.device_edge);
                }
            }
            for i in 0..edges {
                for j in (i + 1)..edges {
                    if let Some(mesh) = spec.edge_mesh {
                        net.add_link(es[i], es[j], mesh);
                    }
                }
            }
            assert_eq!(format!("{built:?}"), format!("{net:?}"));
        }
    }

    #[test]
    fn hierarchy_without_mesh_loses_edge_to_edge_on_cloud_cut() {
        let spec = HierarchySpec {
            edges: 2,
            devices_per_edge: 1,
            edge_mesh: None,
            ..HierarchySpec::default()
        };
        let (mut net, h) = Hierarchy::build(&spec);
        // Edges only talk via the cloud; isolating the cloud separates them.
        assert!(net.path(h.edges[0], h.edges[1]).is_some());
        net.isolate(h.cloud);
        assert!(net.path(h.edges[0], h.edges[1]).is_none());
    }

    #[test]
    fn hierarchy_with_mesh_survives_cloud_cut() {
        let spec = HierarchySpec {
            edges: 2,
            devices_per_edge: 1,
            ..HierarchySpec::default()
        };
        let (mut net, h) = Hierarchy::build(&spec);
        net.isolate(h.cloud);
        assert!(
            net.path(h.edges[0], h.edges[1]).is_some(),
            "mesh keeps edges connected"
        );
        assert!(
            net.path(h.devices[0][0], h.devices[1][0]).is_some(),
            "devices reach across edges without the cloud"
        );
    }

    #[test]
    fn line_ring_mesh_shapes() {
        let (mut lnet, lnodes) = line(NodeKind::Edge, 4, presets::lan());
        assert_eq!(lnet.path(lnodes[0], lnodes[3]).unwrap().len(), 4);

        let (mut rnet, rnodes) = ring(NodeKind::Edge, 4, presets::lan());
        // Ring offers a 2-hop path both ways round.
        assert_eq!(rnet.path(rnodes[0], rnodes[3]).unwrap().len(), 2);

        let (mut mnet, mnodes) = full_mesh(NodeKind::Edge, 4, presets::lan());
        assert_eq!(mnet.path(mnodes[0], mnodes[3]).unwrap().len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_ring_panics() {
        let _ = ring(NodeKind::Edge, 2, presets::lan());
    }
}
