//! The network medium: topology, routing, loss and partitions.
//!
//! [`Network`] implements [`riot_sim::Medium`]. It models the landscape of
//! Figure 1 in the paper: device, edge and cloud nodes joined by links with
//! heterogeneous latency and loss. Messages follow the minimum-expected-
//! latency path; a message is dropped when any link on its path is cut
//! (partition) or probabilistically fails (loss).
//!
//! **Identity convention.** A network node is identified by the
//! [`ProcessId`] of the simulated process that inhabits it; build the
//! topology and spawn processes in the same order so the indices line up
//! (the `riot-core` scenario builder enforces this).
//!
//! riot-lint: allow-file(P1, reason = "dense ProcessId-indexed adjacency/dist vectors and the link table are indexed under the identity convention above; every id is minted by add_node in this module")

use crate::latency::LatencyModel;
use resolve::Search;
use riot_sim::{Delivery, Medium, ProcessId, SimDuration, SimRng, SimTime};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

mod resolve;

/// The role a node plays in the IoT landscape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A constrained end device: sensor, actuator, wearable.
    Device,
    /// An edge component: gateway, cloudlet, micro-cloud.
    Edge,
    /// A remote cloud facility.
    Cloud,
}

/// Static facts about a topology node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// The node's role.
    pub kind: NodeKind,
    /// Human-readable label used in reports.
    pub label: String,
}

/// Parameters of one bidirectional link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Per-message latency distribution.
    pub latency: LatencyModel,
    /// Independent per-message loss probability in `[0, 1]`.
    pub loss: f64,
}

impl Link {
    /// A lossless link with the given latency model.
    pub fn lossless(latency: LatencyModel) -> Self {
        Link { latency, loss: 0.0 }
    }
}

fn key(a: ProcessId, b: ProcessId) -> (usize, usize) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// One hop of a fully resolved route, flattened for the per-message hot
/// path: the link's loss and latency model plus its degradation factor
/// (`None` when the link is not in the degraded table, mirroring the
/// conditional `mul_f64` of the uncached path exactly — applying a 1.0
/// factor is not a bit-exact identity through `f64` seconds).
#[derive(Debug, Clone, Copy)]
struct CachedHop {
    loss: f64,
    latency: LatencyModel,
    factor: Option<f64>,
}

/// One sender's resolved routes, sorted by destination node index; `None`
/// hops record a partition.
type RouteTable = Vec<(u32, Option<Box<[CachedHop]>>)>;

/// A simulated IoT network: nodes, links, routing, partitions and churn.
///
/// # Examples
///
/// ```
/// use riot_net::{LatencyModel, Link, Network, NodeKind};
/// use riot_sim::{Delivery, Medium, ProcessId, SimRng, SimTime};
///
/// let mut net = Network::new();
/// let cloud = net.add_node(NodeKind::Cloud, "cloud");
/// let edge = net.add_node(NodeKind::Edge, "edge-0");
/// net.add_link(cloud, edge, Link::lossless(LatencyModel::fixed_ms(50)));
///
/// let mut rng = SimRng::seed_from(0);
/// let d = Medium::<u32>::route(&mut net, SimTime::ZERO, cloud, edge, &0, &mut rng);
/// assert!(matches!(d, Delivery::After(_)));
///
/// net.cut_link(cloud, edge);
/// let d = Medium::<u32>::route(&mut net, SimTime::ZERO, cloud, edge, &0, &mut rng);
/// assert_eq!(d, Delivery::Drop("partition"));
/// ```
#[derive(Debug)]
pub struct Network {
    nodes: Vec<NodeInfo>,
    links: BTreeMap<(usize, usize), Link>,
    adjacency: Vec<Vec<usize>>,
    cut: BTreeSet<(usize, usize)>,
    /// Latency multipliers for degraded links (congestion, interference).
    degraded: BTreeMap<(usize, usize), f64>,
    external_latency: SimDuration,
    path_cache: BTreeMap<(usize, usize), Option<Vec<usize>>>,
    /// Flattened per-hop route data: `routes[from]` is sorted by
    /// destination, so the per-message lookup is one index plus a binary
    /// search over that sender's (few) known destinations. `None` records a
    /// partition. Rebuilt lazily from `path_indices` + `links` + `degraded`;
    /// cleared by [`Network::invalidate`] and by degradation changes (which
    /// leave `path_cache` alone — degradation is invisible to routing).
    routes: Vec<RouteTable>,
    /// Whether any `routes` list has an entry; lets a clear of an already
    /// clean cache (a heal restoring its links one by one) skip the walk.
    routes_cached: bool,
    /// Live shortest-path searches by root, dropped with `path_cache`.
    /// Only edge and cloud roots are kept, so this is O(hubs × nodes).
    searches: BTreeMap<usize, Search>,
    /// How often `clear_routes` walked the route lists.
    #[cfg(test)]
    route_walks: usize,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network {
            nodes: Vec::new(),
            links: BTreeMap::new(),
            adjacency: Vec::new(),
            cut: BTreeSet::new(),
            degraded: BTreeMap::new(),
            external_latency: SimDuration::ZERO,
            path_cache: BTreeMap::new(),
            routes: Vec::new(),
            routes_cached: false,
            searches: BTreeMap::new(),
            #[cfg(test)]
            route_walks: 0,
        }
    }

    /// Adds a node and returns its id. Ids are assigned densely in call
    /// order and must match the order processes are spawned in the sim.
    pub fn add_node(&mut self, kind: NodeKind, label: impl Into<String>) -> ProcessId {
        let id = ProcessId(self.nodes.len());
        self.nodes.push(NodeInfo {
            kind,
            label: label.into(),
        });
        self.adjacency.push(Vec::new());
        // Searches hold per-node vectors sized when they started.
        self.searches.clear();
        id
    }

    /// Adds (or replaces) a bidirectional link.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is unknown or `a == b`.
    pub fn add_link(&mut self, a: ProcessId, b: ProcessId, link: Link) {
        assert!(a != b, "self-links are not allowed");
        assert!(
            a.0 < self.nodes.len() && b.0 < self.nodes.len(),
            "unknown endpoint"
        );
        let k = key(a, b);
        if self.links.insert(k, link).is_none() {
            self.adjacency[a.0].push(b.0);
            self.adjacency[b.0].push(a.0);
        }
        self.invalidate();
    }

    /// Removes a link entirely (distinct from cutting, which is reversible
    /// via [`Network::heal_all`]).
    pub fn remove_link(&mut self, a: ProcessId, b: ProcessId) {
        let k = key(a, b);
        if self.links.remove(&k).is_some() {
            self.adjacency[a.0].retain(|&n| n != b.0);
            self.adjacency[b.0].retain(|&n| n != a.0);
        }
        self.cut.remove(&k);
        self.invalidate();
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Static facts about a node, if it exists.
    pub fn node(&self, id: ProcessId) -> Option<&NodeInfo> {
        self.nodes.get(id.0)
    }

    /// Iterates over `(id, info)` for all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (ProcessId, &NodeInfo)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (ProcessId(i), n))
    }

    /// All node ids of a given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<ProcessId> {
        self.nodes()
            .filter(|(_, n)| n.kind == kind)
            .map(|(id, _)| id)
            .collect()
    }

    /// Cuts one link (both directions). Cut links drop every message until
    /// healed.
    pub fn cut_link(&mut self, a: ProcessId, b: ProcessId) {
        if self.links.contains_key(&key(a, b)) {
            self.cut.insert(key(a, b));
            self.invalidate();
        }
    }

    /// Restores one previously cut link.
    pub fn restore_link(&mut self, a: ProcessId, b: ProcessId) {
        if self.cut.remove(&key(a, b)) {
            self.invalidate();
        }
    }

    /// Cuts every link adjacent to `n`, isolating it. Returns the links
    /// that were newly cut, so a healer can restore exactly them.
    pub fn isolate(&mut self, n: ProcessId) -> Vec<(ProcessId, ProcessId)> {
        let neighbors: Vec<usize> = self.adjacency[n.0].clone();
        let mut newly_cut = Vec::new();
        for m in neighbors {
            if self.cut.insert(key(n, ProcessId(m))) {
                newly_cut.push((n, ProcessId(m)));
            }
        }
        self.invalidate();
        newly_cut
    }

    /// Restores every link adjacent to `n`.
    pub fn rejoin(&mut self, n: ProcessId) {
        let neighbors: Vec<usize> = self.adjacency[n.0].clone();
        for m in neighbors {
            self.cut.remove(&key(n, ProcessId(m)));
        }
        self.invalidate();
    }

    /// Partitions the network into the given groups: every link whose
    /// endpoints fall in different groups is cut. Nodes not mentioned keep
    /// all their links. Returns the links that were newly cut, so a healer
    /// can restore exactly them.
    pub fn partition(&mut self, groups: &[Vec<ProcessId>]) -> Vec<(ProcessId, ProcessId)> {
        let mut group_of: BTreeMap<usize, usize> = BTreeMap::new();
        for (gi, members) in groups.iter().enumerate() {
            for m in members {
                group_of.insert(m.0, gi);
            }
        }
        let keys: Vec<(usize, usize)> = self.links.keys().copied().collect();
        let mut newly_cut = Vec::new();
        for (a, b) in keys {
            if let (Some(ga), Some(gb)) = (group_of.get(&a), group_of.get(&b)) {
                if ga != gb && self.cut.insert((a, b)) {
                    newly_cut.push((ProcessId(a), ProcessId(b)));
                }
            }
        }
        self.invalidate();
        newly_cut
    }

    /// Heals every cut link.
    pub fn heal_all(&mut self) {
        self.cut.clear();
        self.invalidate();
    }

    /// Degrades a link: every message over it takes `factor` times its
    /// sampled latency (congestion or radio interference, §II's adverse
    /// environments). Factors below 1 are clamped to 1. Routing weights
    /// are unchanged — congestion is invisible to the (static) routing
    /// tables, as in real IP networks.
    pub fn degrade_link(&mut self, a: ProcessId, b: ProcessId, factor: f64) {
        if self.links.contains_key(&key(a, b)) {
            self.degraded.insert(key(a, b), factor.max(1.0));
            // Routing is unaffected, but cached hop factors are now stale.
            self.clear_routes();
        }
    }

    /// Removes any degradation from a link.
    pub fn restore_link_quality(&mut self, a: ProcessId, b: ProcessId) {
        if self.degraded.remove(&key(a, b)).is_some() {
            self.clear_routes();
        }
    }

    /// The current degradation factor of a link (1.0 when healthy).
    pub fn degradation(&self, a: ProcessId, b: ProcessId) -> f64 {
        self.degraded.get(&key(a, b)).copied().unwrap_or(1.0)
    }

    /// `true` if a usable (existing and not cut) link joins `a` and `b`.
    pub fn link_usable(&self, a: ProcessId, b: ProcessId) -> bool {
        let k = key(a, b);
        self.links.contains_key(&k) && !self.cut.contains(&k)
    }

    /// Moves a device to a new parent: all current links of `dev` are
    /// removed and a single new link to `parent` is added — the mobility
    /// primitive (a phone roaming between gateways, a vehicle between road-
    /// side units).
    pub fn reattach(&mut self, dev: ProcessId, parent: ProcessId, link: Link) {
        let neighbors: Vec<usize> = self.adjacency[dev.0].clone();
        for m in neighbors {
            self.remove_link(dev, ProcessId(m));
        }
        self.add_link(dev, parent, link);
    }

    /// The current minimum-expected-latency path between two nodes, if the
    /// network (minus cut links) connects them. The path includes both
    /// endpoints.
    pub fn path(&mut self, from: ProcessId, to: ProcessId) -> Option<Vec<ProcessId>> {
        self.path_indices(from.0, to.0)
            .map(|p| p.iter().map(|&i| ProcessId(i)).collect())
    }

    /// `true` if `from` can currently reach `to`.
    pub fn reachable(&mut self, from: ProcessId, to: ProcessId) -> bool {
        if from == to {
            return true;
        }
        self.path_indices(from.0, to.0).is_some()
    }

    fn invalidate(&mut self) {
        self.path_cache.clear();
        self.searches.clear();
        self.clear_routes();
    }

    /// Empties every per-sender route list, keeping their allocations.
    fn clear_routes(&mut self) {
        if !self.routes_cached {
            return;
        }
        self.routes_cached = false;
        #[cfg(test)]
        {
            self.route_walks += 1;
        }
        for list in &mut self.routes {
            list.clear();
        }
    }

    /// Resolves and flattens the `(from, to)` route into per-hop link data,
    /// caching the result in `from`'s route list. `None` records a
    /// partition.
    fn resolve_hops(&mut self, from: usize, to: usize) -> Option<&[CachedHop]> {
        if self.routes.len() < self.nodes.len() {
            self.routes.resize_with(self.nodes.len(), Vec::new);
        }
        let pos = match self.routes[from].binary_search_by_key(&(to as u32), |e| e.0) {
            Ok(i) => i,
            Err(i) => {
                let hops = self.cold_hops(from, to);
                self.routes[from].insert(i, (to as u32, hops));
                self.routes_cached = true;
                i
            }
        };
        self.routes[from][pos].1.as_deref()
    }
}

impl Default for Network {
    fn default() -> Self {
        Network::new()
    }
}

impl<M> Medium<M> for Network {
    fn route(
        &mut self,
        _now: SimTime,
        from: ProcessId,
        to: ProcessId,
        _msg: &M,
        rng: &mut SimRng,
    ) -> Delivery {
        // Endpoints outside the topology (external senders, observer
        // processes) communicate out-of-band with a fixed latency.
        if from.0 >= self.nodes.len() || to.0 >= self.nodes.len() {
            return Delivery::After(self.external_latency);
        }
        if from == to {
            return Delivery::After(SimDuration::ZERO);
        }
        let Some(hops) = self.resolve_hops(from.0, to.0) else {
            return Delivery::Drop("partition");
        };
        // RNG discipline: per hop, one `chance` draw then one latency
        // sample, aborting on the first loss — the exact draw sequence of
        // the uncached walk, so cached routing is bit-identical.
        let mut total = SimDuration::ZERO;
        for hop in hops {
            if rng.chance(hop.loss) {
                return Delivery::Drop("loss");
            }
            let mut d = hop.latency.sample(rng);
            if let Some(factor) = hop.factor {
                d = d.mul_f64(factor);
            }
            total += d;
        }
        Delivery::After(total)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Network, ProcessId, ProcessId, ProcessId) {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Device, "a");
        let b = net.add_node(NodeKind::Edge, "b");
        let c = net.add_node(NodeKind::Cloud, "c");
        net.add_link(a, b, Link::lossless(LatencyModel::fixed_ms(1)));
        net.add_link(b, c, Link::lossless(LatencyModel::fixed_ms(10)));
        (net, a, b, c)
    }

    #[test]
    fn routes_along_multi_hop_path() {
        let (mut net, a, b, c) = line3();
        assert_eq!(net.path(a, c).unwrap(), vec![a, b, c]);
        let mut rng = SimRng::seed_from(0);
        match Medium::<u32>::route(&mut net, SimTime::ZERO, a, c, &0, &mut rng) {
            Delivery::After(d) => assert_eq!(d, SimDuration::from_millis(11)),
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn picks_cheapest_path() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Device, "a");
        let b = net.add_node(NodeKind::Edge, "b");
        let c = net.add_node(NodeKind::Cloud, "c");
        net.add_link(a, c, Link::lossless(LatencyModel::fixed_ms(100)));
        net.add_link(a, b, Link::lossless(LatencyModel::fixed_ms(5)));
        net.add_link(b, c, Link::lossless(LatencyModel::fixed_ms(5)));
        assert_eq!(
            net.path(a, c).unwrap(),
            vec![a, b, c],
            "10ms via edge beats 100ms direct"
        );
        net.cut_link(a, b);
        assert_eq!(
            net.path(a, c).unwrap(),
            vec![a, c],
            "falls back to direct after cut"
        );
    }

    #[test]
    fn partition_drops_and_heal_restores() {
        let (mut net, a, b, c) = line3();
        net.partition(&[vec![a, b], vec![c]]);
        let mut rng = SimRng::seed_from(0);
        assert_eq!(
            Medium::<u32>::route(&mut net, SimTime::ZERO, a, c, &0, &mut rng),
            Delivery::Drop("partition")
        );
        assert!(net.reachable(a, b));
        assert!(!net.reachable(a, c));
        net.heal_all();
        assert!(net.reachable(a, c));
    }

    #[test]
    fn isolate_and_rejoin() {
        let (mut net, a, b, c) = line3();
        net.isolate(b);
        assert!(!net.reachable(a, b));
        assert!(!net.reachable(a, c));
        net.rejoin(b);
        assert!(net.reachable(a, c));
    }

    #[test]
    fn loss_is_per_link_and_calibrated() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Device, "a");
        let b = net.add_node(NodeKind::Edge, "b");
        net.add_link(
            a,
            b,
            Link {
                latency: LatencyModel::fixed_ms(1),
                loss: 0.2,
            },
        );
        let mut rng = SimRng::seed_from(7);
        let drops = (0..10_000)
            .filter(|_| {
                matches!(
                    Medium::<u32>::route(&mut net, SimTime::ZERO, a, b, &0, &mut rng),
                    Delivery::Drop("loss")
                )
            })
            .count();
        assert!((1_700..2_300).contains(&drops), "drops {drops}");
    }

    #[test]
    fn reattach_moves_device() {
        let mut net = Network::new();
        let e1 = net.add_node(NodeKind::Edge, "e1");
        let e2 = net.add_node(NodeKind::Edge, "e2");
        let d = net.add_node(NodeKind::Device, "d");
        net.add_link(e1, e2, Link::lossless(LatencyModel::fixed_ms(5)));
        net.add_link(d, e1, Link::lossless(LatencyModel::fixed_ms(1)));
        assert_eq!(net.path(d, e2).unwrap(), vec![d, e1, e2]);
        net.reattach(d, e2, Link::lossless(LatencyModel::fixed_ms(1)));
        assert_eq!(net.path(d, e2).unwrap(), vec![d, e2]);
        assert_eq!(net.path(d, e1).unwrap(), vec![d, e2, e1]);
    }

    #[test]
    fn external_endpoints_use_external_latency() {
        let (mut net, a, _, _) = line3();
        let mut rng = SimRng::seed_from(0);
        let ext = ProcessId(usize::MAX);
        assert_eq!(
            Medium::<u32>::route(&mut net, SimTime::ZERO, ext, a, &0, &mut rng),
            Delivery::After(SimDuration::ZERO)
        );
    }

    #[test]
    fn self_route_is_instant() {
        let (mut net, a, _, _) = line3();
        let mut rng = SimRng::seed_from(0);
        assert_eq!(
            Medium::<u32>::route(&mut net, SimTime::ZERO, a, a, &0, &mut rng),
            Delivery::After(SimDuration::ZERO)
        );
    }

    #[test]
    fn nodes_of_kind_filters() {
        let (net, a, b, c) = line3();
        assert_eq!(net.nodes_of_kind(NodeKind::Device), vec![a]);
        assert_eq!(net.nodes_of_kind(NodeKind::Edge), vec![b]);
        assert_eq!(net.nodes_of_kind(NodeKind::Cloud), vec![c]);
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.node(a).unwrap().label, "a");
    }

    #[test]
    fn remove_link_is_permanent_across_heal() {
        let (mut net, a, b, c) = line3();
        net.remove_link(b, c);
        net.heal_all();
        assert!(!net.reachable(a, c));
        assert!(net.reachable(a, b));
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Device, "a");
        net.add_link(a, a, Link::lossless(LatencyModel::fixed_ms(1)));
    }

    #[test]
    fn degradation_multiplies_latency_without_rerouting() {
        let (mut net, a, b, c) = line3();
        let mut rng = SimRng::seed_from(0);
        net.degrade_link(a, b, 10.0);
        assert_eq!(net.degradation(a, b), 10.0);
        match Medium::<u32>::route(&mut net, SimTime::ZERO, a, c, &0, &mut rng) {
            Delivery::After(d) => assert_eq!(d, SimDuration::from_millis(20), "1ms*10 + 10ms"),
            other => panic!("unexpected {other:?}"),
        }
        // Path unchanged: degradation is invisible to routing.
        assert_eq!(net.path(a, c).unwrap(), vec![a, b, c]);
        net.restore_link_quality(a, b);
        assert_eq!(net.degradation(a, b), 1.0);
        match Medium::<u32>::route(&mut net, SimTime::ZERO, a, c, &0, &mut rng) {
            Delivery::After(d) => assert_eq!(d, SimDuration::from_millis(11)),
            other => panic!("unexpected {other:?}"),
        }
        // Sub-unity factors clamp to 1 (degradation never speeds links up).
        net.degrade_link(a, b, 0.1);
        assert_eq!(net.degradation(a, b), 1.0);
        // Unknown links are ignored.
        net.degrade_link(a, c, 5.0);
        assert_eq!(net.degradation(a, c), 1.0);
    }

    #[test]
    fn link_usable_reflects_cuts() {
        let (mut net, a, b, _) = line3();
        assert!(net.link_usable(a, b));
        net.cut_link(a, b);
        assert!(!net.link_usable(a, b));
        net.restore_link(a, b);
        assert!(net.link_usable(a, b));
    }

    // -- Shared resumable searches (`dijkstra`) against the per-pair oracle.

    use super::resolve::NODES_SETTLED;
    use crate::topology::{full_mesh, ring, Hierarchy, HierarchySpec};

    fn fixed_us(us: u64) -> Link {
        Link::lossless(LatencyModel::Fixed(SimDuration::from_micros(us)))
    }

    /// The fleet `riot_core::Scenario::build` makes: the default hierarchy
    /// plus each device's backup link to the next edge.
    fn fleet(edges: usize, devices_per_edge: usize) -> (Network, Hierarchy) {
        let (mut net, h) = Hierarchy::build(&HierarchySpec {
            edges,
            devices_per_edge,
            ..HierarchySpec::default()
        });
        let backup = Link {
            latency: LatencyModel::uniform_ms(4, 12),
            loss: 0.005,
        };
        for (e, devs) in h.devices.iter().enumerate() {
            for &d in devs {
                net.add_link(d, h.edges[(e + 1) % edges], backup);
            }
        }
        (net, h)
    }

    fn random_kind(rng: &mut SimRng) -> NodeKind {
        [NodeKind::Device, NodeKind::Edge, NodeKind::Cloud][rng.range_u64(0, 3) as usize]
    }

    /// 4–13 nodes of random kinds on a chain plus random chords; weights all
    /// different, or all equal.
    fn random_graph(rng: &mut SimRng, equal_weights: bool) -> Network {
        let mut net = Network::new();
        let n = rng.range_u64(4, 14) as usize;
        for i in 0..n {
            let kind = random_kind(rng);
            net.add_node(kind, format!("n{i}"));
        }
        let mut weights: Vec<u64> = (0..(n * n) as u64).map(|i| 1_000 + 37 * i).collect();
        rng.shuffle(&mut weights);
        for a in 0..n {
            for b in (a + 1)..n {
                if b == a + 1 || rng.chance(0.3) {
                    let w = if equal_weights {
                        1_000
                    } else {
                        weights[a * n + b]
                    };
                    net.add_link(ProcessId(a), ProcessId(b), fixed_us(w));
                }
            }
        }
        net
    }

    /// A `w` × `h` grid of equal links: the most shortest paths per pair.
    fn grid(rng: &mut SimRng, w: usize, h: usize) -> Network {
        let mut net = Network::new();
        for i in 0..w * h {
            let kind = random_kind(rng);
            net.add_node(kind, format!("g{i}"));
        }
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if x + 1 < w {
                    net.add_link(ProcessId(i), ProcessId(i + 1), fixed_us(1_000));
                }
                if y + 1 < h {
                    net.add_link(ProcessId(i), ProcessId(i + w), fixed_us(1_000));
                }
            }
        }
        net
    }

    fn random_node(net: &Network, rng: &mut SimRng) -> ProcessId {
        ProcessId(rng.range_u64(0, net.node_count() as u64) as usize)
    }

    fn random_link(net: &Network, rng: &mut SimRng) -> Option<(ProcessId, ProcessId)> {
        let keys: Vec<(usize, usize)> = net.links.keys().copied().collect();
        rng.pick(&keys).map(|&(a, b)| (ProcessId(a), ProcessId(b)))
    }

    fn random_topology_change(net: &mut Network, rng: &mut SimRng) {
        match rng.range_u64(0, 8) {
            0 | 1 => {
                if let Some((a, b)) = random_link(net, rng) {
                    net.cut_link(a, b);
                }
            }
            2 => {
                let cut: Vec<(usize, usize)> = net.cut.iter().copied().collect();
                if let Some(&(a, b)) = rng.pick(&cut) {
                    net.restore_link(ProcessId(a), ProcessId(b));
                }
            }
            3 => {
                let n = random_node(net, rng);
                net.isolate(n);
            }
            4 => {
                let (mut left, mut right) = (Vec::new(), Vec::new());
                for i in 0..net.node_count() {
                    match rng.range_u64(0, 3) {
                        0 => left.push(ProcessId(i)),
                        1 => right.push(ProcessId(i)),
                        _ => {}
                    }
                }
                net.partition(&[left, right]);
            }
            5 => {
                let (dev, parent) = (random_node(net, rng), random_node(net, rng));
                if dev != parent {
                    let w = if rng.chance(0.5) { 1_000 } else { 1_500 };
                    net.reattach(dev, parent, fixed_us(w));
                }
            }
            6 => {
                if let Some((a, b)) = random_link(net, rng) {
                    net.degrade_link(a, b, 3.0);
                }
            }
            _ => net.heal_all(),
        }
    }

    /// Asks for every ordered pair in a random order — so searches are
    /// resumed, and rooted at either end — and compares with the oracle.
    fn assert_matches_oracle(net: &mut Network, rng: &mut SimRng, what: &str) {
        let n = net.node_count();
        let mut pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).collect();
        rng.shuffle(&mut pairs);
        for (a, b) in pairs {
            assert_eq!(
                net.dijkstra(a, b),
                net.dijkstra_oracle(a, b),
                "{what}: {a} -> {b}"
            );
        }
    }

    #[test]
    fn shared_searches_match_the_per_pair_oracle() {
        for seed in 0..24 {
            let mut rng = SimRng::seed_from(seed);
            let (gw, gh) = (rng.range_u64(2, 6) as usize, rng.range_u64(2, 5) as usize);
            let edge = NodeKind::Edge;
            let mut nets = vec![
                ("unique weights", random_graph(&mut rng, false)),
                ("equal weights", random_graph(&mut rng, true)),
                ("ring", ring(edge, 3 + seed as usize % 7, fixed_us(1_000)).0),
                (
                    "full mesh",
                    full_mesh(edge, 3 + seed as usize % 5, fixed_us(1_000)).0,
                ),
                ("grid", grid(&mut rng, gw, gh)),
                (
                    "fleet",
                    fleet(2 + seed as usize % 3, 1 + seed as usize % 4).0,
                ),
            ];
            for (what, net) in &mut nets {
                assert_matches_oracle(net, &mut rng, what);
                for _ in 0..8 {
                    random_topology_change(net, &mut rng);
                    assert_matches_oracle(net, &mut rng, what);
                }
            }
        }
    }

    /// Split-brain plus cloud blackout on a 10 × 100 fleet leaves edges 1–5
    /// and 6–10 joined only through devices' backup links: 9-10-911-1-4 and
    /// 9-6-411-5-4 cost the same. A search from 9 keeps the first, one from
    /// 4 the second (`mesh_1e3` seed 23 hits this pair).
    #[test]
    fn equal_cost_bridges_keep_the_senders_choice() {
        let (mut net, h) = fleet(10, 100);
        net.partition(&[h.edges[..5].to_vec(), h.edges[5..].to_vec()]);
        net.isolate(h.cloud);
        assert_eq!(net.dijkstra_oracle(9, 4), Some(vec![9, 10, 911, 1, 4]));
        assert_eq!(net.dijkstra_oracle(4, 9), Some(vec![4, 5, 411, 6, 9]));

        assert_eq!(net.path_indices(9, 4), Some(vec![9, 10, 911, 1, 4]));
        // Again, with the receiver's search already live and so the root.
        net.invalidate();
        assert_eq!(net.dijkstra(4, 3), Some(vec![4, 3]));
        assert!(net.searches.contains_key(&4) && !net.searches.contains_key(&9));
        assert_eq!(net.dijkstra(9, 4), Some(vec![9, 10, 911, 1, 4]));
    }

    #[test]
    fn a_fleet_asking_for_its_cloud_shares_one_search() {
        let (mut net, h) = fleet(10, 100);
        net.cut_link(h.edges[0], h.cloud);
        net.restore_link(h.edges[0], h.cloud);
        let before = NODES_SETTLED.get();
        for d in h.all_devices() {
            assert_eq!(net.path(d, h.cloud).map(|p| p.len()), Some(3));
        }
        let settled = NODES_SETTLED.get() - before;
        assert!(settled <= 2 * net.node_count(), "settled {settled}");

        net.isolate(h.cloud);
        let before = NODES_SETTLED.get();
        for d in h.all_devices() {
            assert_eq!(net.path(d, h.cloud), None);
        }
        let settled = NODES_SETTLED.get() - before;
        assert!(settled <= net.node_count(), "settled {settled}");
    }

    #[test]
    fn only_hub_searches_are_kept() {
        let (mut net, h) = Hierarchy::build(&HierarchySpec {
            edges: 2,
            devices_per_edge: 5_000,
            ..HierarchySpec::default()
        });
        for (e, devs) in h.devices.iter().enumerate() {
            for &d in devs {
                assert!(net.reachable(d, h.edges[e]));
                assert!(net.reachable(d, h.cloud));
            }
        }
        assert!(net.reachable(h.devices[0][0], h.devices[1][0]));
        assert!(net.searches.len() <= h.edges.len() + 1);
        assert!(net
            .searches
            .keys()
            .all(|&root| net.nodes[root].kind != NodeKind::Device));
    }

    #[test]
    fn clearing_a_clean_route_cache_does_not_walk_it() {
        let (mut net, h) = fleet(3, 4);
        let mut rng = SimRng::seed_from(1);
        let dev = h.devices[0][0];
        Medium::<u32>::route(&mut net, SimTime::ZERO, dev, h.cloud, &0, &mut rng);
        let newly_cut = net.isolate(h.cloud);
        assert_eq!(newly_cut.len(), 3);
        assert_eq!(net.route_walks, 1);
        for (a, b) in newly_cut {
            net.restore_link(a, b);
        }
        assert_eq!(net.route_walks, 1, "nothing was cached between the heals");
        Medium::<u32>::route(&mut net, SimTime::ZERO, dev, h.cloud, &0, &mut rng);
        net.degrade_link(dev, h.edges[0], 2.0);
        assert_eq!(net.route_walks, 2);
    }
}
