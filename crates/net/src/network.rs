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
//! **Layout.** A link is one slot of a dense table, named by its index (its
//! id). What links share lives once: a slot names its parameters' class
//! (`Network::classes`, each distinct [`Link`] with its routing weight), and
//! keeps only its endpoints, its cut flag, its change stamp and its
//! degradation factor. A node's adjacency is threaded through the table: the
//! node holds its first and last link id, and each slot the next link at
//! either end, so a list keeps insertion order and costs no allocation of
//! its own. A resolved route is the ids of the links it crosses, kept in its
//! sender's [`RouteTable`], and the per-message walk reads loss and latency
//! from the class and the degradation from the slot — so degrading a link
//! writes one slot and no route. A topology change advances a clock and
//! stamps what it touched; a route remembers the clock it was resolved at
//! and is stale once anything it depends on carries a later stamp (DESIGN.md
//! §9, "Routing", has the argument for what each kind of change may leave
//! standing).
//!
//! riot-lint: allow-file(P1, reason = "dense ProcessId-indexed adjacency/dist vectors, the link table and the class table are indexed under the identity convention above; every node id is minted by add_node, every link id by add_link and every class id by class_of in this module")

use crate::latency::LatencyModel;
use resolve::Search;
use riot_sim::{Delivery, Medium, ProcessId, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

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

/// The link id that ends an adjacency list; never a slot's index, since
/// `add_link` keeps link ids below `u32::MAX`.
const NONE: u32 = u32::MAX;

/// The bits a link class is told apart by: the latency model's tag and
/// parameters, then the loss. Bits, not `f64` `==`, which would merge
/// `0.0` with `-0.0` and never match a `NaN`.
fn class_key(link: &Link) -> [u64; 5] {
    let [tag, x, y, z] = match link.latency {
        LatencyModel::Fixed(d) => [0, d.as_micros(), 0, 0],
        LatencyModel::Uniform(lo, hi) => [1, lo.as_micros(), hi.as_micros(), 0],
        LatencyModel::Spiky {
            base,
            spike_prob,
            spike_factor,
        } => [
            2,
            base.as_micros(),
            spike_prob.to_bits(),
            spike_factor.to_bits(),
        ],
    };
    [tag, x, y, z, link.loss.to_bits()]
}

/// Everything the network holds about one link that is its own: one slot
/// of `Network::links`, indexed by the link's id (40 bytes, pinned by
/// `a_link_slot_is_40_bytes`).
#[derive(Debug, Clone, Copy)]
struct LinkSlot {
    /// The two endpoints' node indices.
    ends: [u32; 2],
    /// `next[i]`: the link after this one in `ends[i]`'s adjacency list, or
    /// `NONE` at the list's end.
    next: [u32; 2],
    /// The link's parameters and routing weight: `Network::classes[class]`.
    class: u32,
    cut: bool,
    /// `Network::clock` when the link was last cut, removed or created: a
    /// route resolved before then that names this slot is stale. (A cut and
    /// a restore between two uses of a route leave the link up and the route
    /// stale all the same; so does a removed link's slot taken by a new one.)
    changed_at: u64,
    /// Latency multiplier while the link is degraded (congestion,
    /// interference), at least 1; `0.0` when it is not — applying a 1.0
    /// factor is not a bit-exact identity through `f64` seconds.
    factor: f64,
}

impl LinkSlot {
    /// The endpoint that is not `n`.
    fn other(&self, n: usize) -> usize {
        let [a, b] = self.ends;
        (if a as usize == n { b } else { a }) as usize
    }

    /// Which of `ends` is `n`: the index of `n`'s list in `next`.
    fn end(&self, n: usize) -> usize {
        usize::from(self.ends[1] as usize == n)
    }

    /// Cuts the link at clock `now`; `false` if it was cut already.
    fn cut_at(&mut self, now: u64) -> bool {
        if self.cut {
            return false;
        }
        self.cut = true;
        self.changed_at = now;
        true
    }
}

/// A place in one node's adjacency list, stepped over the link table it
/// threads through; holds no borrow between steps, so the caller may write
/// the slots it visits.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    node: usize,
    at: u32,
}

impl Cursor {
    /// The next `(neighbour, link id)` of the list, in insertion order.
    fn step(&mut self, links: &[LinkSlot]) -> Option<(usize, u32)> {
        let id = self.at;
        let slot = links.get(id as usize)?;
        self.at = slot.next[slot.end(self.node)];
        Some((slot.other(self.node), id))
    }
}

/// One resolved route of a sender's [`RouteTable`].
#[derive(Debug, Clone, Copy)]
struct Route {
    /// Destination node index.
    to: u32,
    /// The route's link ids are `hops[start..start + len]` of its table, in
    /// travel order; no hops records a partition. `cap` ids are reserved
    /// there, so re-resolving a route writes over its own range.
    start: u32,
    len: u32,
    cap: u32,
    /// The only shortest path (or a partition): what any search in any ask
    /// order finds, and so safe to keep across a change that cannot touch
    /// it. A route with an equal-cost alternative is the first-asked
    /// direction's choice and lives until the next change of any kind.
    unique: bool,
    /// `Network::clock` when the route was resolved, or last found fresh.
    stamp: u64,
}

/// One sender's resolved routes, sorted by destination, and their hops.
#[derive(Debug, Default)]
struct RouteTable {
    routes: Vec<Route>,
    hops: Vec<u32>,
}

impl RouteTable {
    fn hops(&self, r: &Route) -> &[u32] {
        &self.hops[r.start as usize..][..r.len as usize]
    }

    /// The position of the route to `to`, or where a new one goes.
    fn find(&self, to: usize) -> Result<usize, usize> {
        self.routes.binary_search_by_key(&(to as u32), |r| r.to)
    }
}

/// What routing has cost so far, as plain counts that repeat exactly from
/// run to run ([`Network::route_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Messages routed between two different nodes of the topology.
    pub routed: u64,
    /// Cold resolutions: lookups that found no fresh route and worked one
    /// out.
    pub cold: u64,
    /// Of those, the ones that replaced a route some change had made stale
    /// — the routes forgotten, counted when the loss is noticed.
    pub stale: u64,
    /// Reverse routes written beside a cold resolution, each sparing the
    /// other direction its own.
    pub primed: u64,
    /// Shortest-path searches started.
    pub searches: u64,
    /// Nodes settled by all searches.
    pub settled: u64,
    /// Topology changes.
    pub changes: u64,
    /// Of those, the ones that came after at least one routed message: a
    /// burst of changes with no traffic in between counts once.
    pub epochs: u64,
    /// Changes that forgot only the routes they could alter.
    pub scoped: u64,
    /// Changes that forgot every route.
    pub forgot_all: u64,
    /// Routes in the tables now, fresh or stale.
    pub held: u64,
}

/// A simulated IoT network: nodes, links, routing, partitions and churn.
///
/// # Examples
///
/// ```
/// use riot_net::{LatencyModel, Link, Network, NodeKind};
/// use riot_sim::{Delivery, Medium, ProcessId, SimRng, SimTime};
///
/// let mut net = Network::new();
/// let cloud = net.add_node(NodeKind::Cloud);
/// let edge = net.add_node(NodeKind::Edge);
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
    /// Each node's role, by node id.
    nodes: Vec<NodeKind>,
    /// The link table. There is no index from an endpoint pair to an id: the
    /// by-endpoint API walks the two endpoints' adjacency lists in lockstep
    /// ([`Self::link_id`]).
    links: Vec<LinkSlot>,
    /// Slots of removed links, taken again by the next new link.
    retired: Vec<u32>,
    /// The link classes: each distinct [`Link`] a link was ever set to, with
    /// its routing weight (the mean latency in µs, at least 1), worked out
    /// once. Never freed, so bounded by the number of distinct parameter
    /// sets — four in a scenario run.
    classes: Vec<(Link, u64)>,
    /// The class of each entry of `classes`, by [`class_key`].
    class_index: BTreeMap<[u64; 5], u32>,
    /// `adjacency[u]`: the first and last link id of `u`'s list, which goes
    /// on through the slots' `next`; `NONE` for both when `u` has no link.
    adjacency: Vec<[u32; 2]>,
    external_latency: SimDuration,
    /// `routes[from]`: the one route cache. Sized, with `touched_at`, on
    /// the first lookup, so a network that never routes pays for neither.
    routes: Vec<RouteTable>,
    /// Per node, the clock of the last scoped heal at it: routes that start
    /// or end there and are older are stale.
    touched_at: Vec<u64>,
    /// Live shortest-path searches by root, dropped at every change. Only
    /// edge and cloud roots are kept, so this is O(hubs × nodes).
    searches: BTreeMap<usize, Search>,
    /// Topology changes so far (`RouteStats::changes`).
    clock: u64,
    /// The clock of the last change that forgot every route.
    forgot_all_at: u64,
    /// The counters of [`Network::route_stats`], which fills in `changes`
    /// and `held`.
    stats: RouteStats,
    /// `stats.routed` at the last change, for `stats.epochs`.
    routed_at_change: u64,
    /// Makes every change forget every route, as all of them once did: the
    /// oracle scoped forgetting is tested against.
    #[cfg(test)]
    forget_everything: bool,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network {
            nodes: Vec::new(),
            links: Vec::new(),
            retired: Vec::new(),
            classes: Vec::new(),
            class_index: BTreeMap::new(),
            adjacency: Vec::new(),
            external_latency: SimDuration::ZERO,
            routes: Vec::new(),
            touched_at: Vec::new(),
            searches: BTreeMap::new(),
            clock: 0,
            forgot_all_at: 0,
            stats: RouteStats::default(),
            routed_at_change: 0,
            #[cfg(test)]
            forget_everything: false,
        }
    }

    /// Adds a node and returns its id. Ids are assigned densely in call
    /// order and must match the order processes are spawned in the sim.
    pub fn add_node(&mut self, kind: NodeKind) -> ProcessId {
        let id = ProcessId(self.nodes.len());
        assert!(id.0 < u32::MAX as usize, "node indices are kept as u32");
        self.nodes.push(kind);
        self.adjacency.push([NONE; 2]);
        // Searches hold per-node vectors sized when they started.
        if !self.searches.is_empty() {
            self.searches.clear();
        }
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
        let class = self.class_of(link);
        if let Some(id) = self.link_id(a, b) {
            // Replaced in place, keeping its cut and its degradation; a new
            // weight can move any route.
            self.links[id as usize].class = class;
            self.invalidate();
            return;
        }
        self.insert_link(a, b, class);
    }

    /// [`Network::add_link`] for a pair its caller knows is not linked —
    /// a builder's pair it has not linked yet — without the walk over the
    /// two adjacency lists that looks for the link to replace. Ids,
    /// adjacency order and change stamps come out as `add_link`'s.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is unknown or `a == b`; debug builds also
    /// if the two are linked already.
    pub(crate) fn add_new_link(&mut self, a: ProcessId, b: ProcessId, link: Link) {
        assert!(a != b, "self-links are not allowed");
        assert!(
            a.0 < self.nodes.len() && b.0 < self.nodes.len(),
            "unknown endpoint"
        );
        debug_assert!(self.link_id(a, b).is_none(), "{a} and {b} are linked");
        let class = self.class_of(link);
        self.insert_link(a, b, class);
    }

    /// Links `a` and `b`, which have no link, with parameters `class`.
    fn insert_link(&mut self, a: ProcessId, b: ProcessId, class: u32) {
        let now = self.tick();
        let slot = LinkSlot {
            ends: [a.0 as u32, b.0 as u32],
            next: [NONE; 2],
            class,
            cut: false,
            changed_at: now,
            factor: 0.0,
        };
        let id = match self.retired.pop() {
            Some(id) => {
                self.links[id as usize] = slot;
                id
            }
            None => {
                assert!(
                    self.links.len() < u32::MAX as usize,
                    "link ids are kept as u32"
                );
                self.links.push(slot);
                (self.links.len() - 1) as u32
            }
        };
        self.append(a.0, id);
        self.append(b.0, id);
        let local = self.heal_is_local(id);
        self.forgot(local);
    }

    /// Removes a link entirely (distinct from cutting, which
    /// [`Network::restore_link`] reverses).
    pub fn remove_link(&mut self, a: ProcessId, b: ProcessId) {
        let now = self.tick();
        if let Some(id) = self.link_id(a, b) {
            self.unlink(a.0, id);
            self.unlink(b.0, id);
            self.links[id as usize].changed_at = now;
            self.retired.push(id);
        }
        self.forgot(true);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A node's role, if it exists.
    pub fn node(&self, id: ProcessId) -> Option<NodeKind> {
        self.nodes.get(id.0).copied()
    }

    /// Iterates over `(id, role)` for all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (ProcessId, NodeKind)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, &kind)| (ProcessId(i), kind))
    }

    /// Cuts one link (both directions). Cut links drop every message until
    /// healed.
    pub fn cut_link(&mut self, a: ProcessId, b: ProcessId) {
        if let Some(id) = self.link_id(a, b) {
            let now = self.tick();
            self.links[id as usize].cut_at(now);
            self.forgot(true);
        }
    }

    /// Restores one previously cut link.
    pub fn restore_link(&mut self, a: ProcessId, b: ProcessId) {
        let Some(id) = self.link_id(a, b) else {
            return;
        };
        if self.links[id as usize].cut {
            self.tick();
            self.links[id as usize].cut = false;
            let local = self.heal_is_local(id);
            self.forgot(local);
        }
    }

    /// Cuts every link adjacent to `n`, isolating it. Returns the links
    /// that were newly cut, so a healer can restore exactly them.
    pub fn isolate(&mut self, n: ProcessId) -> Vec<(ProcessId, ProcessId)> {
        let now = self.tick();
        let mut newly_cut = Vec::new();
        let mut at = self.cursor(n.0);
        while let Some((m, id)) = at.step(&self.links) {
            if self.links[id as usize].cut_at(now) {
                newly_cut.push((n, ProcessId(m)));
            }
        }
        self.forgot(true);
        newly_cut
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
        let now = self.tick();
        let mut newly_cut = Vec::new();
        for (&a, ga) in &group_of {
            let mut at = self.cursor(a);
            while let Some((b, id)) = at.step(&self.links) {
                if a < b
                    && group_of.get(&b).is_some_and(|gb| gb != ga)
                    && self.links[id as usize].cut_at(now)
                {
                    newly_cut.push((ProcessId(a), ProcessId(b)));
                }
            }
        }
        self.forgot(true);
        newly_cut
    }

    /// Degrades a link: every message over it takes `factor` times its
    /// sampled latency (congestion or radio interference, §II's adverse
    /// environments). Factors below 1 are clamped to 1. Routing weights
    /// are unchanged — congestion is invisible to the (static) routing
    /// tables, as in real IP networks — and so is every resolved route: a
    /// message reads the factor from the link's slot.
    pub fn degrade_link(&mut self, a: ProcessId, b: ProcessId, factor: f64) {
        if let Some(id) = self.link_id(a, b) {
            self.links[id as usize].factor = factor.max(1.0);
        }
    }

    /// Removes any degradation from a link.
    pub fn restore_link_quality(&mut self, a: ProcessId, b: ProcessId) {
        if let Some(id) = self.link_id(a, b) {
            self.links[id as usize].factor = 0.0;
        }
    }

    /// Moves a device to a new parent: all current links of `dev` are
    /// removed and a single new link to `parent` is added — the mobility
    /// primitive (a phone roaming between gateways, a vehicle between road-
    /// side units).
    pub fn reattach(&mut self, dev: ProcessId, parent: ProcessId, link: Link) {
        while let Some(last) = self.links.get(self.adjacency[dev.0][1] as usize) {
            self.remove_link(dev, ProcessId(last.other(dev.0)));
        }
        self.add_link(dev, parent, link);
    }

    /// The current minimum-expected-latency path between two nodes, if the
    /// network (minus cut links) connects them. The path includes both
    /// endpoints.
    pub fn path(&mut self, from: ProcessId, to: ProcessId) -> Option<Vec<ProcessId>> {
        self.path_indices(from.0, to.0)
            .map(|p| p.into_iter().map(ProcessId).collect())
    }

    /// What routing has cost so far.
    pub fn route_stats(&self) -> RouteStats {
        RouteStats {
            changes: self.clock,
            held: self.routes.iter().map(|t| t.routes.len() as u64).sum(),
            ..self.stats
        }
    }

    /// The id of the link joining `a` and `b`, if there is one: their two
    /// adjacency lists walked in lockstep, so O(the smaller degree) — the
    /// link is in both, and the end of either proves it absent.
    fn link_id(&self, a: ProcessId, b: ProcessId) -> Option<u32> {
        if a.0 >= self.nodes.len() || b.0 >= self.nodes.len() {
            return None;
        }
        let (mut at_a, mut at_b) = (self.links_at(a.0), self.links_at(b.0));
        loop {
            match (at_a.next(), at_b.next()) {
                (Some((n, id)), _) if n == b.0 => return Some(id),
                (_, Some((n, id))) if n == a.0 => return Some(id),
                (None, _) | (_, None) => return None,
                _ => {}
            }
        }
    }

    /// Whether `a` has no more links than `b`: their lists walked in
    /// lockstep, O(the smaller degree).
    fn fewer_links(&self, a: usize, b: usize) -> bool {
        let mut at_b = self.links_at(b);
        self.links_at(a).all(|_| at_b.next().is_some())
    }

    /// The start of `n`'s adjacency list (an empty one past the nodes).
    fn cursor(&self, n: usize) -> Cursor {
        let at = self.adjacency.get(n).map_or(NONE, |&[first, _]| first);
        Cursor { node: n, at }
    }

    /// `n`'s links as `(neighbour, link id)`, in insertion order.
    fn links_at(&self, n: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        let mut at = self.cursor(n);
        std::iter::from_fn(move || at.step(&self.links))
    }

    /// Appends link `id` to the end of `n`'s list.
    fn append(&mut self, n: usize, id: u32) {
        let [first, last] = &mut self.adjacency[n];
        match self.links.get_mut(*last as usize) {
            Some(tail) => tail.next[tail.end(n)] = id,
            None => *first = id,
        }
        *last = id;
    }

    /// Takes link `id` out of `n`'s list, where it is: O(degree), the walk
    /// to the link before it.
    fn unlink(&mut self, n: usize, id: u32) {
        let before = self
            .links_at(n)
            .map(|(_, l)| l)
            .take_while(|&l| l != id)
            .last();
        let slot = &self.links[id as usize];
        let after = slot.next[slot.end(n)];
        match before {
            Some(before) => {
                let before = &mut self.links[before as usize];
                before.next[before.end(n)] = after;
            }
            None => self.adjacency[n][0] = after,
        }
        if self.adjacency[n][1] == id {
            self.adjacency[n][1] = before.unwrap_or(NONE);
        }
    }

    /// The class of `link`, added if it is new: the last class is tried
    /// first — a build adds runs of equal links — then the index.
    fn class_of(&mut self, link: Link) -> u32 {
        let key = class_key(&link);
        if let Some(last) = self.classes.len().checked_sub(1) {
            if class_key(&self.classes[last].0) == key {
                return last as u32;
            }
        }
        if let Some(&class) = self.class_index.get(&key) {
            return class;
        }
        let class = self.classes.len() as u32;
        self.classes
            .push((link, link.latency.mean().as_micros().max(1)));
        self.class_index.insert(key, class);
        class
    }

    /// Link `id`'s routing weight.
    fn weight(&self, id: u32) -> u64 {
        self.classes[self.links[id as usize].class as usize].1
    }

    /// Begins a topology change: the clock advances, which alone forgets
    /// every route that has an equal-cost alternative, and the searches,
    /// which describe the topology as it was, go.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        if self.stats.routed != self.routed_at_change {
            self.routed_at_change = self.stats.routed;
            self.stats.epochs += 1;
        }
        if !self.searches.is_empty() {
            self.searches.clear();
        }
        self.clock
    }

    /// Ends a topology change. `local` says it has stamped everything it
    /// could alter — the links it cut or removed, the node a heal is local
    /// to; otherwise every route is forgotten.
    fn forgot(&mut self, local: bool) {
        #[cfg(test)]
        let local = local && !self.forget_everything;
        if local {
            self.stats.scoped += 1;
        } else {
            self.forgot_all_at = self.clock;
            self.stats.forgot_all += 1;
        }
    }

    /// A change that may alter any route: forget them all.
    fn invalidate(&mut self) {
        self.tick();
        self.forgot(false);
    }

    /// Whether link `id` coming up (restored or new) can alter only routes
    /// that start or end at one of its endpoints, `a`; if so those are
    /// forgotten here. True when every other usable neighbour `x` of `a`
    /// has a usable direct link to the far endpoint `b` strictly cheaper
    /// than `x`–`a`–`b` (vacuously, when `a` has no other): a path through
    /// the link between two other nodes contains some `x`–`a`–`b`, the
    /// direct link beats it outright, so no shortest or equal-cost path
    /// among other nodes uses the link and no partition among them heals.
    /// Only the lower-degree endpoint is tried as `a`.
    fn heal_is_local(&mut self, id: u32) -> bool {
        if self.routes.is_empty() {
            // Nothing was ever resolved: nothing to forget, nothing to scan.
            return true;
        }
        let ([a, b], ab) = (self.links[id as usize].ends, self.weight(id));
        let (a, b) = (a as usize, b as usize);
        let (a, b) = if self.fewer_links(a, b) {
            (a, b)
        } else {
            (b, a)
        };
        let local = self.links_at(a).all(|(x, ax)| {
            x == b
                || self.links[ax as usize].cut
                || self.link_id(ProcessId(x), ProcessId(b)).is_some_and(|xb| {
                    !self.links[xb as usize].cut
                        && self.weight(xb) < self.weight(ax).saturating_add(ab)
                })
        });
        if local {
            // A node past the tables' end is newer than every route.
            if let Some(touched) = self.touched_at.get_mut(a) {
                *touched = self.clock;
            }
        }
        local
    }

    /// Whether a route of `from`'s table is still what resolving it again
    /// would find: nothing it depends on has changed since its stamp.
    fn fresh(&self, from: usize, route: &Route) -> bool {
        let floor = if route.unique {
            self.forgot_all_at
        } else {
            self.clock
        };
        let floor = floor
            .max(self.touched_at[from])
            .max(self.touched_at[route.to as usize]);
        let hops = self.routes[from].hops(route);
        route.stamp >= floor
            && hops
                .iter()
                .all(|&id| self.links[id as usize].changed_at <= route.stamp)
    }

    /// The fresh route from `from` to `to`, resolved first if `from`'s
    /// table holds none or a stale one.
    fn lookup(&mut self, from: usize, to: usize) -> Route {
        if self.routes.len() < self.nodes.len() {
            self.routes
                .resize_with(self.nodes.len(), RouteTable::default);
            self.touched_at.resize(self.nodes.len(), 0);
        }
        let found = self.routes[from].find(to);
        if let Ok(i) = found {
            let mut route = self.routes[from].routes[i];
            if route.stamp == self.clock {
                return route;
            }
            if self.fresh(from, &route) {
                // As good as resolved now: until the next change, the one
                // compare above is the whole check.
                route.stamp = self.clock;
                self.routes[from].routes[i].stamp = self.clock;
                return route;
            }
        }
        self.resolve(from, to, found)
    }

    /// The nodes of the path from `from` to `to`, both included, read off
    /// the route table.
    fn path_indices(&mut self, from: usize, to: usize) -> Option<Vec<usize>> {
        if from >= self.nodes.len() || to >= self.nodes.len() {
            return None;
        }
        if from == to {
            return Some(vec![from]);
        }
        let route = self.lookup(from, to);
        (route.len > 0).then(|| self.nodes_along(from, self.routes[from].hops(&route)))
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
        self.stats.routed += 1;
        // Whether the route is stale is settled in here, before any draw.
        let route = self.lookup(from.0, to.0);
        if route.len == 0 {
            return Delivery::Drop("partition");
        }
        // RNG discipline: per hop, one `chance` draw then one latency
        // sample, aborting on the first loss — the exact draw sequence of
        // a walk over the path's links, so cached routing is bit-identical.
        let mut total = SimDuration::ZERO;
        for &id in self.routes[from.0].hops(&route) {
            let hop = &self.links[id as usize];
            let link = &self.classes[hop.class as usize].0;
            if rng.chance(link.loss) {
                return Delivery::Drop("loss");
            }
            let mut d = link.latency.sample(rng);
            if hop.factor != 0.0 {
                d = d.mul_f64(hop.factor);
            }
            total += d;
        }
        Delivery::After(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Network, ProcessId, ProcessId, ProcessId) {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Device);
        let b = net.add_node(NodeKind::Edge);
        let c = net.add_node(NodeKind::Cloud);
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
        let a = net.add_node(NodeKind::Device);
        let b = net.add_node(NodeKind::Edge);
        let c = net.add_node(NodeKind::Cloud);
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
        let cut = net.partition(&[vec![a, b], vec![c]]);
        let mut rng = SimRng::seed_from(0);
        assert_eq!(
            Medium::<u32>::route(&mut net, SimTime::ZERO, a, c, &0, &mut rng),
            Delivery::Drop("partition")
        );
        assert!(net.path(a, b).is_some());
        assert!(net.path(a, c).is_none());
        for (x, y) in cut {
            net.restore_link(x, y);
        }
        assert!(net.path(a, c).is_some());
    }

    #[test]
    fn isolate_and_rejoin() {
        let (mut net, a, b, c) = line3();
        let cut = net.isolate(b);
        assert!(net.path(a, b).is_none());
        assert!(net.path(a, c).is_none());
        for (x, y) in cut {
            net.restore_link(x, y);
        }
        assert_eq!(net.path(a, c).unwrap(), vec![a, b, c]);
    }

    #[test]
    fn loss_is_per_link_and_calibrated() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Device);
        let b = net.add_node(NodeKind::Edge);
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
        let e1 = net.add_node(NodeKind::Edge);
        let e2 = net.add_node(NodeKind::Edge);
        let d = net.add_node(NodeKind::Device);
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
        let of_kind = |kind| -> Vec<ProcessId> {
            net.nodes()
                .filter(|&(_, k)| k == kind)
                .map(|(id, _)| id)
                .collect()
        };
        assert_eq!(of_kind(NodeKind::Device), vec![a]);
        assert_eq!(of_kind(NodeKind::Edge), vec![b]);
        assert_eq!(of_kind(NodeKind::Cloud), vec![c]);
        assert_eq!(net.node(c), Some(NodeKind::Cloud));
        assert_eq!(net.node_count(), 3);
    }

    #[test]
    fn remove_link_is_permanent_across_heal() {
        let (mut net, a, b, c) = line3();
        net.remove_link(b, c);
        net.restore_link(b, c);
        assert!(net.path(a, c).is_none());
        assert!(net.path(a, b).is_some());
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Device);
        net.add_link(a, a, Link::lossless(LatencyModel::fixed_ms(1)));
    }

    #[test]
    fn degradation_multiplies_latency_without_rerouting() {
        let (mut net, a, b, c) = line3();
        let mut rng = SimRng::seed_from(0);
        let ms = SimDuration::from_millis;
        net.degrade_link(a, b, 10.0);
        assert_eq!(
            deliver(&mut net, a, c, &mut rng),
            Delivery::After(ms(20)),
            "1ms*10 + 10ms"
        );
        // Path unchanged: degradation is invisible to routing.
        assert_eq!(net.path(a, c).unwrap(), vec![a, b, c]);
        net.restore_link_quality(a, b);
        assert_eq!(deliver(&mut net, a, c, &mut rng), Delivery::After(ms(11)));
        // Sub-unity factors clamp to 1 (degradation never speeds links up).
        net.degrade_link(a, b, 0.1);
        assert_eq!(deliver(&mut net, a, b, &mut rng), Delivery::After(ms(1)));
        // Unknown links are ignored.
        net.degrade_link(a, c, 5.0);
        assert_eq!(deliver(&mut net, a, c, &mut rng), Delivery::After(ms(11)));
    }

    #[test]
    fn link_usable_reflects_cuts() {
        let (mut net, a, b, _) = line3();
        let mut rng = SimRng::seed_from(0);
        let one_hop = Delivery::After(SimDuration::from_millis(1));
        assert_eq!(deliver(&mut net, a, b, &mut rng), one_hop);
        net.cut_link(a, b);
        assert_eq!(
            deliver(&mut net, a, b, &mut rng),
            Delivery::Drop("partition")
        );
        net.restore_link(a, b);
        assert_eq!(deliver(&mut net, a, b, &mut rng), one_hop);
    }

    // -- Shared resumable searches (`dijkstra`) against the per-pair oracle.

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
        for _ in 0..n {
            let kind = random_kind(rng);
            net.add_node(kind);
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
        for _ in 0..w * h {
            let kind = random_kind(rng);
            net.add_node(kind);
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

    /// Every link, or every cut one, as its endpoints (lower index first).
    fn links_of(net: &Network, only_cut: bool) -> Vec<(ProcessId, ProcessId)> {
        let mut found = Vec::new();
        for a in 0..net.node_count() {
            for (b, id) in net.links_at(a) {
                if a < b && (!only_cut || net.links[id as usize].cut) {
                    found.push((ProcessId(a), ProcessId(b)));
                }
            }
        }
        found
    }

    fn random_link(net: &Network, rng: &mut SimRng) -> Option<(ProcessId, ProcessId)> {
        rng.pick(&links_of(net, false)).copied()
    }

    fn random_topology_change(net: &mut Network, rng: &mut SimRng) {
        match rng.range_u64(0, 11) {
            0 | 1 => {
                if let Some((a, b)) = random_link(net, rng) {
                    net.cut_link(a, b);
                }
            }
            2 => {
                if let Some(&(a, b)) = rng.pick(&links_of(net, true)) {
                    net.restore_link(a, b);
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
            7 => {
                if let Some((a, b)) = random_link(net, rng) {
                    net.restore_link_quality(a, b);
                }
            }
            8 => {
                // A link taken away and put back, as it was or heavier.
                if let Some((a, b)) = random_link(net, rng) {
                    let id = net.link_id(a, b).unwrap();
                    let mut link = net.classes[net.links[id as usize].class as usize].0;
                    net.remove_link(a, b);
                    if rng.chance(0.5) {
                        link = fixed_us(1_500);
                    }
                    net.add_link(a, b, link);
                }
            }
            9 => {
                // A crashed node recovers link by link, as `restore_after`
                // in riot-core brings one back.
                let n = random_node(net, rng);
                for (a, b) in links_of(net, true) {
                    if a == n || b == n {
                        net.restore_link(a, b);
                    }
                }
            }
            _ => {
                for (a, b) in links_of(net, true) {
                    net.restore_link(a, b);
                }
            }
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

    /// The six topologies the randomized tests run over.
    fn generated_nets(seed: u64, rng: &mut SimRng) -> Vec<(&'static str, Network)> {
        let (gw, gh) = (rng.range_u64(2, 6) as usize, rng.range_u64(2, 5) as usize);
        let edge = NodeKind::Edge;
        vec![
            ("unique weights", random_graph(rng, false)),
            ("equal weights", random_graph(rng, true)),
            ("ring", ring(edge, 3 + seed as usize % 7, fixed_us(1_000)).0),
            (
                "full mesh",
                full_mesh(edge, 3 + seed as usize % 5, fixed_us(1_000)).0,
            ),
            ("grid", grid(rng, gw, gh)),
            (
                "fleet",
                fleet(2 + seed as usize % 3, 1 + seed as usize % 4).0,
            ),
        ]
    }

    #[test]
    fn shared_searches_match_the_per_pair_oracle() {
        for seed in 0..24 {
            let mut rng = SimRng::seed_from(seed);
            let mut nets = generated_nets(seed, &mut rng);
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
        let before = net.route_stats();
        for d in h.all_devices() {
            assert_eq!(net.path(d, h.cloud).map(|p| p.len()), Some(3));
        }
        let after = net.route_stats();
        assert_eq!(after.searches - before.searches, 1);
        let settled = after.settled - before.settled;
        assert!(settled <= 2 * net.node_count() as u64, "settled {settled}");

        net.isolate(h.cloud);
        let before = net.route_stats();
        for d in h.all_devices() {
            assert_eq!(net.path(d, h.cloud), None);
        }
        let settled = net.route_stats().settled - before.settled;
        assert!(settled <= net.node_count() as u64, "settled {settled}");
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
                assert!(net.path(d, h.edges[e]).is_some());
                assert!(net.path(d, h.cloud).is_some());
            }
        }
        assert!(net.path(h.devices[0][0], h.devices[1][0]).is_some());
        assert!(net.searches.len() <= h.edges.len() + 1);
        assert!(net
            .searches
            .keys()
            .all(|&root| net.nodes[root] != NodeKind::Device));
        // The device-to-device ask ran the one search that was not kept.
        assert_eq!(
            net.route_stats().searches,
            net.searches.len() as u64 + 1,
            "one search per hub serves its whole fleet"
        );
    }

    // -- Link-scoped forgetting: what a change leaves standing.

    fn deliver(net: &mut Network, from: ProcessId, to: ProcessId, rng: &mut SimRng) -> Delivery {
        Medium::<u32>::route(net, SimTime::ZERO, from, to, &0, rng)
    }

    #[test]
    fn a_burst_of_restores_among_fresh_routes_forgets_nothing() {
        let (mut net, h) = fleet(3, 4);
        let mut rng = SimRng::seed_from(1);
        let crashed = h.devices[0][0];
        let others: Vec<ProcessId> = h.all_devices().into_iter().skip(1).collect();
        for &d in &others {
            deliver(&mut net, d, h.cloud, &mut rng);
            deliver(&mut net, h.edges[1], d, &mut rng);
        }
        let newly_cut = net.isolate(crashed);
        assert_eq!(newly_cut.len(), 2);
        for (a, b) in newly_cut {
            net.restore_link(a, b);
        }
        let before = net.route_stats();
        assert_eq!((before.scoped, before.forgot_all), (before.changes, 0));
        for &d in &others {
            deliver(&mut net, d, h.cloud, &mut rng);
            deliver(&mut net, h.edges[1], d, &mut rng);
        }
        // Three changes, each a few stamps; every route is still fresh, so
        // no lookup resolved anything and no search settled a node.
        let after = net.route_stats();
        assert_eq!(
            (after.cold, after.stale, after.searches, after.settled),
            (before.cold, 0, before.searches, before.settled)
        );
        assert_eq!(after.routed, before.routed + 2 * others.len() as u64);
    }

    #[test]
    fn a_removed_links_degradation_does_not_outlive_it() {
        let (mut net, a, b, c) = line3();
        let mut rng = SimRng::seed_from(0);
        net.degrade_link(a, b, 10.0);
        assert_eq!(
            deliver(&mut net, a, c, &mut rng),
            Delivery::After(SimDuration::from_millis(20))
        );
        net.remove_link(a, b);
        // A roamer returns to its gateway: a new link, not the congested one.
        net.add_link(a, b, Link::lossless(LatencyModel::fixed_ms(1)));
        assert_eq!(
            deliver(&mut net, a, c, &mut rng),
            Delivery::After(SimDuration::from_millis(11))
        );
    }

    #[test]
    fn degrading_a_link_forgets_no_route() {
        let (mut net, a, b, c) = line3();
        let mut rng = SimRng::seed_from(0);
        deliver(&mut net, a, c, &mut rng);
        let before = net.route_stats();
        net.degrade_link(b, c, 2.0);
        assert_eq!(
            deliver(&mut net, a, c, &mut rng),
            Delivery::After(SimDuration::from_millis(21))
        );
        net.restore_link_quality(b, c);
        assert_eq!(
            deliver(&mut net, a, c, &mut rng),
            Delivery::After(SimDuration::from_millis(11))
        );
        let after = net.route_stats();
        assert_eq!(
            (after.cold, after.changes, after.routed),
            (before.cold, before.changes, before.routed + 2)
        );
    }

    /// `a`–`b`–`c`–`d` in a line: the route from `a` to `d` crosses `b`–`c`.
    #[test]
    fn a_route_across_a_link_cut_and_restored_between_two_uses_is_stale() {
        let (mut net, n) = crate::topology::line(NodeKind::Edge, 4, fixed_us(1_000));
        let mut rng = SimRng::seed_from(0);
        let sent = Delivery::After(SimDuration::from_millis(3));
        assert_eq!(deliver(&mut net, n[0], n[3], &mut rng), sent);
        net.cut_link(n[1], n[2]);
        net.restore_link(n[1], n[2]);
        // The link is up again, and the route must not be trusted for that:
        // between the cut and the restore anything may have moved.
        let before = net.route_stats();
        assert_eq!(deliver(&mut net, n[0], n[3], &mut rng), sent);
        assert_eq!(net.route_stats().stale, before.stale + 1);
    }

    /// A hexagon of equal links, labelled so that the two ends of a
    /// diameter break its tie differently: from 0 the way to 3 is 0-5-2-3,
    /// from 3 the way to 0 is 3-4-1-0. Node 6 hangs off node 0.
    fn hexagon() -> Network {
        let mut net = Network::new();
        for _ in 0..7 {
            net.add_node(NodeKind::Edge);
        }
        for (a, b) in [(0, 1), (1, 4), (4, 3), (0, 5), (5, 2), (2, 3), (0, 6)] {
            net.add_link(ProcessId(a), ProcessId(b), fixed_us(1_000));
        }
        net
    }

    #[test]
    fn a_tied_pairs_second_direction_is_the_first_ones_reverse() {
        let mut net = hexagon();
        assert_eq!(net.dijkstra_oracle(0, 3), Some(vec![0, 5, 2, 3]));
        assert_eq!(net.dijkstra_oracle(3, 0), Some(vec![3, 4, 1, 0]));
        assert_eq!(net.path_indices(0, 3), Some(vec![0, 5, 2, 3]));
        assert_eq!(net.path_indices(3, 0), Some(vec![3, 2, 5, 0]));

        let mut net = hexagon();
        assert_eq!(net.path_indices(3, 0), Some(vec![3, 4, 1, 0]));
        assert_eq!(net.path_indices(0, 3), Some(vec![0, 1, 4, 3]));
    }

    #[test]
    fn a_tied_route_is_never_kept() {
        let mut net = hexagon();
        assert_eq!(net.path_indices(0, 3), Some(vec![0, 5, 2, 3]));
        assert_eq!(net.path_indices(1, 4), Some(vec![1, 4]));
        // A cut that crosses neither route forgets the tied one all the
        // same: which end asks first decides the pair again, as it did when
        // every change forgot everything.
        net.cut_link(ProcessId(0), ProcessId(6));
        let before = net.route_stats();
        assert_eq!((before.scoped, before.forgot_all), (before.changes, 0));
        assert_eq!(net.path_indices(3, 0), Some(vec![3, 4, 1, 0]));
        assert_eq!(net.path_indices(0, 3), Some(vec![0, 1, 4, 3]));
        assert_eq!(net.path_indices(1, 4), Some(vec![1, 4]));
        let after = net.route_stats();
        assert_eq!(
            (after.cold, after.stale),
            (before.cold + 1, before.stale + 1)
        );
    }

    /// Under the split-brain the devices' backup links are the only bridges
    /// between the two halves, so a bridging device coming back can move
    /// routes between nodes that are not its neighbours: its second link
    /// must forget everything.
    #[test]
    fn rejoining_a_bridging_device_forgets_everything() {
        for sender_first in [true, false] {
            let (mut net, h) = fleet(10, 100);
            net.partition(&[h.edges[..5].to_vec(), h.edges[5..].to_vec()]);
            net.isolate(h.cloud);
            assert!(net.path_indices(9, 4).is_some());
            let bridge = ProcessId(911);
            let newly_cut = net.isolate(bridge);
            assert_ne!(net.path_indices(9, 4), Some(vec![9, 10, 911, 1, 4]));
            let before = net.route_stats();
            for (a, b) in newly_cut {
                net.restore_link(a, b);
            }
            let after = net.route_stats();
            assert_eq!(after.changes, before.changes + 2);
            assert_eq!(after.scoped, before.scoped + 1, "a leaf's first link");
            assert_eq!(after.forgot_all, before.forgot_all + 1, "the bridge");
            if sender_first {
                assert_eq!(net.path_indices(9, 4), Some(vec![9, 10, 911, 1, 4]));
                assert_eq!(net.path_indices(4, 9), Some(vec![4, 1, 911, 10, 9]));
            } else {
                assert_eq!(net.path_indices(4, 9), Some(vec![4, 5, 411, 6, 9]));
                assert_eq!(net.path_indices(9, 4), Some(vec![9, 6, 411, 5, 4]));
            }
        }
    }

    /// What one seed's churn answered, ask by ask, and what it cost.
    type Answers = Vec<(String, Option<Vec<usize>>, Option<Delivery>)>;

    /// Runs one seed's topologies through random changes, asking after
    /// every change for a random subset of the ordered pairs — so routes of
    /// different ages sit side by side — through `Medium::route` or `path`.
    fn churn(seed: u64, forget_everything: bool) -> (Answers, Vec<RouteStats>) {
        let mut rng = SimRng::seed_from(seed);
        let mut draws = SimRng::seed_from(seed ^ 0x5eed);
        let mut answers = Answers::new();
        let mut stats = Vec::new();
        for (what, mut net) in generated_nets(seed, &mut rng) {
            net.forget_everything = forget_everything;
            let n = net.node_count();
            for step in 0..12 {
                if step > 0 {
                    random_topology_change(&mut net, &mut rng);
                }
                let mut pairs: Vec<(usize, usize)> =
                    (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).collect();
                rng.shuffle(&mut pairs);
                pairs.truncate(rng.range_u64(0, pairs.len() as u64 + 1) as usize);
                for (a, b) in pairs {
                    let delivery = rng
                        .chance(0.7)
                        .then(|| deliver(&mut net, ProcessId(a), ProcessId(b), &mut draws));
                    let path = net.path_indices(a, b);
                    answers.push((format!("{what}, step {step}: {a} -> {b}"), path, delivery));
                }
            }
            stats.push(net.route_stats());
        }
        (answers, stats)
    }

    #[test]
    fn scoped_forgetting_matches_forget_everything() {
        let (mut kept, mut scoped_changes) = (0, 0);
        for seed in 0..24 {
            let (answers, stats) = churn(seed, false);
            let (oracle, oracle_stats) = churn(seed, true);
            assert_eq!(answers.len(), oracle.len());
            for (got, want) in answers.iter().zip(&oracle) {
                assert_eq!(got, want, "seed {seed}");
            }
            assert_eq!(churn(seed, false).1, stats, "counts repeat, seed {seed}");
            for (s, o) in stats.iter().zip(&oracle_stats) {
                assert_eq!((s.routed, s.changes), (o.routed, o.changes));
                assert!(s.cold <= o.cold, "seed {seed}: {s:?} vs {o:?}");
                kept += o.cold - s.cold;
                scoped_changes += s.scoped;
            }
        }
        // The comparison is vacuous unless scoped changes happened and
        // spared resolutions the oracle had to make.
        assert!(scoped_changes > 500, "scoped changes {scoped_changes}");
        assert!(kept > 5_000, "resolutions spared {kept}");
    }

    // -- The class table and the threaded adjacency lists.

    #[test]
    fn a_link_slot_is_40_bytes() {
        assert!(std::mem::size_of::<LinkSlot>() <= 40);
    }

    #[test]
    fn equal_links_share_a_class_and_bit_different_ones_do_not() {
        let mut net = Network::new();
        let n: Vec<ProcessId> = (0..6).map(|_| net.add_node(NodeKind::Edge)).collect();
        let zero = Link::lossless(LatencyModel::fixed_ms(1));
        let negative_zero = Link { loss: -0.0, ..zero };
        let nan = Link {
            loss: f64::NAN,
            ..zero
        };
        assert_eq!(zero, negative_zero, "`==` cannot tell them apart");
        // Each class is met again after another one, so the index finds it.
        for (a, b, link) in [
            (0, 1, zero),
            (1, 2, negative_zero),
            (2, 3, zero),
            (3, 4, nan),
            (4, 5, negative_zero),
            (5, 0, nan),
        ] {
            net.add_link(n[a], n[b], link);
        }
        assert_eq!(net.classes.len(), 3);
        let class = |a: usize, b: usize| net.links[net.link_id(n[a], n[b]).unwrap() as usize].class;
        assert_eq!(class(0, 1), class(2, 3));
        assert_eq!(class(1, 2), class(4, 5));
        assert_eq!(class(3, 4), class(5, 0));
        assert_ne!(class(0, 1), class(1, 2));
        assert_eq!(net.class_index.len(), net.classes.len());
    }

    #[test]
    fn a_replaced_link_routes_by_its_new_weight() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Device);
        let b = net.add_node(NodeKind::Edge);
        let c = net.add_node(NodeKind::Cloud);
        net.add_link(a, c, Link::lossless(LatencyModel::fixed_ms(10)));
        net.add_link(a, b, Link::lossless(LatencyModel::fixed_ms(3)));
        net.add_link(b, c, Link::lossless(LatencyModel::fixed_ms(3)));
        let mut rng = SimRng::seed_from(0);
        let ms = SimDuration::from_millis;
        assert_eq!(net.path(a, c).unwrap(), vec![a, b, c]);
        assert_eq!(deliver(&mut net, a, c, &mut rng), Delivery::After(ms(6)));
        let before = net.route_stats();
        net.add_link(a, c, Link::lossless(LatencyModel::fixed_ms(2)));
        assert_eq!(net.route_stats().forgot_all, before.forgot_all + 1);
        assert_eq!(net.path(a, c).unwrap(), vec![a, c]);
        assert_eq!(deliver(&mut net, a, c, &mut rng), Delivery::After(ms(2)));
        // Put back as it was: the old class, and the old route.
        net.add_link(a, c, Link::lossless(LatencyModel::fixed_ms(10)));
        assert_eq!(net.classes.len(), 3);
        assert_eq!(net.path(a, c).unwrap(), vec![a, b, c]);
    }

    #[test]
    fn a_factor_of_one_is_a_degradation_and_its_restore_is_none() {
        // Two networks drawing from equal streams: one never degraded, one
        // degraded by 1.0 and restored. Every delivery must match.
        let line = || {
            let mut net = Network::new();
            let a = net.add_node(NodeKind::Device);
            let b = net.add_node(NodeKind::Edge);
            let c = net.add_node(NodeKind::Cloud);
            net.add_link(a, b, crate::topology::presets::device_edge());
            net.add_link(b, c, crate::topology::presets::edge_cloud());
            (net, a, b, c)
        };
        let (mut plain, a, _, c) = line();
        let (mut restored, _, b, _) = line();
        restored.degrade_link(a, b, 1.0);
        restored.restore_link_quality(a, b);
        let (mut r1, mut r2) = (SimRng::seed_from(5), SimRng::seed_from(5));
        for _ in 0..500 {
            assert_eq!(
                deliver(&mut plain, a, c, &mut r1),
                deliver(&mut restored, a, c, &mut r2)
            );
        }
        // Where `mul_f64(1.0)` is not the identity, a 1.0 degradation shows.
        let far = SimDuration::from_micros((1 << 53) + 1);
        assert_ne!(far.mul_f64(1.0), far);
        let mut net = Network::new();
        let (x, y) = (net.add_node(NodeKind::Edge), net.add_node(NodeKind::Edge));
        net.add_link(x, y, Link::lossless(LatencyModel::Fixed(far)));
        let mut rng = SimRng::seed_from(0);
        assert_eq!(deliver(&mut net, x, y, &mut rng), Delivery::After(far));
        net.degrade_link(x, y, 1.0);
        assert_eq!(
            deliver(&mut net, x, y, &mut rng),
            Delivery::After(far.mul_f64(1.0))
        );
        net.restore_link_quality(x, y);
        assert_eq!(deliver(&mut net, x, y, &mut rng), Delivery::After(far));
    }

    #[test]
    fn adjacency_keeps_insertion_order_across_removal_and_reattach() {
        let mut net = Network::new();
        let hub = net.add_node(NodeKind::Edge);
        let n: Vec<ProcessId> = (0..8).map(|_| net.add_node(NodeKind::Device)).collect();
        let lan = crate::topology::presets::lan();
        for &m in &n[..6] {
            net.add_link(hub, m, lan);
        }
        net.remove_link(hub, n[0]); // the list's head
        net.remove_link(n[5], hub); // its tail, named from the far end
        net.reattach(n[3], n[4], lan); // the middle
        net.add_link(hub, n[0], lan); // back, at the end
        net.add_link(n[6], hub, lan);
        let neighbours = |net: &Network, at: ProcessId| -> Vec<usize> {
            net.links_at(at.0).map(|(m, _)| m).collect()
        };
        let ids = |at: &[ProcessId]| -> Vec<usize> { at.iter().map(|p| p.0).collect() };
        assert_eq!(neighbours(&net, hub), ids(&[n[1], n[2], n[4], n[0], n[6]]));
        assert_eq!(neighbours(&net, n[4]), ids(&[hub, n[3]]));
        assert_eq!(neighbours(&net, n[3]), ids(&[n[4]]));
        assert!(neighbours(&net, n[5]).is_empty());
        assert_eq!(net.link_id(n[5], hub), None);
        assert_eq!(net.link_id(n[7], n[5]), None, "two empty lists");
        let cut: Vec<ProcessId> = net.isolate(hub).into_iter().map(|(_, m)| m).collect();
        assert_eq!(cut, vec![n[1], n[2], n[4], n[0], n[6]]);
        // Emptied and refilled: the head and the tail start over.
        for m in cut {
            net.remove_link(hub, m);
        }
        assert!(neighbours(&net, hub).is_empty());
        net.add_link(hub, n[7], lan);
        net.add_link(n[5], hub, lan);
        assert_eq!(neighbours(&net, hub), ids(&[n[7], n[5]]));
        assert!(net.fewer_links(n[4].0, hub.0) && !net.fewer_links(hub.0, n[4].0));
        assert!(net.fewer_links(n[4].0, n[3].0), "one each");
    }
}
