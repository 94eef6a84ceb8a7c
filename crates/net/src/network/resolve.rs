//! Cold route resolution: everything [`Network`] does on a `routes` miss,
//! once per pair and topology change (DESIGN.md §9, "Routing").
//!
//! Many pairs share an endpoint — every device asks for the cloud, every
//! device of an edge asks for that edge — so the shortest-path search is
//! rooted at the shared endpoint and kept: it settles nodes only until the
//! asked one is settled and picks up from its frontier on the next ask.
//!
//! The answer for a pair must not depend on which end the search was rooted
//! at. It is defined as what a search rooted at the *sender* finds: on
//! equal-cost paths each node's predecessor is the one settled first, in
//! (distance, index) order. [`Search::route`] reproduces that from a
//! receiver-rooted search.
//!
//! riot-lint: allow-file(A1, reason = "reached from Network::route only on a routes miss, once per pair and topology change; the per-message path is the cached hop walk in network.rs")
//! riot-lint: allow-file(P1, reason = "per-node vectors are sized to the node count when a search starts and indexed by node ids minted by Network::add_node, which drops every search")

use super::{key, CachedHop, Network, NodeKind};
use riot_sim::ProcessId;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

#[cfg(test)]
thread_local! {
    /// Nodes settled by every search on this thread: the noise-free measure
    /// of routing work the tests bound.
    pub(super) static NODES_SETTLED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Network {
    /// The `(from, to)` route flattened into per-hop link data, or `None`
    /// across a partition.
    pub(super) fn cold_hops(&mut self, from: usize, to: usize) -> Option<Box<[CachedHop]>> {
        self.path_indices(from, to).map(|path| {
            path.windows(2)
                .map(|pair| {
                    let k = key(ProcessId(pair[0]), ProcessId(pair[1]));
                    let link = self.links[&k];
                    CachedHop {
                        loss: link.loss,
                        latency: link.latency,
                        factor: self.degraded.get(&k).copied(),
                    }
                })
                .collect()
        })
    }

    pub(super) fn path_indices(&mut self, from: usize, to: usize) -> Option<Vec<usize>> {
        if from >= self.nodes.len() || to >= self.nodes.len() {
            return None;
        }
        if let Some(cached) = self.path_cache.get(&(from, to)) {
            return cached.clone();
        }
        let result = self.dijkstra(from, to);
        self.path_cache.insert((from, to), result.clone());
        if let Some(p) = &result {
            // A path is symmetric under this cost model; prime the reverse.
            let mut rev = p.clone();
            rev.reverse();
            self.path_cache.insert((to, from), Some(rev));
        }
        result
    }

    /// The minimum-weight path from `from` to `to`; among equal-cost paths
    /// the one a search rooted at `from` finds (see [`Search::route`]).
    ///
    /// The search is rooted at whichever end is likelier to be asked for
    /// again — one that already has a live search, else the higher tier,
    /// else `from` — and resumed on the next ask, so a fleet asking for its
    /// cloud shares one search. Device-rooted searches are not kept:
    /// device-to-device traffic would otherwise hold O(devices × nodes).
    pub(super) fn dijkstra(&mut self, from: usize, to: usize) -> Option<Vec<usize>> {
        let rank = |n: usize| {
            let tier = match self.nodes[n].kind {
                NodeKind::Device => 0,
                NodeKind::Edge => 1,
                NodeKind::Cloud => 2,
            };
            (self.searches.contains_key(&n), tier)
        };
        let root = if rank(to) > rank(from) { to } else { from };
        let nodes = self.nodes.len();
        if self.nodes[root].kind == NodeKind::Device {
            return Search::new(root, nodes).route(from, to, self);
        }
        // A search reads the rest of `self` while it runs.
        let mut searches = std::mem::take(&mut self.searches);
        let search = searches
            .entry(root)
            .or_insert_with(|| Search::new(root, nodes));
        let path = search.route(from, to, self);
        self.searches = searches;
        path
    }

    /// The neighbours of `u` over links that are not cut, each with the
    /// link's routing weight: its mean latency in µs, at least 1.
    fn usable_links(&self, u: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.adjacency[u].iter().filter_map(move |&v| {
            let k = key(ProcessId(u), ProcessId(v));
            if self.cut.contains(&k) {
                return None;
            }
            Some((v, self.links[&k].latency.mean().as_micros().max(1)))
        })
    }

    /// The per-pair search `dijkstra` replaced, kept as the tests' oracle:
    /// a throw-away whole-graph search rooted at `from`.
    #[cfg(test)]
    pub(super) fn dijkstra_oracle(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        let n = self.nodes.len();
        let mut dist = vec![u64::MAX; n];
        let mut prev = vec![usize::MAX; n];
        let mut heap = BinaryHeap::new();
        dist[from] = 0;
        heap.push(Reverse((0u64, from)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if u == to {
                break;
            }
            if d > dist[u] {
                continue;
            }
            for &v in &self.adjacency[u] {
                let k = if u <= v { (u, v) } else { (v, u) };
                if self.cut.contains(&k) {
                    continue;
                }
                let link = &self.links[&k];
                let w = link.latency.mean().as_micros().max(1);
                let nd = d.saturating_add(w);
                if nd < dist[v] {
                    dist[v] = nd;
                    prev[v] = u;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        if dist[to] == u64::MAX {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = prev[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Dijkstra's search from one root, suspended between asks.
///
/// Weights are ≥ 1, so every node that can still improve `v` or tie with it
/// is settled before `v`: once `v` is settled its `dist`, `prev` and `tied`
/// are final, whatever the search settles later.
#[derive(Debug)]
pub(super) struct Search {
    root: usize,
    dist: Vec<u64>,
    /// The neighbour that first reached this node at its `dist`.
    prev: Vec<usize>,
    settled: Vec<bool>,
    /// A second neighbour reached this node at the same `dist`.
    tied: Vec<bool>,
    frontier: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Search {
    fn new(root: usize, nodes: usize) -> Self {
        let mut dist = vec![u64::MAX; nodes];
        dist[root] = 0;
        Search {
            root,
            dist,
            prev: vec![usize::MAX; nodes],
            settled: vec![false; nodes],
            tied: vec![false; nodes],
            frontier: BinaryHeap::from([Reverse((0, root))]),
        }
    }

    /// Settles nodes in (distance, index) order until `target` is settled
    /// or the root's component is exhausted.
    fn settle_until(&mut self, target: usize, net: &Network) {
        while !self.settled[target] {
            let Some(Reverse((d, u))) = self.frontier.pop() else {
                return;
            };
            if d > self.dist[u] {
                continue;
            }
            self.settled[u] = true;
            #[cfg(test)]
            NODES_SETTLED.with(|n| n.set(n.get() + 1));
            for (v, w) in net.usable_links(u) {
                let nd = d.saturating_add(w);
                if nd < self.dist[v] {
                    self.dist[v] = nd;
                    self.prev[v] = u;
                    self.tied[v] = false;
                    self.frontier.push(Reverse((nd, v)));
                } else if nd == self.dist[v] {
                    self.tied[v] = true;
                }
            }
        }
    }

    /// The route from `from` to `to`, one of which is this search's root,
    /// or `None` when they are not connected — the path a search rooted at
    /// `from` finds, whichever end this one is rooted at.
    fn route(&mut self, from: usize, to: usize, net: &Network) -> Option<Vec<usize>> {
        debug_assert!(self.root == from || self.root == to);
        if self.root == from {
            self.settle_until(to, net);
            if !self.settled[to] {
                return None;
            }
            let mut path = vec![to];
            let mut cur = to;
            while cur != from {
                cur = self.prev[cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        self.settle_until(from, net);
        if !self.settled[from] {
            return None;
        }
        // Receiver-rooted: the `prev` chain already runs from `from` to
        // `to`. If no node on it is tied it is the only shortest path.
        let mut path = vec![from];
        let mut cur = from;
        let mut unique = true;
        while cur != to {
            unique &= !self.tied[cur];
            cur = self.prev[cur];
            path.push(cur);
        }
        if unique {
            Some(path)
        } else {
            Some(self.sender_side_path(from, to, net))
        }
    }

    /// Among several shortest paths, the one a `from`-rooted search keeps,
    /// worked out from this `to`-rooted search's distances.
    ///
    /// A `from`-rooted search gives each node the predecessor it settled
    /// first: the smallest (distance from `from`, index). On a shortest
    /// `from`–`to` path distance from `from` is the total minus distance to
    /// `to`, so that is the largest `dist` here, then the smallest index.
    fn sender_side_path(&self, from: usize, to: usize, net: &Network) -> Vec<usize> {
        // Every link on a shortest `from`–`to` path, as (node, the node
        // before it), found by walking downhill in `dist` from `from`. Only
        // a tied node has more than its `prev` below it.
        let mut steps: Vec<(usize, usize)> = Vec::new();
        let mut seen = BTreeSet::from([from]);
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                continue;
            }
            let mut step = |y: usize| {
                steps.push((y, x));
                if seen.insert(y) {
                    stack.push(y);
                }
            };
            if self.tied[x] {
                for (y, w) in net.usable_links(x) {
                    if self.dist[y].saturating_add(w) == self.dist[x] {
                        step(y);
                    }
                }
            } else {
                step(self.prev[x]);
            }
        }
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = steps
                .iter()
                .filter(|&&(y, _)| y == cur)
                .map(|&(_, x)| x)
                .min_by_key(|&x| (Reverse(self.dist[x]), x))
                .expect("every node reached downhill from `from` was reached from a node");
            path.push(cur);
        }
        path.reverse();
        path
    }
}
