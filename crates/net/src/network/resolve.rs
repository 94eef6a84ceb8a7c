//! Cold route resolution: everything [`Network`] does when a lookup finds
//! no fresh route, once per pair and change that could alter it (DESIGN.md
//! §9, "Routing").
//!
//! Many pairs share an endpoint — every device asks for the cloud, every
//! device of an edge asks for that edge — so the shortest-path search is
//! rooted at the shared endpoint and kept: it settles nodes only until the
//! asked one is settled and picks up from its frontier on the next ask.
//!
//! What a search answers must not depend on which end it was rooted at. It
//! is what a search rooted at the *sender* finds: on equal-cost paths each
//! node's predecessor is the one settled first, in (distance, index) order.
//! [`Search::route`] reproduces that from a receiver-rooted search.
//!
//! That defines the path of the direction asked *first*. The other
//! direction is primed with its reverse, which under equal-cost ties is not
//! what a search from its own sender returns: a tied pair's two paths are
//! whichever end asked first since the pair was last forgotten. So a route
//! with an equal-cost alternative is forgotten at every topology change, as
//! every route once was, and only a unique shortest path — the same from
//! either end, in any ask order — is ever kept across one.
//!
//! riot-lint: allow-file(A1, reason = "reached from Network::route only when a lookup finds no fresh route, once per pair and change that could alter it; the per-message path is the lookup and the hop walk in network.rs")
//! riot-lint: allow-file(P1, reason = "per-node vectors are sized to the node count when a search starts and indexed by node ids minted by Network::add_node, which drops every search; link ids come from the adjacency lists")

use super::{Network, NodeKind, Route, RouteTable};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// A path a search found: the ids of its links in travel order, and whether
/// it is the only shortest one.
pub(super) struct Found {
    hops: Vec<u32>,
    unique: bool,
}

impl RouteTable {
    /// Writes the route to `to` at `at` (where [`RouteTable::find`] found
    /// it, or where it belongs), over the range the entry already owns when
    /// the hops fit there.
    fn put(
        &mut self,
        at: Result<usize, usize>,
        to: usize,
        hops: impl ExactSizeIterator<Item = u32>,
        unique: bool,
        stamp: u64,
    ) -> Route {
        let i = at.unwrap_or_else(|i| {
            let empty = Route {
                to: to as u32,
                start: 0,
                len: 0,
                cap: 0,
                unique,
                stamp,
            };
            self.routes.insert(i, empty);
            i
        });
        let route = &mut self.routes[i];
        let len = hops.len();
        if len > route.cap as usize {
            route.start = self.hops.len() as u32;
            route.cap = len as u32;
            self.hops.extend(hops);
        } else {
            for (slot, id) in self.hops[route.start as usize..].iter_mut().zip(hops) {
                *slot = id;
            }
        }
        route.len = len as u32;
        route.unique = unique;
        route.stamp = stamp;
        *route
    }
}

impl Network {
    /// Resolves the `(from, to)` route and records it in `from`'s table at
    /// `at`; no hops record a partition. A path is symmetric under this cost
    /// model, so its reverse is written into `to`'s table, over whatever is
    /// there, with the same stamp and the same claim to uniqueness.
    pub(super) fn resolve(&mut self, from: usize, to: usize, at: Result<usize, usize>) -> Route {
        self.stats.cold += 1;
        self.stats.stale += u64::from(at.is_ok());
        let stamp = self.clock;
        let Some(found) = self.search(from, to) else {
            return self.routes[from].put(at, to, [].into_iter(), true, stamp);
        };
        let hops = found.hops.iter().copied();
        let back = self.routes[to].find(from);
        self.routes[to].put(back, from, hops.clone().rev(), found.unique, stamp);
        self.stats.primed += 1;
        self.routes[from].put(at, to, hops, found.unique, stamp)
    }

    /// The nodes along `hops` starting at `from`, both ends included.
    pub(super) fn nodes_along(&self, from: usize, hops: &[u32]) -> Vec<usize> {
        let mut path = Vec::with_capacity(hops.len() + 1);
        let mut cur = from;
        path.push(cur);
        for &id in hops {
            cur = self.links[id as usize].other(cur);
            path.push(cur);
        }
        path
    }

    /// The minimum-weight path from `from` to `to`; among equal-cost paths
    /// the one a search rooted at `from` finds (see [`Search::route`]).
    ///
    /// The search is rooted at whichever end is likelier to be asked for
    /// again — one that already has a live search, else the higher tier,
    /// else `from` — and resumed on the next ask, so a fleet asking for its
    /// cloud shares one search. Device-rooted searches are not kept:
    /// device-to-device traffic would otherwise hold O(devices × nodes).
    fn search(&mut self, from: usize, to: usize) -> Option<Found> {
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
        let mut settled = 0;
        let found = if self.nodes[root].kind == NodeKind::Device {
            self.stats.searches += 1;
            Search::new(root, nodes).route(from, to, self, &mut settled)
        } else {
            // A search reads the rest of `self` while it runs.
            let mut searches = std::mem::take(&mut self.searches);
            let search = searches.entry(root).or_insert_with(|| {
                self.stats.searches += 1;
                Search::new(root, nodes)
            });
            let found = search.route(from, to, self, &mut settled);
            self.searches = searches;
            found
        };
        self.stats.settled += settled;
        found
    }

    /// [`Network::search`] as a node path, for the tests that hold it
    /// against the oracle.
    #[cfg(test)]
    pub(super) fn dijkstra(&mut self, from: usize, to: usize) -> Option<Vec<usize>> {
        self.search(from, to)
            .map(|found| self.nodes_along(from, &found.hops))
    }

    /// The neighbours of `u` over links that are not cut, each with the
    /// link's routing weight and id.
    fn usable_links(&self, u: usize) -> impl Iterator<Item = (usize, u64, u32)> + '_ {
        self.adjacency[u].iter().filter_map(move |&(v, id)| {
            let slot = &self.links[id as usize];
            (!slot.cut).then_some((v as usize, slot.weight, id))
        })
    }

    /// The per-pair search `search` replaced, kept as the tests' oracle: a
    /// throw-away whole-graph search rooted at `from`.
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
            for &(v, id) in &self.adjacency[u] {
                let (v, slot) = (v as usize, &self.links[id as usize]);
                if slot.cut {
                    continue;
                }
                let w = slot.link.latency.mean().as_micros().max(1);
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
/// is settled before `v`: once `v` is settled its `dist`, `via` and `tied`
/// are final, whatever the search settles later.
#[derive(Debug)]
pub(super) struct Search {
    root: usize,
    dist: Vec<u64>,
    /// The link that first reached this node at its `dist`.
    via: Vec<u32>,
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
            via: vec![u32::MAX; nodes],
            settled: vec![false; nodes],
            tied: vec![false; nodes],
            frontier: BinaryHeap::from([Reverse((0, root))]),
        }
    }

    /// Settles nodes in (distance, index) order until `target` is settled
    /// or the root's component is exhausted, counting them into `settled`.
    fn settle_until(&mut self, target: usize, net: &Network, settled: &mut u64) {
        while !self.settled[target] {
            let Some(Reverse((d, u))) = self.frontier.pop() else {
                return;
            };
            if d > self.dist[u] {
                continue;
            }
            self.settled[u] = true;
            *settled += 1;
            for (v, w, id) in net.usable_links(u) {
                let nd = d.saturating_add(w);
                if nd < self.dist[v] {
                    self.dist[v] = nd;
                    self.via[v] = id;
                    self.tied[v] = false;
                    self.frontier.push(Reverse((nd, v)));
                } else if nd == self.dist[v] {
                    self.tied[v] = true;
                }
            }
        }
    }

    /// The `via` chain from the settled node `start` down to the root, as
    /// link ids in that order, and whether it is the only shortest path
    /// between the two: no node on it is tied.
    fn chain(&self, start: usize, net: &Network) -> Found {
        let mut hops = Vec::new();
        let mut unique = true;
        let mut cur = start;
        while cur != self.root {
            unique &= !self.tied[cur];
            hops.push(self.via[cur]);
            cur = net.links[self.via[cur] as usize].other(cur);
        }
        Found { hops, unique }
    }

    /// The route from `from` to `to`, one of which is this search's root,
    /// or `None` when they are not connected — the path a search rooted at
    /// `from` finds, whichever end this one is rooted at.
    fn route(&mut self, from: usize, to: usize, net: &Network, settled: &mut u64) -> Option<Found> {
        debug_assert!(self.root == from || self.root == to);
        let far = if self.root == from { to } else { from };
        self.settle_until(far, net, settled);
        if !self.settled[far] {
            return None;
        }
        let mut found = self.chain(far, net);
        if self.root == from {
            found.hops.reverse();
        } else if !found.unique {
            // Receiver-rooted, and the chain is one of several shortest
            // paths: the sender would have made its own choice among them.
            found.hops = self.sender_side_path(from, to, net);
        }
        Some(found)
    }

    /// Among several shortest paths, the one a `from`-rooted search keeps,
    /// worked out from this `to`-rooted search's distances.
    ///
    /// A `from`-rooted search gives each node the predecessor it settled
    /// first: the smallest (distance from `from`, index). On a shortest
    /// `from`–`to` path distance from `from` is the total minus distance to
    /// `to`, so that is the largest `dist` here, then the smallest index.
    fn sender_side_path(&self, from: usize, to: usize, net: &Network) -> Vec<u32> {
        // Every link on a shortest `from`–`to` path, as (node, the node
        // before it, the link between), found by walking downhill in `dist`
        // from `from`. Only a tied node has more than its `via` below it.
        let mut steps: Vec<(usize, usize, u32)> = Vec::new();
        let mut seen = BTreeSet::from([from]);
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                continue;
            }
            let mut step = |y: usize, id: u32| {
                steps.push((y, x, id));
                if seen.insert(y) {
                    stack.push(y);
                }
            };
            if self.tied[x] {
                for (y, w, id) in net.usable_links(x) {
                    if self.dist[y].saturating_add(w) == self.dist[x] {
                        step(y, id);
                    }
                }
            } else {
                step(net.links[self.via[x] as usize].other(x), self.via[x]);
            }
        }
        let mut hops = Vec::new();
        let mut cur = to;
        while cur != from {
            let (id, before) = steps
                .iter()
                .filter(|&&(y, _, _)| y == cur)
                .map(|&(_, x, id)| (id, x))
                .min_by_key(|&(_, x)| (Reverse(self.dist[x]), x))
                .expect("every node reached downhill from `from` was reached from a node");
            hops.push(id);
            cur = before;
        }
        hops.reverse();
        hops
    }
}
