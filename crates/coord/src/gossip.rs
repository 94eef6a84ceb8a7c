//! Epidemic dissemination of versioned state.
//!
//! Decentralized coordination needs a way to spread facts — configuration
//! changes, leader announcements, scope assignments — without a broker.
//! [`Gossip`] keeps a store of versioned entries and pushes *hot* (recently
//! changed) entries to `fanout` random peers each round; receivers keep the
//! freshest version per key and re-gossip anything that was news to them.
//! With fanout `f`, a rumor reaches `n` nodes in `O(log_f n)` rounds — the
//! ablation experiment A1 measures exactly this curve.

use riot_sim::{ProcessId, SimRng};
use std::collections::BTreeMap;

/// One versioned entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<T> {
    /// Monotone per-key version; higher wins.
    pub version: u64,
    /// The value.
    pub value: T,
}

/// A gossip exchange message: a batch of entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipMsg<T> {
    /// `(key, entry)` pairs.
    pub entries: Vec<(u64, Entry<T>)>,
}

/// Tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipConfig {
    /// Peers contacted per round.
    pub fanout: usize,
    /// Rounds an entry stays hot after changing locally.
    pub rounds_hot: u32,
    /// Maximum entries per message.
    pub batch_limit: usize,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            fanout: 3,
            rounds_hot: 4,
            batch_limit: 16,
        }
    }
}

/// The gossip state machine for one node.
///
/// # Examples
///
/// ```
/// use riot_coord::{Gossip, GossipConfig};
/// use riot_sim::{ProcessId, SimRng};
///
/// let mut a: Gossip<String> = Gossip::new(GossipConfig::default());
/// let mut b: Gossip<String> = Gossip::new(GossipConfig::default());
/// a.publish(1, "leader=edge-2".to_owned());
///
/// let mut rng = SimRng::seed_from(0);
/// let sends = a.tick(&[ProcessId(1)], &mut rng);
/// for (_, msg) in sends {
///     b.on_message(msg);
/// }
/// assert_eq!(b.get(1).map(String::as_str), Some("leader=edge-2"));
/// ```
#[derive(Debug, Clone)]
pub struct Gossip<T> {
    cfg: GossipConfig,
    store: BTreeMap<u64, Entry<T>>,
    /// Keys that are still hot → rounds remaining.
    hot: BTreeMap<u64, u32>,
}

impl<T: Clone> Gossip<T> {
    /// Creates an empty store.
    pub fn new(cfg: GossipConfig) -> Self {
        Gossip {
            cfg,
            store: BTreeMap::new(),
            hot: BTreeMap::new(),
        }
    }

    /// Publishes a new value under `key`, bumping its version, and marks it
    /// hot. Returns the new version.
    pub fn publish(&mut self, key: u64, value: T) -> u64 {
        let version = self.store.get(&key).map(|e| e.version + 1).unwrap_or(1);
        self.store.insert(key, Entry { version, value });
        self.hot.insert(key, self.cfg.rounds_hot);
        version
    }

    /// The freshest known value for `key`.
    pub fn get(&self, key: u64) -> Option<&T> {
        self.store.get(&key).map(|e| &e.value)
    }

    /// One gossip round: returns `(peer, message)` sends for `fanout`
    /// random peers, carrying the hot entries. No-op when nothing is hot or
    /// `peers` is empty.
    pub fn tick(
        &mut self,
        peers: &[ProcessId],
        rng: &mut SimRng,
    ) -> Vec<(ProcessId, GossipMsg<T>)> {
        if self.hot.is_empty() || peers.is_empty() {
            return Vec::new();
        }
        let entries: Vec<(u64, Entry<T>)> = self
            .hot
            .keys()
            .take(self.cfg.batch_limit)
            .filter_map(|k| self.store.get(k).map(|e| (*k, e.clone())))
            .collect();
        // Age hot entries.
        self.hot.retain(|_, rounds| {
            *rounds -= 1;
            *rounds > 0
        });
        let mut targets: Vec<ProcessId> = peers.to_vec();
        rng.shuffle(&mut targets);
        targets
            .into_iter()
            .take(self.cfg.fanout)
            .map(|p| {
                (
                    p,
                    GossipMsg {
                        entries: entries.clone(),
                    },
                )
            })
            .collect()
    }

    /// Merges a received message; entries that were news become hot (and
    /// will be re-gossiped). Returns the keys that changed.
    pub fn on_message(&mut self, msg: GossipMsg<T>) -> Vec<u64> {
        let mut changed = Vec::new();
        for (key, entry) in msg.entries {
            let fresher = self
                .store
                .get(&key)
                .map(|e| entry.version > e.version)
                .unwrap_or(true);
            if fresher {
                self.store.insert(key, entry);
                self.hot.insert(key, self.cfg.rounds_hot);
                changed.push(key);
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_bumps_versions() {
        let mut g: Gossip<u32> = Gossip::new(GossipConfig::default());
        assert_eq!(g.get(9), None);
        assert_eq!(g.publish(9, 10), 1);
        assert_eq!(g.publish(9, 11), 2);
        assert_eq!(g.get(9), Some(&11));
    }

    #[test]
    fn stale_entries_are_rejected() {
        let mut g: Gossip<u32> = Gossip::new(GossipConfig::default());
        g.publish(1, 5); // version 1
        g.publish(1, 6); // version 2
        let stale = GossipMsg {
            entries: vec![(
                1,
                Entry {
                    version: 1,
                    value: 99,
                },
            )],
        };
        assert!(g.on_message(stale).is_empty());
        assert_eq!(g.get(1), Some(&6));
        let fresh = GossipMsg {
            entries: vec![(
                1,
                Entry {
                    version: 7,
                    value: 42,
                },
            )],
        };
        assert_eq!(g.on_message(fresh), vec![1]);
        assert_eq!(g.get(1), Some(&42));
    }

    #[test]
    fn hot_entries_cool_down() {
        let cfg = GossipConfig {
            fanout: 1,
            rounds_hot: 2,
            batch_limit: 16,
        };
        let mut g: Gossip<u32> = Gossip::new(cfg);
        g.publish(1, 5);
        let peers = [ProcessId(1)];
        let mut rng = SimRng::seed_from(0);
        assert_eq!(g.tick(&peers, &mut rng).len(), 1);
        assert_eq!(g.tick(&peers, &mut rng).len(), 1);
        assert!(
            g.tick(&peers, &mut rng).is_empty(),
            "entry retired after rounds_hot"
        );
    }

    #[test]
    fn received_news_is_regossiped() {
        let mut g: Gossip<u32> = Gossip::new(GossipConfig::default());
        g.on_message(GossipMsg {
            entries: vec![(
                3,
                Entry {
                    version: 1,
                    value: 7,
                },
            )],
        });
        let mut rng = SimRng::seed_from(0);
        let sends = g.tick(&[ProcessId(5)], &mut rng);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].1.entries[0].0, 3);
    }

    #[test]
    fn fanout_bounds_sends() {
        let cfg = GossipConfig {
            fanout: 2,
            ..GossipConfig::default()
        };
        let mut g: Gossip<u32> = Gossip::new(cfg);
        g.publish(1, 1);
        let peers: Vec<ProcessId> = (1..10).map(ProcessId).collect();
        let mut rng = SimRng::seed_from(1);
        let sends = g.tick(&peers, &mut rng);
        assert_eq!(sends.len(), 2);
        let mut targets: Vec<usize> = sends.iter().map(|(p, _)| p.0).collect();
        targets.dedup();
        assert_eq!(targets.len(), 2, "distinct targets");
    }

    #[test]
    fn rumor_spreads_through_a_cluster_in_logarithmic_rounds() {
        let n = 32;
        let cfg = GossipConfig::default();
        let mut nodes: Vec<Gossip<u32>> = (0..n).map(|_| Gossip::new(cfg)).collect();
        let ids: Vec<ProcessId> = (0..n).map(ProcessId).collect();
        let mut rng = SimRng::seed_from(11);
        nodes[0].publish(77, 123);
        let mut rounds = 0;
        while nodes.iter().any(|g| g.get(77).is_none()) {
            rounds += 1;
            assert!(rounds < 30, "rumor failed to spread");
            for i in 0..n {
                let peers: Vec<ProcessId> = ids.iter().copied().filter(|p| p.0 != i).collect();
                let sends = nodes[i].tick(&peers, &mut rng);
                for (to, msg) in sends {
                    nodes[to.0].on_message(msg);
                }
            }
        }
        assert!(
            rounds <= 8,
            "fanout-3 should cover 32 nodes fast, took {rounds}"
        );
        assert!(nodes.iter().all(|g| g.get(77) == Some(&123)));
    }
}
