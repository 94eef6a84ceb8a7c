//! SWIM-style failure detection and membership dissemination.
//!
//! The paper's decentralization thesis (§V-B) needs every edge component to
//! know, without a central registry, which peers are alive. [`Swim`]
//! implements the SWIM protocol as a sans-I/O state machine:
//!
//! * periodic round-robin **probing** (`Ping`/`Ack`),
//! * **indirect probing** through `k` intermediaries (`PingReq`) before
//!   suspecting a silent peer,
//! * **suspicion with refutation**: a suspected node that sees its own
//!   suspicion raises its incarnation and gossips `Alive`,
//! * **piggybacked dissemination** of membership updates on every message.
//!
//! Drive the machine by calling [`Swim::tick`] at a fixed period finer than
//! [`SwimConfig::probe_timeout`] and [`Swim::on_message`] for each
//! delivered message; both return [`SwimOutput`] actions for the caller to
//! execute.

use crate::member::{MemberState, MembershipView, Update};
use riot_sim::{ProcessId, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

/// Protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwimMsg {
    /// Direct probe.
    Ping {
        /// Probe sequence number.
        seq: u64,
        /// Piggybacked updates.
        updates: Vec<Update>,
    },
    /// Probe acknowledgment.
    Ack {
        /// Sequence being acknowledged.
        seq: u64,
        /// Piggybacked updates.
        updates: Vec<Update>,
    },
    /// Ask an intermediary to probe `target` on our behalf.
    PingReq {
        /// Requester's probe sequence.
        seq: u64,
        /// The silent node to probe.
        target: ProcessId,
        /// Piggybacked updates.
        updates: Vec<Update>,
    },
    /// Intermediary's report that `target` answered.
    IndirectAck {
        /// The requester's probe sequence.
        seq: u64,
        /// The node that answered.
        target: ProcessId,
        /// Piggybacked updates.
        updates: Vec<Update>,
    },
}

/// Actions and notifications produced by the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwimOutput {
    /// Send a message.
    Send {
        /// Destination.
        to: ProcessId,
        /// Message.
        msg: SwimMsg,
    },
    /// A peer's believed state changed.
    StateChange {
        /// The peer.
        node: ProcessId,
        /// Previous belief.
        from: MemberState,
        /// New belief.
        to: MemberState,
    },
}

/// Number of intermediaries asked on a probe timeout.
const INDIRECT_PROBES: usize = 3;
/// Maximum updates piggybacked per message.
const PIGGYBACK_LIMIT: usize = 6;
/// Times each local update is retransmitted before retiring.
const RETRANSMIT: u32 = 8;

/// Protocol timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwimConfig {
    /// Gap between successive probe rounds.
    pub probe_period: SimDuration,
    /// Wait before resorting to indirect probes.
    pub probe_timeout: SimDuration,
    /// How long a suspect may refute before being declared dead.
    pub suspicion_timeout: SimDuration,
}

impl Default for SwimConfig {
    fn default() -> Self {
        SwimConfig {
            probe_period: SimDuration::from_millis(1_000),
            probe_timeout: SimDuration::from_millis(300),
            suspicion_timeout: SimDuration::from_millis(3_000),
        }
    }
}

#[derive(Debug, Clone)]
struct ProbeState {
    target: ProcessId,
    seq: u64,
    started: SimTime,
    indirect_sent: bool,
}

#[derive(Debug, Clone)]
struct PendingRelay {
    requester: ProcessId,
    seq: u64,
    target: ProcessId,
}

/// The SWIM state machine for one node.
#[derive(Debug, Clone)]
pub struct Swim {
    me: ProcessId,
    cfg: SwimConfig,
    view: MembershipView,
    incarnation: u64,
    next_seq: u64,
    last_probe_at: Option<SimTime>,
    probe: Option<ProbeState>,
    /// Relays we owe an IndirectAck for, keyed by our local probe seq.
    relays: BTreeMap<u64, PendingRelay>,
    /// Dissemination queue: update → remaining retransmissions.
    queue: Vec<(Update, u32)>,
}

impl Swim {
    /// Creates a machine for `me` with seed peers believed alive.
    pub fn new(
        me: ProcessId,
        peers: impl IntoIterator<Item = ProcessId>,
        cfg: SwimConfig,
        now: SimTime,
    ) -> Self {
        let peers: Vec<ProcessId> = peers.into_iter().filter(|p| *p != me).collect();
        Swim {
            me,
            cfg,
            view: MembershipView::seeded(peers, now),
            incarnation: 0,
            next_seq: 0,
            last_probe_at: None,
            probe: None,
            relays: BTreeMap::new(),
            queue: Vec::new(),
        }
    }

    /// The local membership view.
    pub fn view(&self) -> &MembershipView {
        &self.view
    }

    /// Peers currently believed alive (never includes `me`).
    pub fn alive_peers(&self) -> Vec<ProcessId> {
        self.view.alive()
    }

    /// This node's incarnation number.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    fn take_piggyback(&mut self) -> Vec<Update> {
        let mut out = Vec::new();
        for (u, remaining) in self.queue.iter_mut() {
            if out.len() >= PIGGYBACK_LIMIT {
                break;
            }
            if *remaining > 0 {
                out.push(*u);
                *remaining -= 1;
            }
        }
        self.queue.retain(|(_, r)| *r > 0);
        out
    }

    fn enqueue(&mut self, update: Update) {
        // Replace any queued assertion about the same node.
        self.queue.retain(|(u, _)| u.node != update.node);
        self.queue.push((update, RETRANSMIT));
    }

    fn apply_update(&mut self, update: Update, now: SimTime, out: &mut Vec<SwimOutput>) {
        if update.node == self.me {
            // Someone believes we are suspect/dead: refute loudly.
            if update.state != MemberState::Alive && update.incarnation >= self.incarnation {
                self.incarnation = update.incarnation + 1;
                let refute = Update {
                    node: self.me,
                    state: MemberState::Alive,
                    incarnation: self.incarnation,
                };
                self.enqueue(refute);
            }
            return;
        }
        if let Some(prev) = self.view.apply(update, now) {
            // riot-lint: allow(P1, reason = "apply() returned Some, so the node is present in the view")
            let info = self.view.get(update.node).expect("just applied");
            if prev != info.state {
                out.push(SwimOutput::StateChange {
                    node: update.node,
                    from: prev,
                    to: info.state,
                });
            }
            // Propagate what we learned.
            self.enqueue(Update {
                node: update.node,
                state: info.state,
                incarnation: info.incarnation,
            });
        }
    }

    fn apply_all(&mut self, updates: Vec<Update>, now: SimTime, out: &mut Vec<SwimOutput>) {
        for u in updates {
            self.apply_update(u, now, out);
        }
    }

    fn mark(
        &mut self,
        node: ProcessId,
        state: MemberState,
        now: SimTime,
        out: &mut Vec<SwimOutput>,
    ) {
        let inc = self.view.get(node).map(|i| i.incarnation).unwrap_or(0);
        let update = Update {
            node,
            state,
            incarnation: inc,
        };
        if let Some(prev) = self.view.apply(update, now) {
            // riot-lint: allow(P1, reason = "apply() returned Some, so the node is present in the view")
            let new = self.view.get(node).expect("applied").state;
            if prev != new {
                out.push(SwimOutput::StateChange {
                    node,
                    from: prev,
                    to: new,
                });
            }
            self.enqueue(update);
        }
    }

    /// Periodic step; call at a fixed period finer than
    /// [`SwimConfig::probe_timeout`].
    pub fn tick(&mut self, now: SimTime, rng: &mut SimRng) -> Vec<SwimOutput> {
        let mut out = Vec::new();

        // 1. Expire suspicions.
        let expired: Vec<ProcessId> = self
            .view
            .iter()
            .filter(|(_, i)| {
                i.state == MemberState::Suspect
                    && now.saturating_since(i.since) >= self.cfg.suspicion_timeout
            })
            .map(|(p, _)| p)
            .collect();
        for node in expired {
            self.mark(node, MemberState::Dead, now, &mut out);
        }

        // 2. Probe lifecycle.
        if let Some(probe) = self.probe.clone() {
            let elapsed = now.saturating_since(probe.started);
            if elapsed >= self.cfg.probe_timeout && !probe.indirect_sent {
                let mut candidates: Vec<ProcessId> = self
                    .alive_peers()
                    .into_iter()
                    .filter(|p| *p != probe.target)
                    .collect();
                rng.shuffle(&mut candidates);
                for relay in candidates.into_iter().take(INDIRECT_PROBES) {
                    let updates = self.take_piggyback();
                    out.push(SwimOutput::Send {
                        to: relay,
                        msg: SwimMsg::PingReq {
                            seq: probe.seq,
                            target: probe.target,
                            updates,
                        },
                    });
                }
                if let Some(p) = self.probe.as_mut() {
                    p.indirect_sent = true;
                }
            } else if elapsed >= self.cfg.probe_timeout * 2 {
                // Direct and indirect windows elapsed: suspect.
                self.mark(probe.target, MemberState::Suspect, now, &mut out);
                self.probe = None;
            }
        }

        // 3. Start a new probe round.
        let due = match self.last_probe_at {
            None => true,
            Some(t) => now.saturating_since(t) >= self.cfg.probe_period,
        };
        if due && self.probe.is_none() {
            let alive = self.alive_peers();
            if let Some(&target) = rng.pick(&alive) {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.last_probe_at = Some(now);
                self.probe = Some(ProbeState {
                    target,
                    seq,
                    started: now,
                    indirect_sent: false,
                });
                let updates = self.take_piggyback();
                out.push(SwimOutput::Send {
                    to: target,
                    msg: SwimMsg::Ping { seq, updates },
                });
            }
        }
        out
    }

    /// Handles one delivered protocol message.
    pub fn on_message(&mut self, now: SimTime, from: ProcessId, msg: SwimMsg) -> Vec<SwimOutput> {
        let mut out = Vec::new();
        match msg {
            SwimMsg::Ping { seq, updates } => {
                self.apply_all(updates, now, &mut out);
                // Hearing from a peer proves it is alive.
                self.learn_alive(from, now, &mut out);
                let reply_updates = self.take_piggyback();
                out.push(SwimOutput::Send {
                    to: from,
                    msg: SwimMsg::Ack {
                        seq,
                        updates: reply_updates,
                    },
                });
            }
            SwimMsg::Ack { seq, updates } => {
                self.apply_all(updates, now, &mut out);
                self.learn_alive(from, now, &mut out);
                // Complete our own probe...
                if self
                    .probe
                    .as_ref()
                    .is_some_and(|p| p.seq == seq && p.target == from)
                {
                    self.probe = None;
                }
                // ...or relay an indirect ack we owe.
                if let Some(relay) = self.relays.remove(&seq) {
                    let updates = self.take_piggyback();
                    out.push(SwimOutput::Send {
                        to: relay.requester,
                        msg: SwimMsg::IndirectAck {
                            seq: relay.seq,
                            target: relay.target,
                            updates,
                        },
                    });
                }
            }
            SwimMsg::PingReq {
                seq,
                target,
                updates,
            } => {
                self.apply_all(updates, now, &mut out);
                self.learn_alive(from, now, &mut out);
                // Probe the target with a fresh local sequence; remember who asked.
                let local_seq = self.next_seq;
                self.next_seq += 1;
                self.relays.insert(
                    local_seq,
                    PendingRelay {
                        requester: from,
                        seq,
                        target,
                    },
                );
                let fwd_updates = self.take_piggyback();
                out.push(SwimOutput::Send {
                    to: target,
                    msg: SwimMsg::Ping {
                        seq: local_seq,
                        updates: fwd_updates,
                    },
                });
            }
            SwimMsg::IndirectAck {
                seq,
                target,
                updates,
            } => {
                self.apply_all(updates, now, &mut out);
                self.learn_alive(from, now, &mut out);
                self.learn_alive(target, now, &mut out);
                if self
                    .probe
                    .as_ref()
                    .is_some_and(|p| p.seq == seq && p.target == target)
                {
                    self.probe = None;
                }
            }
        }
        out
    }

    fn learn_alive(&mut self, node: ProcessId, now: SimTime, out: &mut Vec<SwimOutput>) {
        if node == self.me {
            return;
        }
        let inc = self.view.get(node).map(|i| i.incarnation).unwrap_or(0);
        let state = self.view.get(node).map(|i| i.state);
        // A live message refutes local suspicion at the same incarnation:
        // bump the incarnation we assert (we have direct evidence).
        let update = match state {
            Some(MemberState::Suspect) | Some(MemberState::Dead) => Update {
                node,
                state: MemberState::Alive,
                incarnation: inc + 1,
            },
            _ => Update {
                node,
                state: MemberState::Alive,
                incarnation: inc,
            },
        };
        self.apply_update(update, now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How often the tests drive [`Swim::tick`].
    const TICK: SimDuration = SimDuration::from_millis(200);

    /// A tiny synchronous harness: perfect instant network between machines.
    struct Harness {
        nodes: Vec<Swim>,
        now: SimTime,
        rng: SimRng,
        /// Indexes into `nodes` that are crashed (drop all their traffic).
        down: Vec<bool>,
        events: Vec<(ProcessId, SwimOutput)>,
    }

    impl Harness {
        fn new(n: usize, cfg: SwimConfig) -> Self {
            let ids: Vec<ProcessId> = (0..n).map(ProcessId).collect();
            let nodes = ids
                .iter()
                .map(|&me| Swim::new(me, ids.iter().copied(), cfg, SimTime::ZERO))
                .collect();
            Harness {
                nodes,
                now: SimTime::ZERO,
                rng: SimRng::seed_from(42),
                down: vec![false; n],
                events: Vec::new(),
            }
        }

        fn dispatch(&mut self, from: ProcessId, outputs: Vec<SwimOutput>) {
            let mut pending = vec![(from, outputs)];
            while let Some((src, outs)) = pending.pop() {
                for o in outs {
                    match o {
                        SwimOutput::Send { to, msg } => {
                            if self.down[src.0] || self.down[to.0] {
                                continue;
                            }
                            let replies = self.nodes[to.0].on_message(self.now, src, msg);
                            pending.push((to, replies));
                        }
                        ev @ SwimOutput::StateChange { .. } => self.events.push((src, ev)),
                    }
                }
            }
        }

        fn run(&mut self, ticks: usize) {
            for _ in 0..ticks {
                self.now += TICK;
                for i in 0..self.nodes.len() {
                    if self.down[i] {
                        continue;
                    }
                    let outs = self.nodes[i].tick(self.now, &mut self.rng);
                    self.dispatch(ProcessId(i), outs);
                }
            }
        }

        fn believed_state(&self, observer: usize, subject: usize) -> Option<MemberState> {
            self.nodes[observer]
                .view()
                .get(ProcessId(subject))
                .map(|i| i.state)
        }
    }

    #[test]
    fn healthy_cluster_stays_alive() {
        let mut h = Harness::new(5, SwimConfig::default());
        h.run(100); // 20 virtual seconds
        for obs in 0..5 {
            for subj in 0..5 {
                if obs != subj {
                    assert_eq!(
                        h.believed_state(obs, subj),
                        Some(MemberState::Alive),
                        "{obs} wrongly believes {subj} not alive"
                    );
                }
            }
        }
    }

    #[test]
    fn crashed_node_is_detected_dead_by_everyone() {
        let mut h = Harness::new(5, SwimConfig::default());
        h.run(20);
        h.down[3] = true;
        h.run(300); // a minute: ample for probe + suspicion expiry + gossip
        for obs in 0..5 {
            if obs == 3 {
                continue;
            }
            assert_eq!(
                h.believed_state(obs, 3),
                Some(MemberState::Dead),
                "node {obs} failed to detect the crash"
            );
        }
        // And no live node was wrongly declared dead.
        for obs in 0..5 {
            for subj in 0..5 {
                if obs != 3 && subj != 3 && obs != subj {
                    assert_eq!(h.believed_state(obs, subj), Some(MemberState::Alive));
                }
            }
        }
    }

    #[test]
    fn detection_goes_through_suspicion_first() {
        let mut h = Harness::new(4, SwimConfig::default());
        h.run(20);
        h.down[1] = true;
        h.run(40); // 8s: enough to suspect, and with 3s suspicion timeout also confirm
        let changes: Vec<&SwimOutput> = h
            .events
            .iter()
            .map(|(_, e)| e)
            .filter(|e| matches!(e, SwimOutput::StateChange { node, .. } if *node == ProcessId(1)))
            .collect();
        assert!(
            changes.iter().any(|e| matches!(
                e,
                SwimOutput::StateChange {
                    to: MemberState::Suspect,
                    ..
                }
            )),
            "no suspicion phase observed: {changes:?}"
        );
    }

    #[test]
    fn incarnation_bumps_on_refutation() {
        let cfg = SwimConfig::default();
        let mut node = Swim::new(
            ProcessId(0),
            [ProcessId(0), ProcessId(1)],
            cfg,
            SimTime::ZERO,
        );
        // Deliver a rumor that *we* are suspect.
        let rumor = SwimMsg::Ping {
            seq: 0,
            updates: vec![Update {
                node: ProcessId(0),
                state: MemberState::Suspect,
                incarnation: 0,
            }],
        };
        let out = node.on_message(SimTime::from_millis(10), ProcessId(1), rumor);
        assert_eq!(node.incarnation(), 1, "refutation bumps incarnation");
        // The refutation rides the piggyback of the Ack.
        let ack_updates = out.iter().find_map(|o| match o {
            SwimOutput::Send {
                msg: SwimMsg::Ack { updates, .. },
                ..
            } => Some(updates.clone()),
            _ => None,
        });
        let ups = ack_updates.expect("ack sent");
        assert!(
            ups.iter().any(|u| u.node == ProcessId(0)
                && u.state == MemberState::Alive
                && u.incarnation == 1),
            "refutation not piggybacked: {ups:?}"
        );
    }

    #[test]
    fn indirect_probe_rescues_one_way_cut() {
        // Node 0 cannot reach node 1 directly, but 2 can. We simulate by
        // dropping only the 0→1 Ping, then letting tick() fire PingReq.
        let cfg = SwimConfig::default();
        let ids = [ProcessId(0), ProcessId(1), ProcessId(2)];
        let mut n0 = Swim::new(ProcessId(0), ids, cfg, SimTime::ZERO);
        let mut n1 = Swim::new(ProcessId(1), ids, cfg, SimTime::ZERO);
        let mut n2 = Swim::new(ProcessId(2), ids, cfg, SimTime::ZERO);
        let mut rng = SimRng::seed_from(7);
        let mut now = SimTime::ZERO;
        let mut suspected = false;
        for _ in 0..200 {
            now += TICK;
            let outs = n0.tick(now, &mut rng);
            let mut pending: Vec<(ProcessId, ProcessId, SwimMsg)> = Vec::new();
            for o in outs {
                if let SwimOutput::Send { to, msg } = o {
                    pending.push((ProcessId(0), to, msg));
                }
            }
            while let Some((src, dst, msg)) = pending.pop() {
                // The 0→1 direct path is cut in both directions.
                if (src == ProcessId(0) && dst == ProcessId(1))
                    || (src == ProcessId(1) && dst == ProcessId(0))
                {
                    continue;
                }
                let machine = match dst.0 {
                    0 => &mut n0,
                    1 => &mut n1,
                    _ => &mut n2,
                };
                for o in machine.on_message(now, src, msg) {
                    match o {
                        SwimOutput::Send { to, msg } => pending.push((dst, to, msg)),
                        SwimOutput::StateChange {
                            node: ProcessId(1),
                            to: MemberState::Suspect,
                            ..
                        } => {
                            suspected = true;
                        }
                        _ => {}
                    }
                }
            }
        }
        assert!(
            !suspected,
            "indirect probing through node 2 must keep node 1 alive in node 0's view"
        );
        assert_eq!(
            n0.view().get(ProcessId(1)).unwrap().state,
            MemberState::Alive
        );
    }
}
