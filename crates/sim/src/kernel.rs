//! Kernel internals: the event type and the state shared with [`Ctx`]; the
//! queue the events wait in is `queue.rs`.
//!
//! Everything a process may touch during a callback lives in [`Kernel`],
//! bar the medium; the process table and the medium live one level up in
//! [`Sim`](crate::Sim), so that a running handler, borrowed in its table
//! entry, can borrow the kernel and the medium beside it.

use crate::intern::MetricKey;
use crate::medium::{Delivery, Medium};
use crate::metrics::Metrics;
use crate::observer::{AnyObserver, EventMask, SimEvent, SimEventKind};
use crate::process::ProcessId;
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::fmt;

/// A process id as a queued event holds it: half the width of
/// [`ProcessId`]'s `usize`. [`Sim::add_node`](crate::Sim::add_node) keeps
/// every process index below `u32::MAX`, which stands for the external
/// sender `ProcessId(usize::MAX)`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pid(u32);

impl Pid {
    pub(crate) fn of(id: ProcessId) -> Pid {
        if id.0 == usize::MAX {
            return Pid(u32::MAX);
        }
        debug_assert!(id.0 < u32::MAX as usize, "process {id} outgrew its u32 id");
        Pid(id.0 as u32)
    }

    pub(crate) fn process_id(self) -> ProcessId {
        match self.0 {
            u32::MAX => ProcessId(usize::MAX),
            i => ProcessId(i as usize),
        }
    }
}

/// What a queued event does when it pops. Sized by the timer variant: a
/// message body waits in the kernel's [`PayloadSlab`], so the queue moves
/// the same few words whatever the message type is, and ids, epochs and
/// injection indices are `u32`s, so an [`Event`] is 40 bytes (DESIGN.md
/// §9, "Per-event memory"). Plain words, hence `Copy`: the queue fills a
/// fresh chunk with copies of its first event and moves a slot out by
/// slice.
#[derive(Clone, Copy)]
pub(crate) enum EventKind {
    Deliver {
        from: Pid,
        to: Pid,
        /// Slot of the message body in [`Kernel::payloads`].
        payload: u32,
    },
    Timer {
        owner: Pid,
        epoch: u32,
        tag: u64,
    },
    /// A scheduled injection: index into `Sim::injections`.
    Injection {
        idx: u32,
    },
}

#[derive(Clone, Copy)]
pub(crate) struct Event {
    pub at: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    /// Max-heap inverted: earliest time first, ties broken by scheduling
    /// order. This tie-break is what makes runs deterministic.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Message bodies in flight, one slot per queued `Deliver` event. Freed
/// slots are reused last-out-first, so a steady flow keeps writing the
/// same few cache-hot slots and the slab's length is the peak number of
/// messages that were ever in flight at once.
pub(crate) struct PayloadSlab<M> {
    slots: Vec<Option<M>>,
    /// Vacant slots, most recently freed last.
    free: Vec<u32>,
}

impl<M> PayloadSlab<M> {
    fn new() -> Self {
        PayloadSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `msg` and returns its slot.
    fn hold(&mut self, msg: M) -> u32 {
        if let Some(id) = self.free.pop() {
            if let Some(slot) = self.slots.get_mut(id as usize) {
                *slot = Some(msg);
                return id;
            }
        }
        let id = self.slots.len();
        assert!(id < u32::MAX as usize, "payload slab outgrew its u32 slots");
        // riot-lint: allow(A1, reason = "growth is bounded by the peak number of in-flight messages, like the ring's cell slab; steady state reuses freed slots")
        self.slots.push(Some(msg));
        id as u32
    }

    /// Empties slot `id` and returns the body it held; `None` if it held
    /// none — every `Deliver` event owns its slot until it pops, so that
    /// is a kernel bug, not a state a run can reach.
    pub(crate) fn release(&mut self, id: u32) -> Option<M> {
        let msg = self.slots.get_mut(id as usize)?.take()?;
        self.free.push(id);
        Some(msg)
    }

    /// Slots holding a body: the messages in flight.
    pub(crate) fn occupied(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots ever made: the peak number of messages in flight at once.
    #[cfg(test)]
    pub(crate) fn peak(&self) -> usize {
        self.slots.len()
    }
}

/// Pre-interned [`MetricKey`]s for the counters the kernel itself bumps on
/// the hot path — one intern each at construction, zero allocations per
/// event thereafter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KernelKeys {
    pub msg_external: MetricKey,
    pub msg_sent: MetricKey,
    pub msg_dropped: MetricKey,
    pub msg_delivered: MetricKey,
    pub proc_down: MetricKey,
    pub proc_up: MetricKey,
}

impl KernelKeys {
    fn new(metrics: &mut Metrics) -> Self {
        KernelKeys {
            msg_external: metrics.intern("sim.msg.external"),
            msg_sent: metrics.intern("sim.msg.sent"),
            msg_dropped: metrics.intern("sim.msg.dropped"),
            msg_delivered: metrics.intern("sim.msg.delivered"),
            proc_down: metrics.intern("sim.proc.down"),
            proc_up: metrics.intern("sim.proc.up"),
        }
    }
}

/// The mutable heart of a run; exposed to processes through
/// [`Ctx`](crate::Ctx) and to the engine through crate-private methods.
pub(crate) struct Kernel<M> {
    pub(crate) clock: SimTime,
    pub(crate) seq: u64,
    pub(crate) queue: EventQueue,
    /// The bodies of the queued `Deliver` events.
    pub(crate) payloads: PayloadSlab<M>,
    pub(crate) rng: SimRng,
    pub(crate) metrics: Metrics,
    /// Registered observers with their interest masks (sampled once at
    /// registration), dispatched in registration order (see
    /// [`crate::observer`] for the contract).
    pub(crate) observers: Vec<(EventMask, Box<dyn AnyObserver>)>,
    /// Union of every observer's interest — the one gate on the emit path:
    /// emits of kinds outside this mask return before constructing the
    /// event.
    pub(crate) interest: EventMask,
    /// Liveness flag per process.
    pub(crate) live: Vec<bool>,
    /// Restart epoch per process; timers from a previous life are discarded.
    pub(crate) epoch: Vec<u32>,
    /// Pre-interned keys for the kernel's own hot-path counters.
    pub(crate) keys: KernelKeys,
}

impl<M: fmt::Debug> Kernel<M> {
    pub(crate) fn new(rng: SimRng, expected_processes: usize) -> Self {
        let mut metrics = Metrics::new();
        let keys = KernelKeys::new(&mut metrics);
        Kernel {
            clock: SimTime::ZERO,
            seq: 0,
            // A steady-state process keeps a handful of events in flight;
            // sizing the queue's slab off the expected population avoids the
            // doubling cascade during the start-up burst.
            queue: EventQueue::with_capacity((expected_processes * 4).max(16)),
            payloads: PayloadSlab::new(),
            rng,
            metrics,
            observers: Vec::new(),
            interest: EventMask::NONE,
            live: Vec::with_capacity(expected_processes),
            epoch: Vec::with_capacity(expected_processes),
            keys,
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, kind: EventKind) {
        debug_assert!(at >= self.clock, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        EventQueue::push(&mut self.queue, Event { at, seq, kind });
    }

    pub(crate) fn is_up(&self, id: ProcessId) -> bool {
        self.live.get(id.0).copied().unwrap_or(false)
    }

    /// Registers an observer; returns its index. The observer's interest
    /// mask is sampled exactly once, now, and joins the `interest` union
    /// that gates the whole emit path.
    pub(crate) fn add_observer(&mut self, observer: Box<dyn AnyObserver>) -> usize {
        let mask = observer.interest();
        self.observers.push((mask, observer));
        self.interest |= mask;
        self.observers.len() - 1
    }

    /// Emits one event to the bus: every interested observer, in
    /// registration order. Kinds outside the combined interest mask return
    /// at the first branch, before the event is constructed.
    #[inline]
    pub(crate) fn emit(&mut self, kind: SimEventKind) {
        let bit = kind.mask();
        if !self.interest.intersects(bit) {
            return;
        }
        let event = SimEvent {
            at: self.clock,
            kind,
            detail: String::new(),
        };
        for (mask, observer) in &mut self.observers {
            if mask.intersects(bit) {
                observer.on_event(&event);
            }
        }
    }

    /// Routes a message through `medium` and schedules delivery or records
    /// the drop.
    pub(crate) fn submit_message(
        &mut self,
        medium: &mut dyn Medium<M>,
        from: ProcessId,
        to: ProcessId,
        msg: M,
    ) {
        if to.0 == usize::MAX {
            // A reply to an external sender: swallowed by the outside world.
            self.metrics.incr_key(self.keys.msg_external);
            return;
        }
        assert!(to.0 < self.live.len(), "send to unknown process {to}");
        self.metrics.incr_key(self.keys.msg_sent);
        self.emit(SimEventKind::Sent { from, to });
        match medium.route(self.clock, from, to, &msg, &mut self.rng) {
            Delivery::After(latency) => {
                let at = self.clock + latency;
                let payload = self.payloads.hold(msg);
                let (from, to) = (Pid::of(from), Pid::of(to));
                self.push(at, EventKind::Deliver { from, to, payload });
            }
            Delivery::Drop(reason) => {
                self.metrics.incr_key(self.keys.msg_dropped);
                self.emit(SimEventKind::Dropped { from, to, reason });
            }
        }
    }

    /// Queues a timer for `owner`, stamped with its current epoch: it fires
    /// only if `owner` is still in that life when it pops.
    pub(crate) fn schedule_timer(&mut self, owner: ProcessId, delay: SimDuration, tag: u64) {
        // riot-lint: allow(P1, reason = "owner was spawned by this kernel; epoch is grown in lockstep with the process table")
        let epoch = self.epoch[owner.0];
        let at = self.clock + delay;
        let owner = Pid::of(owner);
        self.push(at, EventKind::Timer { owner, epoch, tag });
    }

    /// Starts process `id`'s next life: timers of the current one will not
    /// fire. Panics once a process has had `u32::MAX` lives, as the event
    /// cap does on a runaway run: a queued timer holds its epoch as a `u32`.
    pub(crate) fn next_epoch(&mut self, id: ProcessId) {
        // riot-lint: allow(P1, reason = "id was spawned by this kernel; epoch is grown in lockstep with the process table")
        let epoch = &mut self.epoch[id.0];
        assert!(
            *epoch < u32::MAX,
            "restart epoch overflowed u32 ({id}): runaway crash/revive loop"
        );
        *epoch += 1;
    }
}
