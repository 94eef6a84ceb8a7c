//! Kernel internals: the event type and the state shared with [`Ctx`]; the
//! queue the events wait in is `queue.rs`.
//!
//! Everything a process may touch during a callback lives in [`Kernel`]; the
//! process table itself lives one level up in [`Sim`](crate::Sim) so that a
//! running handler can borrow the kernel mutably while it is itself borrowed
//! out of the table.

use crate::intern::MetricKey;
use crate::medium::{Delivery, Medium};
use crate::metrics::Metrics;
use crate::observer::{AnyObserver, EventMask, SimEvent, SimEventKind};
use crate::process::{ProcessId, TimerId};
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::fmt;

/// What a queued event does when it pops. Sized by the timer variant: a
/// message body waits in the kernel's [`PayloadSlab`], so the queue moves
/// the same few words whatever the message type is (DESIGN.md §9,
/// "Per-event memory"). Plain words, hence `Copy`: the queue fills a fresh
/// chunk with copies of its first event and moves a slot out by slice.
#[derive(Clone, Copy)]
pub(crate) enum EventKind {
    Deliver {
        from: ProcessId,
        to: ProcessId,
        /// Slot of the message body in [`Kernel::payloads`].
        payload: u32,
    },
    Timer {
        owner: ProcessId,
        tag: u64,
        timer: TimerId,
        epoch: u64,
    },
    /// A scheduled mutation of the world: index into `Sim::injections`.
    Injection { idx: usize },
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

    /// `(occupied, length)`, for the tests that show nothing leaks.
    #[cfg(test)]
    pub(crate) fn census(&self) -> (usize, usize) {
        (self.slots.len() - self.free.len(), self.slots.len())
    }
}

/// Lifecycle of one scheduled timer, tracked in a sliding window indexed by
/// timer id (see [`Kernel::timer_states`]). Each id corresponds to exactly
/// one queued event, so every slot is retired exactly once — at the instant
/// its event pops — and the window's `Done` prefix is reclaimed eagerly.
/// This replaces the old cancelled-timer tombstone set, whose entries leaked
/// whenever a timer was cancelled *after* it had already fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerState {
    /// Scheduled, event still in the queue.
    Pending,
    /// Cancelled before its event popped; the pop will be swallowed.
    Cancelled,
    /// Event popped (fired, discarded, or swallowed); awaiting prefix GC.
    Done,
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
pub struct Kernel<M> {
    pub(crate) clock: SimTime,
    pub(crate) seq: u64,
    pub(crate) queue: EventQueue,
    /// The bodies of the queued `Deliver` events.
    pub(crate) payloads: PayloadSlab<M>,
    pub(crate) medium: Box<dyn Medium<M>>,
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
    pub(crate) epoch: Vec<u64>,
    /// Sliding window of timer lifecycles: slot `i` tracks the timer with id
    /// `timer_base + i`. Ids below `timer_base` are retired and reclaimed.
    pub(crate) timer_states: VecDeque<TimerState>,
    /// Id of the oldest timer still tracked in `timer_states`.
    pub(crate) timer_base: u64,
    /// Number of `Cancelled` slots currently in the window. The drain
    /// invariant — an empty event queue implies zero pending cancellations —
    /// is asserted at the end of every completed run.
    pub(crate) pending_cancels: usize,
    /// Pre-interned keys for the kernel's own hot-path counters.
    pub(crate) keys: KernelKeys,
    pub(crate) trace_payloads: bool,
}

impl<M: fmt::Debug> Kernel<M> {
    pub(crate) fn new(
        medium: Box<dyn Medium<M>>,
        rng: SimRng,
        trace_payloads: bool,
        expected_processes: usize,
    ) -> Self {
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
            medium,
            rng,
            metrics,
            observers: Vec::new(),
            interest: EventMask::NONE,
            live: Vec::with_capacity(expected_processes),
            epoch: Vec::with_capacity(expected_processes),
            timer_states: VecDeque::with_capacity((expected_processes * 2).max(16)),
            timer_base: 0,
            pending_cancels: 0,
            keys,
            trace_payloads,
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
    /// at the first branch, before the event is constructed. The payload
    /// `Debug` rendering is lazy — it only happens when `trace_payloads`
    /// was requested.
    #[inline]
    pub(crate) fn emit(&mut self, kind: SimEventKind, payload: Option<&M>) {
        let bit = kind.mask();
        if !self.interest.intersects(bit) {
            return;
        }
        let detail = match payload {
            // riot-lint: allow(A1, reason = "payload render is gated by trace_payloads, which benchmarked hot runs leave off")
            Some(msg) if self.trace_payloads => format!("{msg:?}"),
            _ => String::new(),
        };
        let event = SimEvent {
            at: self.clock,
            kind,
            detail,
        };
        for (mask, observer) in &mut self.observers {
            if mask.intersects(bit) {
                observer.on_event(&event);
            }
        }
    }

    /// Routes a message through the medium and schedules delivery or records
    /// the drop.
    pub(crate) fn submit_message(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        if to.0 == usize::MAX {
            // A reply to an external sender: swallowed by the outside world.
            self.metrics.incr_key(self.keys.msg_external);
            return;
        }
        assert!(to.0 < self.live.len(), "send to unknown process {to}");
        self.metrics.incr_key(self.keys.msg_sent);
        self.emit(SimEventKind::Sent { from, to }, Some(&msg));
        match self.medium.route(self.clock, from, to, &msg, &mut self.rng) {
            Delivery::After(latency) => {
                let at = self.clock + latency;
                let payload = self.payloads.hold(msg);
                self.push(at, EventKind::Deliver { from, to, payload });
            }
            Delivery::Drop(reason) => {
                self.metrics.incr_key(self.keys.msg_dropped);
                self.emit(SimEventKind::Dropped { from, to, reason }, Some(&msg));
            }
        }
    }

    pub(crate) fn schedule_timer(
        &mut self,
        owner: ProcessId,
        delay: SimDuration,
        tag: u64,
    ) -> TimerId {
        let timer = TimerId(self.timer_base + self.timer_states.len() as u64);
        self.timer_states.push_back(TimerState::Pending);
        // riot-lint: allow(P1, reason = "owner was spawned by this kernel; epoch is grown in lockstep with the process table")
        let epoch = self.epoch[owner.0];
        let at = self.clock + delay;
        self.push(
            at,
            EventKind::Timer {
                owner,
                tag,
                timer,
                epoch,
            },
        );
        timer
    }

    /// Marks a timer cancelled. Only a `Pending` timer flips state: cancelling
    /// one that already fired (or was already cancelled) is a no-op, exactly
    /// matching the old tombstone semantics — minus the tombstone leak.
    pub(crate) fn cancel_timer(&mut self, id: TimerId) {
        let Some(idx) = id.0.checked_sub(self.timer_base) else {
            return; // already retired and reclaimed
        };
        if let Some(state) = self.timer_states.get_mut(idx as usize) {
            if *state == TimerState::Pending {
                *state = TimerState::Cancelled;
                self.pending_cancels += 1;
            }
        }
    }

    /// Retires a timer's window slot when its queue event pops — every id
    /// pops exactly once, so this is the single point where slots complete.
    /// Returns `true` if the timer had been cancelled (the caller swallows
    /// the event). The window's `Done` prefix is reclaimed on the spot,
    /// keeping memory bounded by the span of in-flight timers.
    pub(crate) fn retire_timer(&mut self, id: TimerId) -> bool {
        let Some(idx) = id.0.checked_sub(self.timer_base) else {
            debug_assert!(false, "timer {id:?} retired twice");
            return true;
        };
        let cancelled = match self.timer_states.get_mut(idx as usize) {
            Some(state) => {
                let was = *state;
                debug_assert!(was != TimerState::Done, "timer {id:?} retired twice");
                *state = TimerState::Done;
                if was == TimerState::Cancelled {
                    self.pending_cancels -= 1;
                }
                was == TimerState::Cancelled
            }
            None => {
                debug_assert!(false, "timer {id:?} was never scheduled");
                true
            }
        };
        while self.timer_states.front() == Some(&TimerState::Done) {
            self.timer_states.pop_front();
            self.timer_base += 1;
        }
        cancelled
    }
}
