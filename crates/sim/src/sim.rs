//! The simulation engine: builds a world of processes and runs it.
//!
//! riot-lint: allow-file(P1, reason = "engine core: every panic path is a documented `# Panics` API contract over process-table indices the kernel itself mints")

use crate::kernel::{EventKind, Kernel};
use crate::medium::{IdealMedium, Medium};
use crate::metrics::Metrics;
use crate::observer::{AnyObserver, EventMask, SimEventKind, SimObserver};
use crate::process::{Ctx, ProcessId};
use crate::queue::{EventQueue, QueueStats};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::world::{DynWorld, World};
use std::any::Any;
use std::fmt;

/// Fewest events a freshly loaded queue slot must hold for the kernel to
/// walk it once calling [`World::prefetch`] before the first pops. The
/// pass pays when there is a batch of independent cache misses to overlap;
/// on a handful of events it is a virtual call each for nothing.
const STAGE_MIN: usize = 32;

/// Configures and constructs a [`Sim`].
///
/// # Examples
///
/// ```
/// use riot_sim::{Sim, SimBuilder, SimDuration};
///
/// let sim: Sim<String> = SimBuilder::new(42)
///     .max_events(1_000_000)
///     .build();
/// assert_eq!(sim.now().as_micros(), 0);
/// ```
pub struct SimBuilder {
    seed: u64,
    max_events: u64,
    expected_processes: usize,
}

impl fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimBuilder")
            .field("seed", &self.seed)
            .field("max_events", &self.max_events)
            .field("expected_processes", &self.expected_processes)
            .finish()
    }
}

impl SimBuilder {
    /// Starts a builder for a run with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        SimBuilder {
            seed,
            max_events: u64::MAX,
            expected_processes: 0,
        }
    }

    /// Declares how many processes the world will hold, so the event queue
    /// and per-process tables are sized once up front instead of doubling
    /// through the start-up burst. Purely a capacity hint: it does not limit
    /// anything, and has no observable effect on results.
    pub fn expect_processes(mut self, n: usize) -> Self {
        self.expected_processes = n;
        self
    }

    /// Caps the number of processed events; exceeding the cap panics, which
    /// turns runaway simulations into loud test failures.
    pub fn max_events(mut self, cap: u64) -> Self {
        self.max_events = cap;
        self
    }

    /// Builds a simulation with the default zero-latency [`IdealMedium`].
    pub fn build<M: fmt::Debug + 'static>(self) -> Sim<M> {
        self.build_with_medium(Box::new(IdealMedium::new()))
    }

    /// Builds a simulation of the boxed world with an explicit medium.
    pub fn build_with_medium<M: fmt::Debug + 'static>(self, medium: Box<dyn Medium<M>>) -> Sim<M> {
        self.build_world(medium, ())
    }

    /// Builds a simulation of world `W` around its medium (e.g. `riot-net`'s
    /// `Network`) and the state its nodes share.
    pub fn build_world<M: fmt::Debug, W: World<M>>(
        self,
        medium: W::Medium,
        shared: W::Shared,
    ) -> Sim<M, W> {
        let rng = SimRng::seed_from(self.seed);
        let kernel = Kernel::new(rng, self.expected_processes);
        Sim {
            kernel,
            nodes: Vec::with_capacity(self.expected_processes),
            medium,
            shared,
            injections: Vec::new(),
            events_processed: 0,
            max_events: self.max_events,
            started: false,
        }
    }
}

/// A deterministic discrete-event simulation: a set of [`Process`](crate::Process)es, a
/// [`Medium`], and an event queue ordered by virtual time — the one kernel
/// over any [`World`]. `Sim<M>` is the boxed world, [`DynWorld`].
///
/// # Examples
///
/// A two-process ping-pong:
///
/// ```
/// use riot_sim::{Ctx, Process, ProcessId, Sim, SimBuilder, SimTime};
///
/// struct Pinger { peer: Option<ProcessId>, rounds: u32 }
/// struct Ponger;
///
/// impl Process<u32> for Pinger {
///     fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
///         if let Some(peer) = self.peer {
///             ctx.send(peer, 0);
///         }
///     }
///     fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: ProcessId, n: u32) {
///         self.rounds = n;
///         if n < 10 {
///             ctx.send(from, n + 1);
///         }
///     }
/// }
///
/// impl Process<u32> for Ponger {
///     fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: ProcessId, n: u32) {
///         ctx.send(from, n + 1);
///     }
/// }
///
/// let mut sim = SimBuilder::new(1).build();
/// let ponger = sim.add_process(Ponger);
/// sim.add_process(Pinger { peer: Some(ponger), rounds: 0 });
/// sim.run_until(SimTime::from_secs(1));
/// assert_eq!(sim.metrics().counter("sim.msg.sent"), 12);
/// ```
pub struct Sim<M, W: World<M> = DynWorld<M>> {
    kernel: Kernel<M>,
    /// The process table, by id.
    pub(crate) nodes: Vec<W::Node>,
    medium: W::Medium,
    /// What the nodes share, lent to the node each callback runs on.
    shared: W::Shared,
    /// Scheduled injections, by the index their queued event carries; each
    /// is taken when it fires.
    injections: Vec<Option<W::Injection>>,
    events_processed: u64,
    max_events: u64,
    started: bool,
}

impl<M: fmt::Debug + 'static, W: World<M>> Sim<M, W> {
    /// Adds a node to the process table; it will receive `on_start` when
    /// the run begins (or immediately if the run has already begun).
    ///
    /// # Panics
    ///
    /// Panics if the table already holds `u32::MAX` nodes: a queued event
    /// carries its process as a `u32`, and `u32::MAX` is the external
    /// sender's.
    pub fn add_node(&mut self, node: W::Node) -> ProcessId {
        let id = ProcessId(self.nodes.len());
        assert!(
            id.0 < u32::MAX as usize,
            "process table outgrew its u32 ids"
        );
        self.nodes.push(node);
        self.kernel.live.push(true);
        self.kernel.epoch.push(0);
        if self.started {
            self.with_proc(id, W::on_start);
        }
        id
    }

    /// Schedules a mutation of the world at a future instant — the hook
    /// used by disruption injectors (partitions, crashes, domain
    /// transfers). [`World::inject`] applies it when it pops.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, or if `u32::MAX` injections were
    /// already scheduled: a queued event carries its injection's index as
    /// a `u32`.
    pub fn inject_at(&mut self, at: SimTime, injection: W::Injection) {
        assert!(at >= self.kernel.clock, "injection scheduled into the past");
        let idx = self.injections.len();
        assert!(
            idx < u32::MAX as usize,
            "injections outgrew their u32 index"
        );
        self.injections.push(Some(injection));
        self.kernel
            .push(at, EventKind::Injection { idx: idx as u32 });
    }

    /// Sends a message into the simulation from the outside world at the
    /// current instant (delivered through the medium).
    pub fn send_external(&mut self, to: ProcessId, msg: M) {
        let medium = W::medium(&mut self.medium);
        self.kernel
            .submit_message(medium, ProcessId(usize::MAX), to, msg);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.clock
    }

    /// The metrics recorded so far.
    pub fn metrics(&self) -> &Metrics {
        &self.kernel.metrics
    }

    /// Mutable access to metrics (to intern keys before the run).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.kernel.metrics
    }

    /// Registers a [`SimObserver`] on the run's observability bus; returns
    /// the observer's index for later retrieval with [`Sim::observer`].
    /// Observers see every kernel event in virtual-time order, dispatched in
    /// registration order (see [`SimObserver`](crate::SimObserver) for the determinism
    /// contract). Register before running — events already emitted are not
    /// replayed.
    pub fn add_observer(&mut self, observer: impl SimObserver + Any) -> usize {
        self.kernel.add_observer(Box::new(observer))
    }

    /// Registers an already-boxed observer; see [`Sim::add_observer`].
    pub fn add_boxed_observer(&mut self, observer: Box<dyn AnyObserver>) -> usize {
        self.kernel.add_observer(observer)
    }

    /// `true` if some registered observer subscribed to a kind in `mask`.
    /// Call sites that format a text for [`Sim::annotate`] ask
    /// `wants(EventMask::NOTE)` first.
    pub fn wants(&self, mask: EventMask) -> bool {
        self.kernel.interest.intersects(mask)
    }

    /// Downcasts the observer at `index` (as returned by
    /// [`Sim::add_observer`]) to its concrete type for post-run inspection.
    pub fn observer<T: 'static>(&self, index: usize) -> Option<&T> {
        self.kernel.observers.get(index)?.1.as_any().downcast_ref()
    }

    /// Mutable variant of [`Sim::observer`]. Note that the observer's
    /// interest mask was sampled at registration: operators added to a
    /// pipeline through this handle after registration widen the pipeline's
    /// reach only within that sampled mask.
    pub fn observer_mut<T: 'static>(&mut self, index: usize) -> Option<&mut T> {
        self.kernel
            .observers
            .get_mut(index)?
            .1
            .as_any_mut()
            .downcast_mut()
    }

    /// Records a free-form annotation from outside the simulation (scenario
    /// drivers, injectors) onto the bus, attributed to the external id. A
    /// no-op — the text conversion included — when no observer subscribed
    /// to notes; callers formatting an expensive text should pre-check
    /// [`Sim::wants`].
    pub fn annotate(&mut self, text: impl Into<String>) {
        if !self.wants(EventMask::NOTE) {
            return;
        }
        self.kernel.emit(SimEventKind::Note {
            id: ProcessId(usize::MAX),
            text: text.into(),
        });
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Messages sent and neither delivered nor dropped yet: each holds a
    /// payload slot until its delivery event pops. Between steps,
    /// `sim.msg.sent == sim.msg.delivered + sim.msg.dropped + in_flight()`.
    pub fn in_flight(&self) -> usize {
        self.kernel.payloads.occupied()
    }

    /// Words the processes and the medium drew from the run's random stream.
    pub fn rng_words(&self) -> u64 {
        self.kernel.rng.words_used()
    }

    /// `true` if the given process is currently up.
    pub fn is_up(&self, id: ProcessId) -> bool {
        self.kernel.is_up(id)
    }

    /// The world's medium, for disruption injectors.
    pub fn medium_mut(&mut self) -> &mut W::Medium {
        &mut self.medium
    }

    /// The state the world's nodes share.
    pub fn shared(&self) -> &W::Shared {
        &self.shared
    }

    /// The state the world's nodes share, for the world's own driver
    /// between events.
    pub fn shared_mut(&mut self) -> &mut W::Shared {
        &mut self.shared
    }

    /// The node at `id`; `None` if there is none.
    pub fn node(&self, id: ProcessId) -> Option<&W::Node> {
        self.nodes.get(id.0)
    }

    /// The node at `id`, for surgery between events; `None` if there is
    /// none.
    pub fn node_mut(&mut self, id: ProcessId) -> Option<&mut W::Node> {
        self.nodes.get_mut(id.0)
    }

    /// Takes a process down immediately: its timers die with it and messages
    /// addressed to it are dropped until it is brought back up.
    pub fn set_down(&mut self, id: ProcessId) {
        if !self.kernel.is_up(id) {
            return;
        }
        self.kernel.live[id.0] = false;
        self.kernel.next_epoch(id);
        self.kernel.emit(SimEventKind::ProcessDown { id });
        let key = self.kernel.keys.proc_down;
        self.kernel.metrics.incr_key(key);
    }

    /// Brings a process back up immediately and re-runs its `on_start`.
    pub fn set_up(&mut self, id: ProcessId) {
        if self.kernel.is_up(id) {
            return;
        }
        self.kernel.live[id.0] = true;
        self.kernel.next_epoch(id);
        self.kernel.emit(SimEventKind::ProcessUp { id });
        let key = self.kernel.keys.proc_up;
        self.kernel.metrics.incr_key(key);
        self.with_proc(id, W::on_start);
    }

    /// Runs until the queue drains or `deadline` is reached. Returns the
    /// number of events processed by this call. The clock is advanced to
    /// `deadline` when the queue drains early.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.ensure_started();
        let before = self.events_processed;
        loop {
            self.load();
            match EventQueue::peek(&self.kernel.queue) {
                Some(ev) if ev.at <= deadline => {}
                _ => break,
            }
            self.step_one();
        }
        if self.kernel.clock < deadline {
            self.kernel.clock = deadline;
        }
        self.events_processed - before
    }

    /// Runs for an additional duration of virtual time.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let deadline = self.kernel.clock + d;
        self.run_until(deadline)
    }

    /// Runs until the event queue is empty.
    pub fn run_to_completion(&mut self) -> u64 {
        self.ensure_started();
        let before = self.events_processed;
        while !self.kernel.queue.is_empty() {
            self.load();
            self.step_one();
        }
        self.events_processed - before
    }

    /// What the event queue has done so far: pushes by destination, slots
    /// loaded and staged. Plain counts, identical on every rerun of a run.
    pub fn queue_stats(&self) -> QueueStats {
        self.kernel.queue.stats
    }

    /// Processes exactly one event if any is queued; returns `false` when
    /// the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        if self.kernel.queue.is_empty() {
            return false;
        }
        self.load();
        self.step_one();
        true
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let id = ProcessId(i);
            if self.kernel.is_up(id) {
                self.with_proc(id, W::on_start);
            }
        }
    }

    /// Makes the earliest event ready to peek or pop: when the queue's
    /// current slot is spent this moves the next one in, and looks ahead
    /// over it if it is large.
    #[inline]
    fn load(&mut self) {
        if EventQueue::load(&mut self.kernel.queue) >= STAGE_MIN {
            self.kernel.queue.stats.staged += 1;
            self.stage();
        }
    }

    /// The look-ahead pass over a freshly loaded slot: every process a queued
    /// timer or delivery will call gets to read what that callback will
    /// touch. The loads of one process depend on each other, those of
    /// different processes do not, so the core overlaps them — and the
    /// handlers that follow find their lines in cache. The pass walks the
    /// slot latest event first, as the queue stores it, so the lines of the
    /// first events to pop are the last read and the likeliest still in the
    /// nearest cache. Injections touch no process state worth reading
    /// ahead, and a stale or dead target is not worth telling apart: it
    /// costs two more misses to find out than to read it.
    #[inline(never)]
    fn stage(&self) {
        for event in EventQueue::loaded(&self.kernel.queue) {
            let id = match event.kind {
                EventKind::Timer { owner, .. } => owner.process_id(),
                EventKind::Deliver { to, .. } => to.process_id(),
                _ => continue,
            };
            if let Some(target) = self.nodes.get(id.0) {
                W::prefetch(target, &self.shared);
            }
        }
    }

    /// Pops and dispatches the earliest event; the caller has `load`ed.
    fn step_one(&mut self) {
        let ev = EventQueue::pop(&mut self.kernel.queue).expect("caller checked non-empty");
        debug_assert!(ev.at >= self.kernel.clock, "time went backwards");
        self.kernel.clock = ev.at;
        self.events_processed += 1;
        assert!(
            self.events_processed <= self.max_events,
            "event cap exceeded ({}): runaway simulation",
            self.max_events
        );
        match ev.kind {
            EventKind::Deliver { from, to, payload } => {
                let (from, to) = (from.process_id(), to.process_id());
                // The slot is freed before the liveness check, so a delivery
                // to a downed process returns it too.
                let Some(msg) = self.kernel.payloads.release(payload) else {
                    debug_assert!(false, "deliver event {payload} has no payload");
                    return;
                };
                if !self.kernel.is_up(to) {
                    let key = self.kernel.keys.msg_dropped;
                    self.kernel.metrics.incr_key(key);
                    self.kernel.emit(SimEventKind::Dropped {
                        from,
                        to,
                        reason: "down",
                    });
                    return;
                }
                let key = self.kernel.keys.msg_delivered;
                self.kernel.metrics.incr_key(key);
                self.kernel.emit(SimEventKind::Delivered { from, to });
                self.with_proc(to, |p, s, ctx| W::on_message(p, s, ctx, from, msg));
            }
            EventKind::Timer { owner, epoch, tag } => {
                let owner = owner.process_id();
                if !self.kernel.is_up(owner) || self.kernel.epoch[owner.0] != epoch {
                    return;
                }
                self.kernel.emit(SimEventKind::TimerFired { owner, tag });
                self.with_proc(owner, |p, s, ctx| W::on_timer(p, s, ctx, tag));
            }
            EventKind::Injection { idx } => {
                let injection = self.injections[idx as usize]
                    .take()
                    .expect("injection fires once");
                W::inject(self, injection);
            }
        }
    }

    /// Runs `f` on node `id` with the shared state and a [`Ctx`] over the
    /// kernel and the medium: four disjoint fields, so the node stays in its
    /// table entry.
    fn with_proc(
        &mut self,
        id: ProcessId,
        f: impl FnOnce(&mut W::Node, &mut W::Shared, &mut Ctx<'_, M>),
    ) {
        let mut ctx = Ctx {
            kernel: &mut self.kernel,
            medium: W::medium(&mut self.medium),
            id,
        };
        f(&mut self.nodes[id.0], &mut self.shared, &mut ctx);
    }
}

impl<M: fmt::Debug, W: World<M>> fmt::Debug for Sim<M, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.kernel.clock)
            .field("processes", &self.nodes.len())
            .field("queued", &self.kernel.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;
    use crate::medium::tests::LossyMedium;
    use crate::observer::{RingTrace, SimEvent};
    use crate::process::Process;
    use crate::world::AnyProcess;

    #[derive(Debug)]
    enum Msg {
        Ping(u32),
    }

    struct Counter {
        received: Vec<(ProcessId, u32)>,
        timers: Vec<u64>,
        start_count: u32,
    }

    impl Counter {
        fn new() -> Self {
            Counter {
                received: Vec::new(),
                timers: Vec::new(),
                start_count: 0,
            }
        }
    }

    impl Process<Msg> for Counter {
        fn on_start(&mut self, _ctx: &mut Ctx<'_, Msg>) {
            self.start_count += 1;
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, from: ProcessId, msg: Msg) {
            let Msg::Ping(n) = msg;
            self.received.push((from, n));
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, tag: u64) {
            self.timers.push(tag);
        }
    }

    #[test]
    fn external_message_is_delivered() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        let a = sim.add_process(Counter::new());
        sim.send_external(a, Msg::Ping(7));
        sim.run_to_completion();
        let c = sim.process::<Counter>(a).unwrap();
        assert_eq!(c.received.len(), 1);
        assert_eq!(c.received[0].1, 7);
        assert_eq!(c.start_count, 1);
    }

    #[test]
    fn an_external_sender_survives_the_queued_events_u32_ids() {
        // A queued event holds process ids as `u32`s; the outside world's
        // `usize::MAX` must come back out of the queue as itself.
        let outside = ProcessId(usize::MAX);
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        sim.add_observer(RingTrace::new(16));
        let a = sim.add_process(Counter::new());
        sim.send_external(a, Msg::Ping(5));
        sim.run_to_completion();
        let c = sim.process::<Counter>(a).unwrap();
        assert_eq!(c.received, vec![(outside, 5)]);
        assert!(sim.observer::<RingTrace>(0).unwrap().tail().any(
            |e| matches!(e.kind, SimEventKind::Delivered { from, to } if from == outside && to == a)
        ));
    }

    struct TimerProc {
        fired: Vec<(u64, SimTime)>,
    }

    impl Process<Msg> for TimerProc {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.schedule(SimDuration::from_millis(10), 1);
            ctx.schedule(SimDuration::from_millis(20), 2);
            ctx.schedule(SimDuration::from_millis(30), 3);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ProcessId, _msg: Msg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
            self.fired.push((tag, ctx.now()));
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        let a = sim.add_process(TimerProc { fired: Vec::new() });
        sim.run_to_completion();
        let p = sim.process::<TimerProc>(a).unwrap();
        assert_eq!(
            p.fired,
            vec![
                (1, SimTime::from_millis(10)),
                (2, SimTime::from_millis(20)),
                (3, SimTime::from_millis(30))
            ]
        );
    }

    #[test]
    fn expect_processes_changes_nothing_observable() {
        let run = |hint: usize| {
            let mut sim: Sim<Msg> = SimBuilder::new(42).expect_processes(hint).build();
            let a = sim.add_process(TimerProc { fired: Vec::new() });
            sim.send_external(a, Msg::Ping(1));
            sim.run_to_completion();
            (
                sim.process::<TimerProc>(a).unwrap().fired.clone(),
                sim.metrics().counter("sim.msg.delivered"),
            )
        };
        assert_eq!(run(0), run(64), "capacity hints are invisible to results");
    }

    #[test]
    fn clock_advances_to_deadline_when_queue_drains() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        sim.add_process(Counter::new());
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn down_process_drops_messages_and_timers() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        let a = sim.add_process(TimerProc { fired: Vec::new() });
        sim.run_until(SimTime::from_millis(15));
        sim.set_down(a);
        sim.send_external(a, Msg::Ping(1));
        sim.run_to_completion();
        let p = sim.process::<TimerProc>(a).unwrap();
        // Only the first timer fired before the crash; 20ms/30ms died with it.
        assert_eq!(p.fired.len(), 1);
        assert_eq!(sim.metrics().counter("sim.msg.dropped"), 1);
    }

    #[test]
    fn restart_runs_on_start_again_with_fresh_epoch() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        let a = sim.add_process(TimerProc { fired: Vec::new() });
        sim.run_until(SimTime::from_millis(5));
        sim.set_down(a);
        sim.set_up(a);
        sim.run_to_completion();
        let p = sim.process::<TimerProc>(a).unwrap();
        // Restart re-scheduled all three timers at t=5ms; the originals died.
        assert_eq!(p.fired.len(), 3);
        assert_eq!(p.fired[0].1, SimTime::from_millis(15));
    }

    /// Returns every volley until `rounds`, and serves a fresh ball every
    /// 7 ms in case the last one was lost.
    #[derive(Clone, Copy)]
    struct Pinger {
        peer: ProcessId,
        rounds: u32,
    }

    impl Process<u32> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            self.on_timer(ctx, 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: ProcessId, n: u32) {
            if n < self.rounds {
                ctx.send(from, n + 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _tag: u64) {
            ctx.send(self.peer, 0);
            ctx.schedule(SimDuration::from_millis(7), 0);
        }
    }

    /// Returns every volley.
    #[derive(Clone, Copy)]
    struct Ponger;

    impl Process<u32> for Ponger {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: ProcessId, n: u32) {
            ctx.send(from, n + 1);
        }
    }

    /// A closed world's node: one of two processes, dispatched by `match`.
    #[derive(Clone, Copy)]
    enum Player {
        Pinger(Pinger),
        Ponger(Ponger),
    }

    impl Process<u32> for Player {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            match self {
                Player::Pinger(p) => p.on_start(ctx),
                Player::Ponger(p) => p.on_start(ctx),
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: ProcessId, n: u32) {
            match self {
                Player::Pinger(p) => p.on_message(ctx, from, n),
                Player::Ponger(p) => p.on_message(ctx, from, n),
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, tag: u64) {
            match self {
                Player::Pinger(p) => p.on_timer(ctx, tag),
                Player::Ponger(p) => p.on_timer(ctx, tag),
            }
        }
    }

    /// A closed world's injection.
    #[derive(Clone, Copy)]
    enum Referee {
        Crash(ProcessId),
        Revive(ProcessId),
    }

    /// The closed test world: [`Player`]s, a [`LossyMedium`] held by value,
    /// [`Referee`] calls, and a count of the volleys the players received
    /// as the state they share.
    enum Court {}

    impl World<u32> for Court {
        type Node = Player;
        type Medium = LossyMedium;
        type Injection = Referee;
        type Shared = u64;

        fn inject(sim: &mut Sim<u32, Court>, call: Referee) {
            match call {
                Referee::Crash(id) => sim.set_down(id),
                Referee::Revive(id) => sim.set_up(id),
            }
        }

        fn medium(medium: &mut LossyMedium) -> &mut dyn Medium<u32> {
            medium
        }

        fn on_start(player: &mut Player, _: &mut u64, ctx: &mut Ctx<'_, u32>) {
            player.on_start(ctx);
        }

        fn on_message(
            player: &mut Player,
            volleys: &mut u64,
            ctx: &mut Ctx<'_, u32>,
            from: ProcessId,
            n: u32,
        ) {
            *volleys += 1;
            player.on_message(ctx, from, n);
        }

        fn on_timer(player: &mut Player, _: &mut u64, ctx: &mut Ctx<'_, u32>, tag: u64) {
            player.on_timer(ctx, tag);
        }

        fn prefetch(player: &Player, _: &u64) {
            player.prefetch();
        }
    }

    fn court_medium() -> LossyMedium {
        LossyMedium::new(SimDuration::from_millis(2), 0.2)
    }

    /// A lossy ping-pong with both players crashed and revived once, played
    /// for 300 ms in `sim`; `node` and `call` put a [`Player`] and a
    /// [`Referee`] call in the world's own terms. Returns the metrics, the
    /// words drawn, the messages in flight, the trace tail and the events.
    fn play<W: World<u32>>(
        mut sim: Sim<u32, W>,
        node: impl Fn(Player) -> W::Node,
        call: impl Fn(Referee) -> W::Injection,
    ) -> (String, u64, usize, Vec<String>, u64) {
        let ring = sim.add_observer(RingTrace::new(64));
        let ponger = sim.add_node(node(Player::Ponger(Ponger)));
        let pinger = sim.add_node(node(Player::Pinger(Pinger {
            peer: ponger,
            rounds: 40,
        })));
        for (ms, id, call_) in [
            (50, ponger, Referee::Crash as fn(ProcessId) -> Referee),
            (80, ponger, Referee::Revive),
            (120, pinger, Referee::Crash),
            (130, pinger, Referee::Revive),
        ] {
            sim.inject_at(SimTime::from_millis(ms), call(call_(id)));
        }
        sim.run_until(SimTime::from_millis(300));
        let tail = sim.observer::<RingTrace>(ring).unwrap().tail_json_lines();
        (
            format!("{:?}", sim.metrics()),
            sim.rng_words(),
            sim.in_flight(),
            tail,
            sim.events_processed(),
        )
    }

    #[test]
    fn a_closed_world_and_the_boxed_world_run_one_kernel_path() {
        let closed = play(
            SimBuilder::new(9).build_world::<u32, Court>(court_medium(), 0),
            |player| player,
            |call| call,
        );
        let boxed = play(
            SimBuilder::new(9).build_with_medium(Box::new(court_medium())),
            |player| -> Box<dyn AnyProcess<u32>> {
                match player {
                    Player::Pinger(p) => Box::new(p),
                    Player::Ponger(p) => Box::new(p),
                }
            },
            |call| -> <DynWorld<u32> as World<u32>>::Injection {
                match call {
                    Referee::Crash(id) => Box::new(move |sim| sim.set_down(id)),
                    Referee::Revive(id) => Box::new(move |sim| sim.set_up(id)),
                }
            },
        );
        let (metrics, words, _, tail, events) = &closed;
        assert!(
            metrics.contains("sim.proc.up") && *words > 100 && tail.len() == 64 && *events > 100,
            "{closed:?}"
        );
        assert!(tail.iter().any(|l| l.contains(r#""reason":"loss""#)));
        assert_eq!(closed, boxed);
    }

    #[test]
    fn the_shared_state_is_lent_to_every_delivery() {
        let mut sim = SimBuilder::new(9).build_world::<u32, Court>(court_medium(), 0);
        let ponger = sim.add_node(Player::Ponger(Ponger));
        sim.add_node(Player::Pinger(Pinger {
            peer: ponger,
            rounds: 40,
        }));
        sim.run_until(SimTime::from_millis(300));
        let delivered = sim.metrics().counter("sim.msg.delivered");
        assert!(delivered > 100, "{delivered}");
        assert_eq!(*sim.shared(), delivered);
        *sim.shared_mut() = 0;
        sim.run_until(SimTime::from_millis(301));
        assert_eq!(
            *sim.shared(),
            sim.metrics().counter("sim.msg.delivered") - delivered
        );
    }

    #[test]
    fn injections_run_at_their_time() {
        let mut sim = SimBuilder::new(1).build_world::<u32, Court>(court_medium(), 0);
        let a = sim.add_node(Player::Ponger(Ponger));
        sim.inject_at(SimTime::from_secs(1), Referee::Crash(a));
        sim.run_until(SimTime::from_millis(500));
        assert!(sim.is_up(a));
        sim.run_until(SimTime::from_secs(2));
        assert!(!sim.is_up(a));
    }

    /// Logs what reaches it, in order; injections append through
    /// `process_mut`.
    struct Logger {
        log: Vec<String>,
        timers: Vec<(SimDuration, u64)>,
    }

    impl Process<Msg> for Logger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            for &(delay, tag) in &self.timers {
                ctx.schedule(delay, tag);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ProcessId, msg: Msg) {
            let Msg::Ping(n) = msg;
            self.log.push(format!("msg {n} @{}", ctx.now().as_micros()));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
            self.log
                .push(format!("timer {tag} @{}", ctx.now().as_micros()));
        }
    }

    #[test]
    fn pushes_at_the_clock_fire_before_an_event_the_run_peeked_at() {
        // `run_until` stops by peeking at the 300 s timer, which moves the
        // queue's cursor 299 s ahead of the clock. What is pushed at the
        // clock afterwards lands behind the cursor and must still pop first,
        // in scheduling order.
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        let a = sim.add_process(Logger {
            log: Vec::new(),
            timers: vec![(SimDuration::from_secs(300), 300)],
        });
        assert_eq!(sim.run_until(SimTime::from_secs(1)), 0);
        sim.send_external(a, Msg::Ping(1));
        sim.schedule_injection(SimTime::from_secs(1), move |sim| {
            let at = sim.now().as_micros();
            let logger = sim.process_mut::<Logger>(a).unwrap();
            logger.log.push(format!("injection @{at}"));
        });
        sim.send_external(a, Msg::Ping(2));
        assert_eq!(sim.run_until(SimTime::from_secs(2)), 3);
        sim.run_to_completion();
        assert_eq!(
            sim.process::<Logger>(a).unwrap().log,
            [
                "msg 1 @1000000",
                "injection @1000000",
                "msg 2 @1000000",
                "timer 300 @300000000",
            ]
        );
    }

    #[test]
    fn timers_either_side_of_the_ring_boundary_fire_in_time_order() {
        // 2048 slots of 1024 µs ahead is the first delay the queue's ring
        // does not cover; 1 µs less is the last it does. Scheduled latest
        // first, so `seq` order is the reverse of time order.
        const RING_US: u64 = 2048 * 1024;
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        let a = sim.add_process(Logger {
            log: Vec::new(),
            timers: vec![
                (SimDuration::from_micros(RING_US + 1), 2),
                (SimDuration::from_micros(RING_US), 1),
                (SimDuration::from_micros(RING_US - 1), 0),
            ],
        });
        sim.run_to_completion();
        assert_eq!(
            sim.process::<Logger>(a).unwrap().log,
            ["timer 0 @2097151", "timer 1 @2097152", "timer 2 @2097153"]
        );
    }

    /// A device-like process: a 500 ms and a 1 s periodic timer, each at a
    /// random phase.
    #[derive(Clone, Copy)]
    struct Ticker {
        fired: u64,
    }

    impl Process<Msg> for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            for period_us in [500_000u64, 1_000_000] {
                let phase = ctx.rng().range_u64(1, period_us);
                ctx.schedule(SimDuration::from_micros(phase), period_us);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ProcessId, _msg: Msg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, period_us: u64) {
            self.fired += 1;
            ctx.schedule(SimDuration::from_micros(period_us), period_us);
        }
    }

    #[test]
    fn a_large_timer_world_lives_in_the_ring_and_leaks_no_cells() {
        // 10⁴ device-like processes, each with a 500 ms and a 1 s periodic
        // timer at a random phase: 2 × 10⁴ pending events, of which only the
        // cursor's slot is ever in near.
        const PROCESSES: usize = 10_000;
        let mut sim: Sim<Msg> = SimBuilder::new(5).expect_processes(PROCESSES).build();
        for _ in 0..PROCESSES {
            sim.add_process(Ticker { fired: 0 });
        }
        let (mut peak_near, mut peak_ring) = (0, 0);
        let mut steps = 0usize;
        while sim.now() < SimTime::from_secs(3) {
            assert!(sim.step());
            steps += 1;
            if steps.is_multiple_of(64) {
                // Restart churn: the dead life's timers stay queued until
                // they pop, the new life's join them.
                let id = ProcessId(steps / 64 % PROCESSES);
                sim.set_down(id);
                sim.set_up(id);
            }
            let (near, ring, _) = sim.kernel.queue.census();
            peak_near = peak_near.max(near);
            peak_ring = peak_ring.max(ring);
        }
        assert!(steps > 80_000, "{steps} events in 3 s");
        assert!(peak_near < 300, "near held {peak_near} events");
        assert!(
            peak_ring > 2 * PROCESSES - 300,
            "ring peaked at {peak_ring}"
        );
        // Nine events a chunk, and at most one part-filled chunk for each of
        // the ring's slots: nothing leaked through the restart churn.
        let (_, _, slab) = sim.kernel.queue.census();
        assert!(
            slab * 9 >= peak_ring && slab <= peak_ring.div_ceil(9) + 2048,
            "{slab} chunks for a peak of {peak_ring} events"
        );
    }

    /// Forwards what reaches it to random peers (ids below `peers`) while
    /// its budget lasts, and keeps a timer or two running beside the
    /// messages.
    #[derive(Clone, Copy)]
    struct Chatter {
        budget: u32,
        peers: u64,
    }

    impl Chatter {
        fn chat(&mut self, ctx: &mut Ctx<'_, Msg>) {
            for _ in 0..ctx.rng().range_u64(0, 3) {
                if self.budget == 0 {
                    return;
                }
                self.budget -= 1;
                let to = ProcessId(ctx.rng().range_u64(0, self.peers) as usize);
                ctx.send(to, Msg::Ping(self.budget));
            }
            if self.budget > 0 && ctx.rng().chance(0.3) {
                let delay = ctx.rng().range_u64(0, 5_000);
                ctx.schedule(SimDuration::from_micros(delay), 0);
            }
        }
    }

    impl Process<Msg> for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            self.chat(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ProcessId, _msg: Msg) {
            self.chat(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
            self.chat(ctx);
        }
    }

    /// Counts the look-ahead calls it gets; `delays_us` are the timers each
    /// life starts with.
    struct Probe {
        prefetched: std::cell::Cell<u64>,
        delays_us: Vec<u64>,
    }

    impl Probe {
        fn new(delays_us: &[u64]) -> Self {
            Probe {
                prefetched: std::cell::Cell::new(0),
                delays_us: delays_us.to_vec(),
            }
        }
    }

    /// The anchor's early timer, alone in slot 4.
    const ANCHOR_US: u64 = 5_000;
    /// Where every other event of the probe world lands: slot 19.
    const BATCH_US: u64 = 20_000;

    impl Process<Msg> for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            for &delay in &self.delays_us {
                ctx.schedule(SimDuration::from_micros(delay), delay);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ProcessId, _msg: Msg) {}
        fn prefetch(&self) {
            self.prefetched.set(self.prefetched.get() + 1);
        }
    }

    /// A world whose slot 19 loads with `probes + 10` events of every kind:
    /// `probes + 2` timers (one of a downed process, one of a previous
    /// life), six deliveries (one to the downed process) and two
    /// injections, the second of which brings the downed process back up.
    /// Returns it started, slot 19 still in the ring, with the look-ahead
    /// calls each process should have received once that slot is loaded
    /// and staged.
    fn probe_world(probes: usize) -> (Sim<Msg>, Vec<u64>) {
        let medium = IdealMedium::with_latency(SimDuration::from_micros(BATCH_US));
        let mut sim: Sim<Msg> = SimBuilder::new(3).build_with_medium(Box::new(medium));
        // The anchor's early timer is alone in slot 4: starting the world
        // loads that slot and leaves the cursor on it.
        sim.add_process(Probe::new(&[ANCHOR_US, BATCH_US]));
        assert_eq!(sim.run_until(SimTime::ZERO), 0);
        for _ in 0..probes {
            sim.add_process(Probe::new(&[BATCH_US]));
        }
        let mut want = vec![1; probes + 1];
        sim.set_down(ProcessId(1));
        sim.set_down(ProcessId(2));
        sim.set_up(ProcessId(2));
        want[2] += 1;
        for to in [1, 3, 4, 5, 6, 7] {
            sim.send_external(ProcessId(to), Msg::Ping(0));
            want[to] += 1;
        }
        sim.schedule_injection(SimTime::from_micros(BATCH_US), |_| {});
        sim.schedule_injection(SimTime::from_micros(BATCH_US), |sim| {
            sim.set_up(ProcessId(1));
        });
        let calls: u64 = want.iter().sum();
        assert_eq!(calls as usize, probes + 8, "timers and deliveries");
        (sim, want)
    }

    /// Runs a built world, one way or another.
    type Drive = fn(&mut Sim<Msg>);

    fn prefetch_calls(sim: &Sim<Msg>) -> Vec<u64> {
        (0..sim.nodes.len())
            .map(|i| sim.process::<Probe>(ProcessId(i)).unwrap().prefetched.get())
            .collect()
    }

    #[test]
    fn a_large_slot_is_staged_once_per_timer_and_delivery_whoever_drives_the_run() {
        let drivers: [(&str, Drive); 3] = [
            ("run_until", |sim| {
                sim.run_until(SimTime::from_secs(1));
            }),
            ("step", |sim| while sim.step() {}),
            ("run_to_completion", |sim| {
                sim.run_to_completion();
            }),
        ];
        // 22 probes make the slot exactly `STAGE_MIN` events.
        for probes in [STAGE_MIN - 10, 24] {
            for (name, drive) in drivers {
                let (mut sim, want) = probe_world(probes);
                assert!(prefetch_calls(&sim).iter().all(|&n| n == 0), "{name}");
                // The anchor pops; the next load brings slot 19 in. The dead
                // process's timer and delivery, the stale timer and both
                // injections all pop; process 1 restarts into a slot of one
                // event, which is not staged.
                drive(&mut sim);
                assert!(sim.is_up(ProcessId(1)));
                assert!(sim.now() >= SimTime::from_micros(2 * BATCH_US));
                assert_eq!(prefetch_calls(&sim), want, "{name}, {probes} probes");
            }
        }
    }

    #[test]
    fn a_slot_is_staged_when_it_loads_and_not_below_the_gate() {
        for (probes, staged) in [(STAGE_MIN - 11, false), (STAGE_MIN - 10, true)] {
            let (mut sim, want) = probe_world(probes);
            // The anchor, then the load in front of the slot's first pop.
            assert!(sim.step() && sim.step());
            assert_eq!(sim.kernel.queue.census().0, probes + 9);
            let want = if staged { want } else { vec![0; probes + 1] };
            assert_eq!(prefetch_calls(&sim), want);
            sim.run_to_completion();
            assert_eq!(prefetch_calls(&sim), want);
        }
    }

    /// `P` with a `prefetch` that reads all of it.
    struct Reading<P>(P);

    impl<P: Process<Msg> + Copy> Process<Msg> for Reading<P> {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            self.0.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcessId, msg: Msg) {
            self.0.on_message(ctx, from, msg);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
            self.0.on_timer(ctx, tag);
        }
        fn prefetch(&self) {
            std::hint::black_box(self.0);
        }
    }

    /// Runs a world of `count` copies of `proc_` with the default `prefetch`,
    /// and the same world with every process reading itself in it; both must
    /// produce the same event sequence.
    fn same_run_with_and_without_prefetch<P>(proc_: P, count: usize, drive: Drive)
    where
        P: Process<Msg> + Copy + 'static,
    {
        let run = |reading: bool| {
            let medium = IdealMedium::with_latency(SimDuration::from_millis(3));
            let mut sim: Sim<Msg> = SimBuilder::new(17).build_with_medium(Box::new(medium));
            sim.add_observer(RingTrace::new(50_000));
            for _ in 0..count {
                if reading {
                    sim.add_process(Reading(proc_));
                } else {
                    sim.add_process(proc_);
                }
            }
            drive(&mut sim);
            let tail = sim.observer::<RingTrace>(0).unwrap().tail_json_lines();
            (sim.events_processed(), tail)
        };
        let (events, tail) = run(false);
        assert!(events > 20_000 && tail.len() > 20_000, "{events} events");
        assert_eq!(run(true), (events, tail));
    }

    #[test]
    fn prefetch_changes_nothing_in_a_large_timer_world() {
        same_run_with_and_without_prefetch(Ticker { fired: 0 }, 10_000, |sim| {
            sim.run_until(SimTime::from_secs(2));
        });
    }

    #[test]
    fn prefetch_changes_nothing_in_a_chattering_world_under_churn() {
        // 400 chatters 3 ms apart: every wave of messages is one slot of a
        // few hundred deliveries and timers, some for processes that went
        // down after the message was sent.
        let chatter = Chatter {
            budget: 60,
            peers: 400,
        };
        same_run_with_and_without_prefetch(chatter, 400, |sim| {
            let mut staged = 0;
            for round in 0..200 {
                sim.run_for(SimDuration::from_millis(1));
                staged = staged.max(sim.kernel.queue.census().0);
                let id = ProcessId(round * 7 % 400);
                sim.set_down(id);
                if round % 3 == 0 {
                    sim.set_up(id);
                }
            }
            assert!(staged >= 4 * STAGE_MIN, "largest loaded slot: {staged}");
            sim.run_to_completion();
        });
    }

    #[test]
    fn queue_stats_repeat_exactly_and_account_for_every_event() {
        let run = || {
            let medium = IdealMedium::with_latency(SimDuration::from_millis(3));
            let mut sim: Sim<Msg> = SimBuilder::new(29).build_with_medium(Box::new(medium));
            for _ in 0..400 {
                sim.add_process(Chatter {
                    budget: 60,
                    peers: 400,
                });
            }
            sim.run_to_completion();
            (sim.queue_stats(), sim.events_processed())
        };
        let (stats, events) = run();
        assert_eq!(run(), (stats, events));
        // Every event popped once: from a loaded slot, or from behind the
        // cursor.
        assert_eq!(stats.loaded + stats.behind, events);
        assert!(stats.staged > 0 && stats.staged < stats.slots, "{stats:?}");
        assert!(
            stats.widest >= STAGE_MIN as u64 && stats.behind > 0,
            "{stats:?}"
        );
    }

    #[test]
    fn payload_slots_are_all_returned_and_the_slab_is_the_peak_in_flight() {
        const PROCESSES: u64 = 6;
        for seed in 0..24 {
            for lossy in [false, true] {
                let builder = SimBuilder::new(seed);
                let mut sim: Sim<Msg> = if lossy {
                    let medium = LossyMedium::new(SimDuration::from_millis(1), 0.3);
                    builder.build_with_medium(Box::new(medium))
                } else {
                    builder.build()
                };
                for _ in 0..PROCESSES {
                    sim.add_process(Chatter {
                        budget: 40,
                        peers: PROCESSES,
                    });
                }
                // Occupancy only falls at the top of a step (the release) and
                // only rises after it, so reading it after every step and
                // every outside action sees the true peak.
                let mut script = SimRng::seed_from(seed ^ 0xA11CE);
                let mut peak = 0;
                let mut observe = |sim: &Sim<Msg>| {
                    let occupied = sim.in_flight();
                    peak = peak.max(occupied);
                };
                for _ in 0..400 {
                    let id = ProcessId(script.range_u64(0, PROCESSES) as usize);
                    match script.range_u64(0, 10) {
                        0 => sim.set_down(id),
                        1 | 2 => sim.set_up(id),
                        3 | 4 => sim.send_external(id, Msg::Ping(0)),
                        _ => {
                            sim.step();
                        }
                    }
                    observe(&sim);
                }
                while sim.step() {
                    observe(&sim);
                }
                sim.run_to_completion();
                assert!(peak > 1, "seed {seed}: the script kept messages in flight");
                assert_eq!(
                    (sim.in_flight(), sim.kernel.payloads.peak()),
                    (0, peak),
                    "seed {seed} lossy {lossy}: (occupied, slab length)"
                );
                let m = sim.metrics();
                assert_eq!(
                    m.counter("sim.msg.sent"),
                    m.counter("sim.msg.delivered") + m.counter("sim.msg.dropped"),
                    "seed {seed} lossy {lossy}: every message ended one way"
                );
            }
        }
    }

    #[test]
    fn a_delivery_to_a_downed_process_frees_its_slot_and_is_traced_as_dropped() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        sim.add_observer(RingTrace::new(16));
        let a = sim.add_process(Counter::new());
        sim.send_external(a, Msg::Ping(9));
        sim.set_down(a);
        assert_eq!(
            (sim.in_flight(), sim.kernel.payloads.peak()),
            (1, 1),
            "body waits queued"
        );
        assert!(sim.step());
        assert_eq!(
            (sim.in_flight(), sim.kernel.payloads.peak()),
            (0, 1),
            "slot returned"
        );
        assert!(sim.observer::<RingTrace>(0).unwrap().tail().any(
            |e| matches!(e.kind, SimEventKind::Dropped { to, reason: "down", .. } if to == a)
        ));
        assert_eq!(sim.metrics().counter("sim.msg.dropped"), 1);
        // The freed slot is the next one used.
        sim.set_up(a);
        sim.send_external(a, Msg::Ping(10));
        assert_eq!((sim.in_flight(), sim.kernel.payloads.peak()), (1, 1));
        sim.run_to_completion();
        assert_eq!(sim.process::<Counter>(a).unwrap().received.len(), 1);
    }

    #[test]
    fn dropping_a_sim_drops_each_queued_body_once() {
        use std::cell::Cell;
        use std::rc::Rc;

        #[derive(Debug)]
        struct Body(Rc<Cell<u32>>);
        impl Drop for Body {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        struct Sink;
        impl Process<Body> for Sink {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Body>, _from: ProcessId, _msg: Body) {}
        }

        let drops = Rc::new(Cell::new(0));
        let mut sim: Sim<Body> = SimBuilder::new(1).build();
        let up = sim.add_process(Sink);
        let down = sim.add_process(Sink);
        for _ in 0..4 {
            sim.send_external(up, Body(drops.clone()));
            sim.send_external(down, Body(drops.clone()));
        }
        sim.set_down(down);
        // One delivered and one dropped at a dead process: both bodies end
        // with their event.
        assert!(sim.step() && sim.step());
        assert_eq!(drops.get(), 2);
        assert_eq!((sim.in_flight(), sim.kernel.payloads.peak()), (6, 8));
        drop(sim);
        assert_eq!(drops.get(), 8, "six queued bodies, each dropped once");
    }

    #[test]
    fn deterministic_across_identical_runs() {
        fn run() -> (u64, u64) {
            let mut sim: Sim<Msg> = SimBuilder::new(99)
                .build_with_medium(Box::new(LossyMedium::new(SimDuration::from_millis(1), 0.3)));
            let a = sim.add_process(Counter::new());
            for i in 0..200 {
                sim.send_external(a, Msg::Ping(i));
            }
            sim.run_to_completion();
            (
                sim.metrics().counter("sim.msg.delivered"),
                sim.metrics().counter("sim.msg.dropped"),
            )
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn tracing_records_lifecycle() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        sim.add_observer(RingTrace::new(16));
        let a = sim.add_process(Counter::new());
        sim.send_external(a, Msg::Ping(3));
        sim.run_to_completion();
        let ring = sim.observer::<RingTrace>(0).unwrap();
        assert!(ring.len() >= 2);
        assert!(ring
            .tail()
            .any(|e| matches!(e.kind, SimEventKind::Delivered { to, .. } if to == a)));
    }

    /// Records the rendered form of every event it sees.
    struct Recorder {
        seen: Vec<String>,
    }

    impl SimObserver for Recorder {
        fn on_event(&mut self, event: &SimEvent) {
            self.seen.push(event.to_string());
        }
    }

    #[test]
    fn observers_see_the_trace_event_sequence() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        sim.add_observer(Recorder { seen: Vec::new() });
        sim.add_observer(RingTrace::new(64));
        let a = sim.add_process(Counter::new());
        let third = sim.add_observer(Recorder { seen: Vec::new() });
        sim.send_external(a, Msg::Ping(1));
        sim.set_down(a);
        sim.run_to_completion();
        let first: Vec<String> = sim.observer::<Recorder>(0).unwrap().seen.clone();
        let also: Vec<String> = sim.observer::<Recorder>(third).unwrap().seen.clone();
        let ring: Vec<String> = sim
            .observer::<RingTrace>(1)
            .unwrap()
            .tail()
            .map(|e| e.to_string())
            .collect();
        assert!(!first.is_empty());
        assert_eq!(first, also, "every observer sees the same sequence");
        assert_eq!(first, ring, "and an unwrapped ring holds exactly it");
    }

    #[test]
    fn observers_work_without_tracing() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        sim.add_observer(Recorder { seen: Vec::new() });
        let a = sim.add_process(Counter::new());
        sim.send_external(a, Msg::Ping(1));
        sim.run_to_completion();
        assert!(sim.wants(EventMask::ALL));
        assert!(!sim.observer::<Recorder>(0).unwrap().seen.is_empty());
    }

    #[test]
    fn nobody_listening_means_not_observing() {
        let sim: Sim<Msg> = SimBuilder::new(1).build();
        assert!(!sim.wants(EventMask::ALL));
    }

    #[test]
    fn annotations_are_gated_on_note_interest_not_on_any_observer() {
        /// Subscribes to lifecycle transitions only, as a stream
        /// pipeline's liveness operator does.
        struct Lifecycle;
        impl SimObserver for Lifecycle {
            fn on_event(&mut self, _event: &SimEvent) {}
            fn interest(&self) -> EventMask {
                EventMask::LIFECYCLE
            }
        }
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        sim.add_observer(Lifecycle);
        assert!(sim.wants(EventMask::PROCESS_DOWN));
        assert!(!sim.wants(EventMask::NOTE), "nobody reads notes yet");
        assert!(!sim.wants(EventMask::MEASURE));
        let ring = sim.add_observer(RingTrace::new(4));
        assert!(
            sim.wants(EventMask::NOTE),
            "a ring subscribes to everything"
        );
        sim.annotate("seen");
        assert_eq!(sim.observer::<RingTrace>(ring).unwrap().len(), 1);
    }

    #[test]
    fn ring_trace_retains_the_tail_of_the_run() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        sim.add_observer(RingTrace::new(4));
        let a = sim.add_process(Counter::new());
        for i in 0..20 {
            sim.send_external(a, Msg::Ping(i));
        }
        sim.run_to_completion();
        let ring = sim.observer::<RingTrace>(0).unwrap();
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.tail_json_lines().len(), 4);
    }

    #[test]
    fn ring_tail_rendered_late_equals_lines_rendered_on_arrival() {
        /// The eager reference: every event rendered as it arrives.
        struct Eager(Vec<String>);
        impl SimObserver for Eager {
            fn on_event(&mut self, event: &SimEvent) {
                self.0.push(event.to_json().render());
            }
        }
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        sim.add_observer(RingTrace::new(5));
        sim.add_observer(Eager(Vec::new()));
        let a = sim.add_process(Counter::new());
        for i in 0..12 {
            sim.send_external(a, Msg::Ping(i));
            sim.annotate(format!("phase={i}"));
        }
        sim.run_to_completion();
        let eager = sim.observer::<Eager>(1).unwrap().0.clone();
        let last = &eager[eager.len() - 5..];
        assert!(
            last.iter().any(|l| l.contains(r#""kind":"delivered""#)),
            "{last:?}"
        );
        assert!(eager.iter().any(|l| l.contains(r#""text":"phase=11""#)));
        // Slots were overwritten in place many times over, by notes and by
        // deliveries alike; the tail reads as if each line had been
        // rendered when its event happened.
        assert_eq!(
            sim.observer::<RingTrace>(0).unwrap().tail_json_lines(),
            last
        );
        let taken = sim.observer_mut::<RingTrace>(0).unwrap().take_tail();
        let rendered: Vec<String> = taken.iter().map(|e| e.to_json().render()).collect();
        assert_eq!(rendered, last);
    }

    #[test]
    fn external_annotations_reach_the_bus() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        sim.add_observer(RingTrace::new(16));
        sim.add_process(Counter::new());
        sim.annotate("phase=warmup");
        sim.run_to_completion();
        assert!(sim
            .observer::<RingTrace>(0)
            .unwrap()
            .tail()
            .any(|e| matches!(&e.kind, SimEventKind::Note { text, .. } if text == "phase=warmup")));
    }

    #[test]
    #[should_panic(expected = "event cap exceeded")]
    fn event_cap_panics() {
        struct Looper;
        impl Process<Msg> for Looper {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.schedule(SimDuration::from_micros(1), 0);
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ProcessId, _msg: Msg) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
                ctx.schedule(SimDuration::from_micros(1), 0);
            }
        }
        let mut sim: Sim<Msg> = SimBuilder::new(1).max_events(100).build();
        sim.add_process(Looper);
        sim.run_to_completion();
    }

    #[test]
    fn add_process_mid_run_starts_immediately() {
        let mut sim: Sim<Msg> = SimBuilder::new(1).build();
        let a = sim.add_process(Counter::new());
        sim.send_external(a, Msg::Ping(0));
        sim.run_to_completion();
        let b = sim.add_process(Counter::new());
        sim.send_external(b, Msg::Ping(1));
        sim.run_to_completion();
        assert_eq!(sim.process::<Counter>(b).unwrap().start_count, 1);
        assert_eq!(sim.process::<Counter>(b).unwrap().received.len(), 1);
    }
}
