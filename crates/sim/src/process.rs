//! Processes: the actors of a simulation.
//!
//! A [`Process`] is a deterministic state machine driven by the kernel: it
//! receives messages and timer expirations, and reacts through its [`Ctx`]
//! handle (sending messages, scheduling timers, recording metrics). Processes
//! never see wall-clock time or OS randomness — everything flows through the
//! kernel, which is what makes runs reproducible.

use crate::time::SimTime;
use std::fmt;

/// Identifies a process within one simulation. Indices are assigned densely
/// in spawn order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The behaviour of a simulated actor.
///
/// Implementations should be pure with respect to the kernel: all effects go
/// through [`Ctx`]. The kernel guarantees that at most one handler runs at a
/// time and that handlers observe a consistent virtual clock. A world's
/// node type is a `Process` ([`World::Node`](crate::World::Node)): a closed
/// world's enum implements it by `match`, and a boxed one forwards to what
/// the box holds.
///
/// # Examples
///
/// A process that echoes every message back to its sender:
///
/// ```
/// use riot_sim::{Ctx, Process, ProcessId};
///
/// struct Echo;
///
/// impl Process<String> for Echo {
///     fn on_message(&mut self, ctx: &mut Ctx<'_, String>, from: ProcessId, msg: String) {
///         ctx.send(from, msg);
///     }
/// }
/// ```
pub trait Process<M> {
    /// Called once when the simulation starts (or when the process is
    /// restarted after a crash). Schedule initial timers here.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message is delivered to this process.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ProcessId, msg: M);

    /// Called when a timer scheduled by this process fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Reads, and does not act on, what this process's next callback will
    /// touch: its own hot fields, and rows of shared tables it indexes. The
    /// kernel calls this for the target of every timer and delivery in a
    /// large batch of events it is about to dispatch, so that the cache
    /// misses of many processes overlap instead of being taken one event at
    /// a time. It may be called any number of times, or never, between
    /// callbacks; with `&self` and no [`Ctx`] it has no way to change the
    /// run. Pass what is read through [`std::hint::black_box`], or the
    /// compiler drops the loads. The default does nothing.
    fn prefetch(&self) {}
}

/// The kernel handle passed to every [`Process`] callback.
///
/// `Ctx` is the *only* channel through which a process can affect the world:
/// it can read the virtual clock, draw randomness, send messages (routed
/// through the run's [`Medium`](crate::Medium), borrowed from the world for
/// the length of the callback), schedule timers, and record metrics and
/// trace annotations.
pub struct Ctx<'a, M> {
    pub(crate) kernel: &'a mut crate::kernel::Kernel<M>,
    /// The world's medium, borrowed for the length of the callback.
    pub(crate) medium: &'a mut dyn crate::medium::Medium<M>,
    pub(crate) id: ProcessId,
}

impl<'a, M: fmt::Debug> Ctx<'a, M> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.clock
    }

    /// The id of the process being called.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Sends `msg` to `to`, routed through the medium (which decides latency
    /// and loss). Sending to a down process silently drops with a
    /// `Dropped` event; protocols are expected to tolerate loss.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        let from = self.id;
        self.kernel.submit_message(self.medium, from, to, msg);
    }

    /// Schedules a timer to fire on this process after `delay`, carrying
    /// `tag`. A timer cannot be cancelled: a handler that no longer wants
    /// it ignores it by `tag`, and a restart discards every timer of the
    /// previous life.
    pub fn schedule(&mut self, delay: crate::time::SimDuration, tag: u64) {
        self.kernel.schedule_timer(self.id, delay, tag);
    }

    /// Draws randomness from the run's deterministic stream.
    pub fn rng(&mut self) -> &mut crate::rng::SimRng {
        &mut self.kernel.rng
    }

    /// The run's metrics recorder.
    pub fn metrics(&mut self) -> &mut crate::metrics::Metrics {
        &mut self.kernel.metrics
    }

    /// Records a free-form annotation on the observability bus (a no-op when
    /// no observer subscribed to notes — the text conversion is skipped
    /// entirely, so hot-path annotations cost one branch on such runs).
    pub fn annotate(&mut self, text: impl Into<String>) {
        if !self.wants(crate::observer::EventMask::NOTE) {
            return;
        }
        let id = self.id;
        self.kernel.emit(crate::observer::SimEventKind::Note {
            id,
            text: text.into(),
        });
    }

    /// Publishes a numeric measurement on the observability bus, keyed by an
    /// interned [`MetricKey`](crate::MetricKey). Unlike [`Ctx::annotate`]
    /// this never allocates — the value travels as raw bits — so it is safe
    /// on hot paths; with nobody listening it is a single branch. Streaming
    /// telemetry operators ([`StreamPipeline`](crate::StreamPipeline)) consume these events.
    #[inline]
    pub fn measure(&mut self, key: crate::intern::MetricKey, value: f64) {
        if !self.wants(crate::observer::EventMask::MEASURE) {
            return;
        }
        let id = self.id;
        self.kernel.emit(crate::observer::SimEventKind::Measure {
            id,
            key,
            value_bits: value.to_bits(),
        });
    }

    /// `true` if some registered observer subscribed to a kind in `mask`.
    /// Pre-check `wants(EventMask::NOTE)` before building an expensive
    /// [`Ctx::annotate`] string.
    #[inline]
    pub fn wants(&self, mask: crate::observer::EventMask) -> bool {
        self.kernel.interest.intersects(mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_display() {
        assert_eq!(ProcessId(3).to_string(), "p3");
        assert_eq!(ProcessId(3).index(), 3);
    }
}
