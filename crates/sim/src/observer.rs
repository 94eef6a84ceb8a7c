//! The observability bus: typed kernel events and streaming observers.
//!
//! The kernel emits one [`SimEvent`] per significant occurrence — message
//! send/deliver/drop, timer fire, process lifecycle transition, annotation,
//! measurement — to an *ordered* list of [`SimObserver`]s registered on the
//! builder (or on [`Sim`](crate::Sim) before the run starts). Everything
//! that watches a run's *events* is such an observer: the bounded
//! [`RingTrace`] keeps the events themselves and a
//! [`StreamPipeline`](crate::StreamPipeline) folds them into bounded
//! aggregates. (Online runtime monitors — `riot_formal::OnlineMonitor`,
//! which flag a requirement violation *during* the run — read no events:
//! whoever computes the monitored valuation steps them with it.) There is
//! no built-in recorder: a run with no observer constructs no event.
//!
//! The determinism contract observers uphold is on [`SimObserver`].

use crate::intern::MetricKey;
use crate::json::{Json, ToJson};
use crate::process::ProcessId;
use crate::time::SimTime;
use std::any::Any;
use std::cell::RefCell;
use std::fmt;

/// What happened at one emitted instant. The drop reason is a
/// `&'static str` so the hot path never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimEventKind {
    /// A process submitted a message to the medium.
    Sent {
        /// Sending process.
        from: ProcessId,
        /// Destination process.
        to: ProcessId,
    },
    /// The medium delivered a message.
    Delivered {
        /// Sending process.
        from: ProcessId,
        /// Destination process.
        to: ProcessId,
    },
    /// A message was dropped (loss, partition, or dead destination).
    Dropped {
        /// Sending process.
        from: ProcessId,
        /// Destination process.
        to: ProcessId,
        /// Static reason (`"loss"`, `"partition"`, `"down"`, ...).
        reason: &'static str,
    },
    /// A timer fired at its owner.
    TimerFired {
        /// Owning process.
        owner: ProcessId,
        /// The tag the owner attached when scheduling.
        tag: u64,
    },
    /// A process was taken down (crash or scheduled churn).
    ProcessDown {
        /// The process.
        id: ProcessId,
    },
    /// A process came (back) up.
    ProcessUp {
        /// The process.
        id: ProcessId,
    },
    /// A free-form annotation ([`Ctx::annotate`](crate::Ctx::annotate), or
    /// [`Sim::annotate`](crate::Sim::annotate) with an external id).
    Note {
        /// Annotating process (`ProcessId(usize::MAX)` for external notes).
        id: ProcessId,
        /// The annotation text.
        text: String,
    },
    /// A numeric measurement ([`Ctx::measure`](crate::Ctx::measure)): the
    /// typed, allocation-free channel that feeds streaming telemetry
    /// operators ([`StreamPipeline`](crate::StreamPipeline)). The value travels as raw bits so the
    /// event type stays `Eq`/`Hash`; read it back with `f64::from_bits`.
    Measure {
        /// Measuring process.
        id: ProcessId,
        /// Which quantity, as an interned metric key. Only meaningful to
        /// consumers holding a key from the same run's recorder.
        key: MetricKey,
        /// `f64::to_bits` of the measured value.
        value_bits: u64,
    },
}

/// A subscription bitmask over [`SimEventKind`] variants.
///
/// Observers (and stream operators) advertise the event kinds they consume
/// via [`SimObserver::interest`]; the kernel unions the masks of every
/// registered observer and drops uninterested emissions behind a single
/// branch, before the event is even constructed. A kind nobody subscribed
/// to therefore costs the same as having no observers at all — the masks
/// are a throughput feature, never a semantic one: delivering a superset of
/// the declared interest would be equally correct, just slower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventMask(u16);

impl EventMask {
    /// The empty subscription.
    pub const NONE: EventMask = EventMask(0);
    /// [`SimEventKind::Sent`].
    pub const SENT: EventMask = EventMask(1 << 0);
    /// [`SimEventKind::Delivered`].
    pub const DELIVERED: EventMask = EventMask(1 << 1);
    /// [`SimEventKind::Dropped`].
    pub const DROPPED: EventMask = EventMask(1 << 2);
    /// [`SimEventKind::TimerFired`].
    pub const TIMER_FIRED: EventMask = EventMask(1 << 3);
    /// [`SimEventKind::ProcessDown`].
    pub const PROCESS_DOWN: EventMask = EventMask(1 << 4);
    /// [`SimEventKind::ProcessUp`].
    pub const PROCESS_UP: EventMask = EventMask(1 << 5);
    /// [`SimEventKind::Note`].
    pub const NOTE: EventMask = EventMask(1 << 6);
    /// [`SimEventKind::Measure`].
    pub const MEASURE: EventMask = EventMask(1 << 7);
    /// Both lifecycle transitions.
    pub const LIFECYCLE: EventMask = EventMask(1 << 4 | 1 << 5);
    /// Every event kind (the conservative default).
    pub const ALL: EventMask = EventMask(0xFF);

    /// `true` if the two masks share any kind.
    #[inline]
    pub fn intersects(self, other: EventMask) -> bool {
        self.0 & other.0 != 0
    }
}

impl std::ops::BitOr for EventMask {
    type Output = EventMask;
    fn bitor(self, rhs: EventMask) -> EventMask {
        EventMask(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for EventMask {
    fn bitor_assign(&mut self, rhs: EventMask) {
        self.0 |= rhs.0;
    }
}

impl SimEventKind {
    /// The single-bit [`EventMask`] of this kind.
    #[inline]
    pub fn mask(&self) -> EventMask {
        match self {
            SimEventKind::Sent { .. } => EventMask::SENT,
            SimEventKind::Delivered { .. } => EventMask::DELIVERED,
            SimEventKind::Dropped { .. } => EventMask::DROPPED,
            SimEventKind::TimerFired { .. } => EventMask::TIMER_FIRED,
            SimEventKind::ProcessDown { .. } => EventMask::PROCESS_DOWN,
            SimEventKind::ProcessUp { .. } => EventMask::PROCESS_UP,
            SimEventKind::Note { .. } => EventMask::NOTE,
            SimEventKind::Measure { .. } => EventMask::MEASURE,
        }
    }

    /// Short machine-readable label for this event kind.
    pub fn label(&self) -> &'static str {
        match self {
            SimEventKind::Sent { .. } => "sent",
            SimEventKind::Delivered { .. } => "delivered",
            SimEventKind::Dropped { .. } => "dropped",
            SimEventKind::TimerFired { .. } => "timer",
            SimEventKind::ProcessDown { .. } => "down",
            SimEventKind::ProcessUp { .. } => "up",
            SimEventKind::Note { .. } => "note",
            SimEventKind::Measure { .. } => "measure",
        }
    }
}

/// One event on the observability bus.
#[derive(Debug, PartialEq, Eq)]
pub struct SimEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: SimEventKind,
    /// Always empty from the kernel; kept so that code building a
    /// `SimEvent` literal (a trace test, a hand-fed observer) still
    /// compiles.
    pub detail: String,
}

impl Clone for SimEvent {
    fn clone(&self) -> Self {
        SimEvent {
            at: self.at,
            kind: self.kind.clone(),
            detail: self.detail.clone(),
        }
    }

    /// Overwrites `self` reusing its string buffers: a slot of a full
    /// [`RingTrace`] takes the next event without allocating once its
    /// buffers have grown to the texts the run emits.
    fn clone_from(&mut self, source: &Self) {
        self.at = source.at;
        match (&mut self.kind, &source.kind) {
            (
                SimEventKind::Note { id, text },
                SimEventKind::Note {
                    id: from,
                    text: src,
                },
            ) => {
                *id = *from;
                text.clone_from(src);
            }
            // riot-lint: allow(A1, reason = "allocates only when a Note lands on a slot that held another kind (one text buffer); every other kind is plain data")
            (kind, from) => *kind = from.clone(),
        }
        self.detail.clone_from(&source.detail);
    }
}

impl fmt::Display for SimEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {:?} {}", self.at, self.kind, self.detail)
    }
}

impl ToJson for SimEvent {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("t_us".to_owned(), Json::UInt(self.at.as_micros())),
            ("kind".to_owned(), Json::Str(self.kind.label().to_owned())),
        ];
        let mut pid = |name: &str, id: ProcessId| {
            let v = if id.0 == usize::MAX {
                Json::Str("external".to_owned())
            } else {
                Json::UInt(id.0 as u64)
            };
            fields.push((name.to_owned(), v));
        };
        match &self.kind {
            SimEventKind::Sent { from, to } | SimEventKind::Delivered { from, to } => {
                pid("from", *from);
                pid("to", *to);
            }
            SimEventKind::Dropped { from, to, reason } => {
                pid("from", *from);
                pid("to", *to);
                fields.push(("reason".to_owned(), Json::Str((*reason).to_owned())));
            }
            SimEventKind::TimerFired { owner, tag } => {
                pid("owner", *owner);
                fields.push(("tag".to_owned(), Json::UInt(*tag)));
            }
            SimEventKind::ProcessDown { id } | SimEventKind::ProcessUp { id } => {
                pid("id", *id);
            }
            SimEventKind::Note { id, text } => {
                pid("id", *id);
                fields.push(("text".to_owned(), Json::Str(text.clone())));
            }
            SimEventKind::Measure {
                id,
                key,
                value_bits,
            } => {
                pid("id", *id);
                // Keys are never serialized into results (DESIGN.md §9);
                // this raw id appears only in diagnostic event dumps, where
                // it is meaningless outside the emitting run by design.
                fields.push(("key".to_owned(), Json::UInt(u64::from(key.0))));
                fields.push(("value".to_owned(), Json::Float(f64::from_bits(*value_bits))));
            }
        }
        if !self.detail.is_empty() {
            fields.push(("detail".to_owned(), Json::Str(self.detail.clone())));
        }
        Json::Obj(fields)
    }
}

/// A streaming consumer of kernel events.
///
/// Observers run on the simulation thread and must be cheap relative to the
/// event rate they subscribe to.
///
/// # Determinism contract
///
/// Observers are passive taps, not actors:
///
/// 1. An observer receives `&SimEvent` only — it has no kernel handle, cannot
///    send messages, schedule timers, or draw randomness, and therefore
///    cannot perturb the run. Results with and without observers registered
///    are byte-identical by construction.
/// 2. Events arrive in virtual-time order (ties in kernel scheduling order),
///    exactly once each, on the single simulation thread.
/// 3. Dispatch order is registration order. Observer state must depend only
///    on the event stream, never on wall-clock time or ambient entropy
///    (riot-lint rules D2/D3 apply here).
/// 4. The union of the registered [`SimObserver::interest`] masks is the one
///    gate on the emit path: a kind nobody subscribed to returns at a single
///    branch and allocates nothing, and call sites that format a text ask
///    [`Ctx::wants`](crate::Ctx::wants) first.
pub trait SimObserver {
    /// Called once per kernel event, in virtual-time order.
    fn on_event(&mut self, event: &SimEvent);

    /// The event kinds this observer consumes. The kernel samples this once
    /// at registration and never dispatches kinds outside the mask to this
    /// observer; kinds *no* observer subscribed to are dropped before the
    /// event is constructed. Purely an
    /// optimization — observers must tolerate receiving a superset. The
    /// default subscribes to everything.
    fn interest(&self) -> EventMask {
        EventMask::ALL
    }

    /// A short, human-readable name used in diagnostics.
    fn name(&self) -> &str {
        "observer"
    }
}

/// Object-safe super-trait that adds downcasting to [`SimObserver`]; blanket
/// implemented for every `'static` observer, so user code never sees it.
pub trait AnyObserver: SimObserver {
    /// Upcast to [`Any`] for post-run inspection.
    fn as_any(&self) -> &dyn Any;
    /// Mutable upcast to [`Any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: SimObserver + Any> AnyObserver for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

thread_local! {
    /// Rendered tail of the most recent [`RingTrace`] dropped during a panic
    /// unwind on this thread; harvested by [`take_crash_tail`].
    static CRASH_TAIL: RefCell<Option<Vec<String>>> = const { RefCell::new(None) };
}

/// Takes the crash-forensics tail left behind by a forensic [`RingTrace`]
/// that was dropped while its thread was panicking (see
/// [`RingTrace::forensics`]). Returns `None` if no panic-drop happened since
/// the last call. The harness calls this after `catch_unwind` to attach the
/// last events of a crashed cell to its error row.
pub fn take_crash_tail() -> Option<Vec<String>> {
    CRASH_TAIL.with(|cell| cell.borrow_mut().take())
}

/// A bounded recording observer: keeps the last `capacity` events, evicting
/// the oldest, so long runs get crash forensics without unbounded retention.
///
/// The ring holds events, not text: nothing is rendered until someone reads
/// the tail ([`RingTrace::tail_json_lines`]), and [`RingTrace::take_tail`]
/// hands the events on still unrendered. A full ring overwrites its oldest
/// slot in place, so steady state allocates nothing.
///
/// With [`RingTrace::forensics`], the ring publishes its rendered tail to a
/// thread-local when dropped during a panic unwind ([`take_crash_tail`]),
/// which is how harness cells ship their final events inside `CellError`
/// rows. A crash is the moment the tail is read, so that path renders; it
/// only runs while unwinding — a completed run pays nothing beyond the ring
/// itself.
#[derive(Debug)]
pub struct RingTrace {
    capacity: usize,
    /// Up to `capacity` events. Once full, `oldest` indexes the next slot to
    /// overwrite and the tail reads `slots[oldest..]` then `slots[..oldest]`.
    slots: Vec<SimEvent>,
    oldest: usize,
    forensics: bool,
}

/// Most slots a new [`RingTrace`] reserves before its first event: a ring
/// sized for the longest run still costs a short one only what it emits.
const RING_RESERVE: usize = 1024;

impl RingTrace {
    /// A ring keeping the last `capacity` events (at least 1). Slots are
    /// allocated as events arrive, up to `capacity`.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingTrace {
            capacity,
            slots: Vec::with_capacity(capacity.min(RING_RESERVE)),
            oldest: 0,
            forensics: false,
        }
    }

    /// A ring that additionally publishes its tail for [`take_crash_tail`]
    /// when dropped during a panic unwind.
    pub fn forensics(capacity: usize) -> Self {
        let mut ring = RingTrace::new(capacity);
        ring.forensics = true;
        ring
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The retained events, oldest first.
    pub fn tail(&self) -> impl Iterator<Item = &SimEvent> {
        let (newer, older) = self.slots.split_at(self.oldest);
        older.iter().chain(newer)
    }

    /// Moves the retained events out, oldest first, leaving the ring empty.
    pub fn take_tail(&mut self) -> Vec<SimEvent> {
        self.slots.rotate_left(self.oldest);
        self.oldest = 0;
        std::mem::take(&mut self.slots)
    }

    /// The retained events rendered as compact JSON lines, oldest first.
    pub fn tail_json_lines(&self) -> Vec<String> {
        self.tail().map(|e| e.to_json().render()).collect()
    }
}

impl SimObserver for RingTrace {
    fn on_event(&mut self, event: &SimEvent) {
        let full = self.slots.len() == self.capacity;
        match self.slots.get_mut(self.oldest) {
            Some(slot) if full => {
                slot.clone_from(event);
                self.oldest = (self.oldest + 1) % self.capacity;
            }
            // riot-lint: allow(A1, reason = "clones, and grows the slot vector, only while the ring fills, at most `capacity` times a run; a full ring overwrites in place")
            _ => self.slots.push(event.clone()),
        }
    }

    fn name(&self) -> &str {
        "ring-trace"
    }
}

impl Drop for RingTrace {
    fn drop(&mut self) {
        if self.forensics && std::thread::panicking() && !self.slots.is_empty() {
            let tail = self.tail_json_lines();
            CRASH_TAIL.with(|cell| *cell.borrow_mut() = Some(tail));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> SimEvent {
        SimEvent {
            at: SimTime::from_micros(n),
            kind: SimEventKind::TimerFired {
                owner: ProcessId(0),
                tag: n,
            },
            detail: String::new(),
        }
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let mut ring = RingTrace::new(3);
        for n in 0..10 {
            ring.on_event(&ev(n));
        }
        assert_eq!(ring.len(), 3);
        let tags: Vec<u64> = ring
            .tail()
            .map(|e| match e.kind {
                SimEventKind::TimerFired { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![7, 8, 9]);
    }

    #[test]
    fn overwritten_slots_keep_nothing_of_the_evicted_event() {
        let note = |n: u64, text: &str| SimEvent {
            at: SimTime::from_micros(n),
            kind: SimEventKind::Note {
                id: ProcessId(usize::MAX),
                text: text.to_owned(),
            },
            detail: format!("payload {n}"),
        };
        // Ten events through three slots: the long note at 2 is evicted by a
        // timer, the short note at 8 lands on a slot that held a timer, and
        // the one at 5 is overwritten by it.
        let events: Vec<SimEvent> = (0..10)
            .map(|n| match n {
                2 => note(n, "an evicted note with a long text"),
                5 => note(n, "overwritten in place"),
                8 => note(n, "kept"),
                _ => ev(n),
            })
            .collect();
        let mut ring = RingTrace::new(3);
        for e in &events {
            ring.on_event(e);
        }
        assert_eq!(ring.len(), 3);
        let tail: Vec<SimEvent> = ring.tail().cloned().collect();
        assert_eq!(tail, events[7..], "the last three, oldest first, verbatim");
        assert_eq!(
            ring.tail_json_lines()[1],
            r#"{"t_us":8,"kind":"note","id":"external","text":"kept","detail":"payload 8"}"#
        );
        assert_eq!(ring.take_tail(), events[7..], "moved out in the same order");
        assert!(ring.is_empty(), "and the ring starts over");
        ring.on_event(&events[0]);
        assert_eq!(ring.tail().count(), 1);
    }

    #[test]
    fn ring_capacity_is_at_least_one() {
        let mut ring = RingTrace::new(0);
        ring.on_event(&ev(1));
        ring.on_event(&ev(2));
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn a_large_ring_reserves_little_and_grows_to_its_capacity() {
        let big = RingTrace::new(1 << 20);
        assert_eq!(big.capacity(), 1 << 20);
        assert!(big.slots.capacity() <= RING_RESERVE, "reserved up front");

        let mut ring = RingTrace::new(3 * RING_RESERVE);
        for n in 0..4 * RING_RESERVE as u64 {
            ring.on_event(&ev(n));
        }
        assert_eq!(ring.len(), 3 * RING_RESERVE, "grew past the reservation");
        let first = ring.tail().next().map(|e| e.at);
        assert_eq!(first, Some(SimTime::from_micros(RING_RESERVE as u64)));
    }

    #[test]
    fn event_renders_as_json_object() {
        let e = SimEvent {
            at: SimTime::from_micros(1500),
            kind: SimEventKind::Dropped {
                from: ProcessId(1),
                to: ProcessId(usize::MAX),
                reason: "loss",
            },
            detail: "Ping(1)".to_owned(),
        };
        let line = e.to_json().render();
        assert_eq!(
            line,
            r#"{"t_us":1500,"kind":"dropped","from":1,"to":"external","reason":"loss","detail":"Ping(1)"}"#
        );
    }

    #[test]
    fn forensic_ring_publishes_tail_on_panic_drop() {
        let _ = take_crash_tail();
        let result = std::panic::catch_unwind(|| {
            let mut ring = RingTrace::forensics(2);
            for n in 0..5 {
                ring.on_event(&ev(n));
            }
            panic!("boom");
        });
        assert!(result.is_err());
        let tail = take_crash_tail().expect("tail published during unwind");
        assert_eq!(tail.len(), 2);
        assert!(tail[0].contains("\"tag\":3"));
        assert!(take_crash_tail().is_none(), "tail is taken exactly once");
    }

    #[test]
    fn non_forensic_ring_does_not_publish() {
        let _ = take_crash_tail();
        let result = std::panic::catch_unwind(|| {
            let mut ring = RingTrace::new(2);
            ring.on_event(&ev(1));
            panic!("boom");
        });
        assert!(result.is_err());
        assert!(take_crash_tail().is_none());
    }
}
