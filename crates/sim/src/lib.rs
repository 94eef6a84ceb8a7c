//! # riot-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the `riot` resilient-IoT framework: a single-threaded,
//! fully deterministic discrete-event simulator. Every higher layer — the
//! network substrate, coordination protocols, data planes, MAPE-K loops and
//! the experiment harness — runs on this kernel.
//!
//! ## Model
//!
//! * **Virtual time** ([`SimTime`], [`SimDuration`]) is integer microseconds;
//!   no floating-point drift, exact event ordering.
//! * **Processes** ([`Process`]) are actors driven by messages and timers
//!   through a [`Ctx`] handle; they never see wall-clock time or OS
//!   randomness.
//! * **The medium** ([`Medium`]) decides latency and loss for every message;
//!   `riot-net` provides a full IoT topology medium, and [`IdealMedium`] /
//!   [`LossyMedium`] serve protocol tests.
//! * **Determinism**: one seeded ChaCha stream ([`SimRng`]) per run and
//!   stable tie-breaking in the event queue mean the same seed reproduces the
//!   same run bit-for-bit.
//! * **Observability**: three surfaces, one job each. *Events* go on a
//!   typed bus — the kernel emits one [`SimEvent`] per occurrence to an
//!   ordered list of [`SimObserver`]s, and the bounded [`RingTrace`] is the
//!   observer that keeps them (see [`observer`] for the determinism
//!   contract). *Bounded aggregates* over those events — moments, sketched
//!   percentiles, windows, flow and liveness counts — are operators of a
//!   [`StreamPipeline`] ([`stream`]). *Run totals* are [`Metrics`]:
//!   counters and histograms written through pre-interned [`MetricKey`]s.
//!   What a scenario samples per tick is its own record, not a fourth
//!   store here (`riot_core::SampleLog`).
//! * **Disruption**: processes can be crashed and restarted (with timer
//!   epochs so stale timers die), and arbitrary scheduled *injections* can
//!   mutate the world mid-run — the hook used for partitions, churn and
//!   domain transfers.
//!
//! ## Example
//!
//! ```
//! use riot_sim::{Ctx, Process, ProcessId, SimBuilder, SimDuration, SimTime};
//!
//! struct Beacon;
//!
//! impl Process<&'static str> for Beacon {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
//!         ctx.schedule(SimDuration::from_secs(1), 0);
//!     }
//!     fn on_message(&mut self, _: &mut Ctx<'_, &'static str>, _: ProcessId, _: &'static str) {}
//!     fn on_timer(&mut self, ctx: &mut Ctx<'_, &'static str>, _tag: u64) {
//!         let ticks = ctx.metrics().intern("beacon.tick");
//!         ctx.metrics().incr_key(ticks);
//!         ctx.schedule(SimDuration::from_secs(1), 0);
//!     }
//! }
//!
//! let mut sim = SimBuilder::new(7).build::<&'static str>();
//! sim.add_process(Beacon);
//! sim.run_until(SimTime::from_secs(10));
//! assert_eq!(sim.metrics().counter("beacon.tick"), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod intern;
pub mod json;
mod kernel;
mod medium;
mod metrics;
pub mod observer;
mod process;
mod queue;
mod rng;
mod sim;
pub mod stream;
mod time;

pub use intern::{MetricKey, Symbol, SymbolTable};
pub use json::{Json, ToJson};
pub use medium::{Delivery, IdealMedium, LossyMedium, Medium};
pub use metrics::{Histogram, HistogramSummary, Metrics};
pub use observer::{
    take_crash_tail, AnyObserver, EventMask, RingTrace, SimEvent, SimEventKind, SimObserver,
};
pub use process::{Ctx, Process, ProcessId, TimerId};
pub use queue::QueueStats;
pub use rng::SimRng;
pub use sim::{AnyProcess, Sim, SimBuilder};
pub use stream::{
    ActivityTracker, CountByKey, FlowAccounting, MeasureProbe, OnlineStats, QuantileSketch,
    StreamOp, StreamPipeline, TumblingWindow,
};
pub use time::{SimDuration, SimTime};
