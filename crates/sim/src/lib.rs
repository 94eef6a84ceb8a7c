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
//!   `riot-net` provides a full IoT topology medium, and [`IdealMedium`]
//!   serves protocol tests.
//! * **Worlds** ([`World`]): one kernel, generic over what it runs — the
//!   type of a process-table entry, the medium and the injection type. A
//!   closed world (riot-core's scenario: an enum of its node types, its
//!   network by value, an enum of its disruptions) dispatches by `match`
//!   and reads its nodes back by pattern. `Sim<M>` is the kernel over the
//!   boxed world, [`DynWorld`]: any process and any medium behind a box,
//!   closures as injections, and the only world that reads a process back
//!   by type.
//! * **Determinism**: one seeded ChaCha stream ([`SimRng`]) per run and
//!   stable tie-breaking in the event queue mean the same seed reproduces the
//!   same run bit-for-bit.
//! * **Observability**: three surfaces, one job each. *Events* go on a
//!   typed bus — the kernel emits one [`SimEvent`] per occurrence to an
//!   ordered list of [`SimObserver`]s, and the bounded [`RingTrace`] is the
//!   observer that keeps them (see [`SimObserver`] for the determinism
//!   contract). *Bounded aggregates* over those events — moments, sketched
//!   percentiles, windows, flow and liveness counts — are operators of a
//!   [`StreamPipeline`]. *Run totals* are [`Metrics`]:
//!   counters and histograms written through pre-interned [`MetricKey`]s.
//!   What a scenario samples per tick is its own record, not a fourth
//!   store here (`riot_core::SampleLog`).
//! * **Disruption**: processes can be crashed and restarted (with timer
//!   epochs so stale timers die), and scheduled *injections*
//!   ([`Sim::inject_at`], applied by [`World::inject`]) mutate the world
//!   mid-run — the hook used for partitions, churn and domain transfers.
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
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod intern;
mod json;
mod kernel;
mod medium;
mod metrics;
mod observer;
mod process;
mod queue;
mod rng;
mod sim;
mod stream;
mod time;
mod world;

pub use intern::{MetricKey, Symbol, SymbolTable};
pub use json::{Json, ToJson};
pub use medium::{Delivery, IdealMedium, Medium};
pub use metrics::{Histogram, HistogramSummary, Metrics};
pub use observer::{
    take_crash_tail, AnyObserver, EventMask, RingTrace, SimEvent, SimEventKind, SimObserver,
};
pub use process::{Ctx, Process, ProcessId};
pub use queue::QueueStats;
pub use rng::SimRng;
pub use sim::{Sim, SimBuilder};
pub use stream::{
    ActivityTracker, CountByKey, FlowAccounting, MeasureProbe, OnlineStats, QuantileSketch,
    StreamOp, StreamPipeline, TumblingWindow,
};
pub use time::{SimDuration, SimTime};
pub use world::{AnyProcess, DynWorld, World};
