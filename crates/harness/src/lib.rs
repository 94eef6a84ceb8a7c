//! # riot-harness — parallel, panic-isolated, deterministic experiment execution
//!
//! Every experiment in the reproduction is a *sweep*: a grid of
//! (scenario × seed × parameter-cell) combinations, each an independent,
//! single-threaded, deterministic simulation. Before this crate, every
//! binary in `crates/bench` re-implemented its own sequential sweep loop;
//! the ROADMAP north-star ("runs as fast as the hardware allows") wants
//! those loops saturating all cores *without* giving up the determinism
//! guarantee that `riot-lint` and `tests/determinism.rs` enforce.
//!
//! The harness splits a sweep into three phases with one invariant each:
//!
//! 1. **Declare** — the experiment builds a [`Grid`] of [`Cell`]s. A cell
//!    is an id, a seed, parameter bindings (for grouping and error
//!    reports) and a closure that runs one isolated simulation. Grid
//!    order is the *only* order that ever matters.
//! 2. **Execute** — [`Grid::run`] distributes cells over a worker pool
//!    (thread count from [`HarnessConfig`]: `--threads` / `RIOT_THREADS` /
//!    available cores). Workers pull from a shared queue, so load
//!    balancing is dynamic, and each cell runs under
//!    `std::panic::catch_unwind`: a crashing cell becomes a structured
//!    [`CellError`] row instead of killing the sweep.
//! 3. **Merge** — results are written back by grid index, so the
//!    [`GridReport`] (and any JSON rendered from it) is **byte-identical
//!    for every thread count**. Wall-clock observations (per-cell time,
//!    ETA) exist only on the progress channel and in [`CellRecord::wall`];
//!    they are never serialized.
//!
//! Multi-seed aggregation is first-class: [`GridReport::seed_stats`] folds
//! same-parameter cells across seeds into [`riot_core::Stats`] (mean /
//! stddev / 95% confidence interval), replacing the ad-hoc per-binary
//! averaging the experiment binaries used to carry.
//!
//! ```
//! use riot_harness::{Cell, Grid, HarnessConfig};
//!
//! let mut grid = Grid::new();
//! for seed in [1u64, 2, 3] {
//!     grid.cell(Cell::new(format!("demo/s{seed}"), seed, move || seed * 10));
//! }
//! let report = grid.run(&HarnessConfig::with_threads(2).quiet());
//! let values: Vec<u64> = report.values().copied().collect();
//! assert_eq!(values, vec![10, 20, 30]); // grid order, regardless of threads
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod config;
mod fuzz;
mod grid;
mod pool;
mod progress;

pub use config::HarnessConfig;
pub use fuzz::{fuzz_grid, FuzzCase, FuzzPlan, FuzzReport};
pub use grid::{Cell, CellError, CellRecord, Grid, GridReport};
