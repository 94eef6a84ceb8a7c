//! # riot-campaign — disruption-campaign DSL, scenario fuzzer, shrinker
//!
//! §III of the paper catalogs the adverse changes a resilient IoT system
//! must absorb — infrastructure loss, service faults, connectivity
//! degradation, governance shifts, mobility, and adversarial interference.
//! The other crates model single disruptions; this crate makes whole
//! *campaigns* of them first-class:
//!
//! * **Vectors & compilation** ([`CampaignVector`], [`Campaign`]) — composable
//!   disruption vectors (cascading correlated failures, firmware-update
//!   waves, fault storms, mobility bursts, jurisdiction flips, cloud
//!   blackouts, split-brain partitions, adversarial link interference)
//!   with timing/intensity/scope dimensions, compiled deterministically
//!   into [`riot_model::DisruptionSchedule`]s against a
//!   [`riot_core::ScenarioSpec`]'s node-id layout. Each kind is one row of
//!   a kind table.
//! * **Programs** ([`CampaignProgram`]) — a flat, line-oriented text format binding
//!   a scenario shape, LTL monitor oracles, a campaign and its expected
//!   findings into one reproducible artifact; `parse(render(p)) == p`.
//!   Validation refuses a vector past the clock or past 2²⁰ events.
//! * **Generation & fuzzing** ([`generate`], [`fuzz_space`]) — seeded property-based
//!   campaign generation and mutation (all entropy through one explicit
//!   [`riot_sim::SimRng`], lint rule D3) swept through the
//!   [`riot_harness`] worker grid with `ScenarioSpec::monitors` as
//!   crash/violation oracles.
//! * **Shrinking** ([`shrink()`]) — a delta-debugging reducer that walks a
//!   minimality lattice (fewest vectors, then smallest intensity, then
//!   latest onset) to a fixpoint, emitting self-contained regression
//!   reproducers for `tests/campaigns/`.
//! * **CLI** ([`run_cli`]) — the `riot campaign run|fuzz|shrink` surface,
//!   including the `fuzz --smoke` CI gate.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod cli;
mod compile;
mod fuzz;
mod gen;
mod program;
mod shrink;
mod vector;

pub use cli::{reproducer_dir, run_cli, usage};
pub use compile::Campaign;
pub use fuzz::{case_program, fuzz_space, run_isolated, weakened_space, Finding};
pub use gen::{generate, mutate_in_place, CampaignSpace};
pub use program::{CampaignParseError, CampaignProgram, Expectation, ScenarioParams};
pub use shrink::{shrink, shrink_to, ShrinkOutcome, ShrinkStats};
pub use vector::{AdversaryMode, CampaignVector};
