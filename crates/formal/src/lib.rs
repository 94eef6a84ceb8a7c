//! # riot-formal — formal foundations for resilient IoT
//!
//! §IV of the paper asks for "formally analyzable and verifiable models to
//! enable reasoning, starting from the early stages of design to
//! models@runtime", naming "formal logics, computational models, and
//! stochastic processes or uncertainty quantification techniques". This
//! crate implements that toolbox:
//!
//! * **Vocabulary** — interned atomic propositions ([`Atoms`]) and bitmask
//!   state [`Valuation`]s.
//! * **Computational models** — explicit-state [`Kripke`] structures with
//!   validation, stutter-completion and a seeded random generator for
//!   benchmark workloads.
//! * **Qualitative model checking** — a full [`Ctl`] checker
//!   ([`CtlChecker`]) with the textbook fixpoint algorithms, used for
//!   design-time verification (Figure 2): e.g. `AG EF up` — "recovery is
//!   always possible".
//! * **Runtime verification** — [`Ltl`] over finite traces with a
//!   progression-based online [`Monitor`] producing three-valued verdicts;
//!   progression is property-tested equivalent to the trace semantics. The
//!   [`OnlineMonitor`] bank is stepped by its owner *during* a run (a
//!   `riot-core` scenario does so once per sample) with O(formula) memory,
//!   timestamping violations the instant they become definite.
//! * **Bounded exploration** — [`bounded_search`]/[`check_invariant`] over
//!   implicit [`TransitionSystem`]s, with shortest counterexample paths.
//! * **Probabilistic model checking** — [`Dtmc`] Markov chains with
//!   bounded/unbounded reachability and stationary distributions (PCTL-style
//!   availability queries).
//! * **Uncertainty quantification** — statistical model checking:
//!   [`estimate_probability`] with Wilson intervals, [`hoeffding_samples`],
//!   and Wald's [`Sprt`] for threshold queries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctl;
mod kripke;
mod ltl;
mod monitor;
mod online;
mod parse;
mod prob;
mod prop;
mod reach;
mod stat;

pub use ctl::{Ctl, CtlChecker, SatSet};
pub use kripke::{Kripke, KripkeDefect, StateId};
pub use ltl::Ltl;
pub use monitor::{progress, simplify, Monitor, Verdict3};
pub use online::{OnlineMonitor, OnlineProperty};
pub use parse::{parse_ctl, parse_ltl, ParseError};
pub use prob::{Dtmc, DtmcDefect};
pub use prop::{AtomId, Atoms, Valuation, MAX_ATOMS};
pub use reach::{bounded_search, check_invariant, SearchResult, TransitionSystem};
pub use stat::{estimate_probability, hoeffding_samples, wilson, Estimate, Sprt, SprtDecision};
