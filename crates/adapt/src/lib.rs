//! # riot-adapt — runtime self-adaptation (MAPE-K) for IoT
//!
//! §VII of the paper brings the self-adaptive-systems playbook to IoT: a
//! MAPE loop — "(M)onitoring the environment for changes which are
//! reflected in a model, (A)nalyzing the model for possible requirements
//! violations, (P)lanning required countermeasures and then (E)xecuting the
//! appropriate actions" — with the twist that analysis and planning should
//! sit on *edge components*, close to the devices they manage.
//!
//! [`MapeLoop`] is the Analyze and Plan stages the archetypes run, over a
//! knowledge base of component lifecycle states: when its scope is not
//! fully covered, it plans one [`Restart`] per component it believes
//! failed. Monitoring and execution are the caller's boundary, matching
//! Figure 5's placement of sensing and actuation at the devices; where the
//! loop runs (cloud or edge) is the caller's choice too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mape;

pub use mape::{MapeLoop, MapeStats, Restart};
