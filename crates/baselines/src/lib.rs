// User-facing paths return typed errors; panicking shortcuts are banned
// from library code (tests may still unwrap).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! State-of-the-art comparators the paper evaluates Deco against
//! (Section 6.1 "Implementation details"):
//!
//! * [`autoscaling`] — Mao & Humphrey (SC'11): deadline assignment plus
//!   cost-efficient per-task instance selection, for the workflow
//!   scheduling problem.
//! * [`spss`] — Malawski et al. (SC'12): Static Provisioning Static
//!   Scheduling, for workflow ensembles.
//! * [`heuristic`] — the paper's own light-weight comparator for
//!   follow-the-cost: an offline price-difference migration plan plus
//!   threshold-triggered runtime adjustment.
//! * [`naive`] — the Figure 1 configurations: one fixed instance type for
//!   everything, and Pegasus' default Random scheduler.

pub mod autoscaling;
pub mod heuristic;
pub mod naive;
pub mod spss;

pub use autoscaling::autoscaling_plan;
pub use heuristic::FollowCostHeuristic;
pub use naive::{random_types, single_type_plan};
pub use spss::{spss_admit, SpssOutcome};
