//! The pipeline benchmark: six named workloads over the planner and the
//! serving tiers, end-to-end metrics from untraced runs and per-layer
//! metrics from a traced run of the same workload and seed. See
//! `BENCHMARK.md` beside this package for the contract.

pub mod check;
pub mod harness;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod plan;
pub mod run;
pub mod sampling;
pub mod serving;
pub mod trace;
