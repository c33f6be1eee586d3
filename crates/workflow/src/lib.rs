// User-facing paths return typed errors; panicking shortcuts are banned
// from library code (tests may still unwrap).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! Scientific-workflow substrate for the Deco reproduction.
//!
//! Pegasus-style workflows are directed acyclic graphs of tasks; each task
//! carries a resource profile (CPU work, I/O volume, network volume) and
//! data-dependency edges carry the bytes that flow between tasks. The paper
//! evaluates on three applications — Montage (astronomy mosaics), Ligo
//! (gravitational-wave inspiral analysis) and Epigenomics (DNA methylation
//! pipelines) — in sizes of roughly 20, 100 and 1000 tasks, plus *ensembles*
//! of 30–50 same-structure workflows with priorities (Section 6.1).
//!
//! * [`task`] — task identifiers and resource profiles.
//! * [`dag`] — the DAG container: topological order, levels, critical paths.
//! * [`dax`] — the DAX XML exchange format (parse + emit, Figure 4).
//! * [`generators`] — Montage/Ligo/Epigenomics/pipeline/fork-join builders.
//! * [`ensemble`] — workflow ensembles with the paper's five priority
//!   distributions (constant, uniform sorted/unsorted, Pareto
//!   sorted/unsorted).

pub mod dag;
pub mod dax;
pub mod ensemble;
pub mod generators;
pub mod task;

pub use dag::{Workflow, WorkflowError};
pub use ensemble::{Ensemble, EnsembleType};
pub use task::{Task, TaskId, TaskProfile};
