// User-facing paths return typed errors; panicking shortcuts are banned
// from library code (tests may still unwrap).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! A Pegasus-style workflow management system with Deco integrated as a
//! scheduler callout (the paper's Figure 3).
//!
//! Users submit workflows as DAX documents. The **mapper** turns the
//! abstract workflow into an executable one — which site (instance) each
//! task runs on — by consulting a pluggable **scheduler**: Pegasus'
//! default Random scheduler, fixed single-type configurations, the
//! Autoscaling comparator, or Deco. The **execution engine** dispatches
//! the executable workflow onto the cloud substrate and reports makespan
//! and monetary cost; for the follow-the-cost use case it consults a
//! runtime policy at every decision epoch.
//!
//! * [`scheduler`] — the scheduler callout trait and its implementations.
//! * [`mapper`] — abstract → executable workflow translation.
//! * [`wms`] — the WMS facade: submit, plan, execute, repeat-100-times.
//! * [`waas`] — WaaS tenant mixes: multi-tenant arrival traces from the
//!   paper's workflow families, and outcome grading of served response
//!   streams (the fleet-vs-private comparison's workload).

pub mod mapper;
pub mod scheduler;
pub mod waas;
pub mod wms;

pub use mapper::ExecutableWorkflow;
pub use scheduler::{
    AutoscalingScheduler, DecoScheduler, RandomScheduler, Scheduler, SingleTypeScheduler,
};
pub use waas::{mixed_trace, total_outcomes, TenantFamily, TenantLoad, TenantOutcomes};
pub use wms::{
    ExecutionReport, FaultCampaignReport, FaultExecutionReport, Pegasus, RunOutcome,
    SupervisedCampaignReport,
};
