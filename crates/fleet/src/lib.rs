// User-facing paths return typed errors; panicking shortcuts are banned
// from library code (tests may still unwrap).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! deco-fleet — cross-tenant WaaS consolidation on a shared instance fleet.
//!
//! The serving tier answers every request with a provisioning plan, and
//! until this crate each answered plan was *costed* against its own
//! private instance pool: every slot acquires its own instances, every
//! partial billing hour is paid in full, and serving cost scales
//! linearly with tenants. Zhou et al.'s follow-up (*Monetary Cost
//! Optimizations for Hosting Workflow-as-a-Service in IaaS Clouds*)
//! shows where the real IaaS win is: many tenants' workflows packed onto
//! one shared, auto-scaled fleet that reuses partially-idle billed
//! hours. This crate is that fleet:
//!
//! * [`ledger`] — the billing-quantum-aware lease ledger: per-instance
//!   paid quanta (reusing `deco_cloud::billing`), busy spans, and
//!   per-tenant occupancy seconds, the basis for cost attribution.
//! * [`policy`] — declarative tenant-isolation limits read from WLog
//!   ground facts (`max_coresidency/1`, `region_pin/2`, `share_cap/2`),
//!   sitting in the same clause list as the engine's `price/2` and
//!   `fail_rate/3` facts.
//! * [`manager`] — [`FleetManager`]: gap-filling placement that matches
//!   a task group's remaining runtime to an instance's remaining paid
//!   quantum, deterministic scale-up/scale-down at cycle boundaries
//!   (StableHasher-seeded tie-breaks), a post-hoc isolation audit, and
//!   the [`FleetReport`] with per-tenant cost split by actual occupancy
//!   of shared quanta.
//! * [`server`] — [`FleetServer`]: the serve-tier integration. Requests
//!   route through the unmodified admission/cache/solve cycle loop
//!   (`plan_with_fallback` and all), and planned responses are then
//!   *placed* onto the shared fleet instead of provisioning private
//!   pools. The response stream is byte-identical to a plain
//!   `PlanServer` run by construction — the fleet moves only the cost
//!   accounting — so replay determinism at any worker count is
//!   inherited, not re-proven.

pub mod ledger;
pub mod manager;
pub mod policy;
pub mod server;

pub use ledger::{FleetInstance, LeaseLedger};
pub use manager::{FleetConfig, FleetManager, FleetReport, TaskGroup};
pub use policy::FleetPolicy;
pub use server::{private_pool_cost, FleetServer};
