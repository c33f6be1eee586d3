// User-facing paths return typed errors; panicking shortcuts are banned
// from library code (tests may still unwrap).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! Probability substrate for the Deco reproduction.
//!
//! The paper models cloud performance dynamics (I/O bandwidth, network
//! bandwidth) as probabilistic distributions that are *calibrated* from
//! measurements, *discretized* into histograms stored in a metadata store,
//! and *consumed* by a Monte-Carlo evaluator inside the solver
//! (Sections 4.2, 5.1, 5.2 and Table 2 of the paper).
//!
//! This crate provides everything those pipelines need, built on top of the
//! `rand` core only (all samplers are implemented here):
//!
//! * [`dist`] — parametric distributions (Normal, Gamma, Uniform,
//!   Exponential, Pareto, truncated variants) with exact moments.
//! * [`hist`] — discretized distributions: build from samples or from a
//!   parametric law, convolve, shift/scale, take percentiles. This is the
//!   representation stored in the cloud metadata store.
//! * [`fit`] — moment-matching parameter recovery and a chi-square
//!   goodness-of-fit test, used by the calibration pipeline to reproduce
//!   Table 2 and the normality claim of Figure 6b.
//! * [`stats`] — summary statistics and quantiles over raw samples
//!   (Figure 2's quantile plots).
//! * [`rng`] — deterministic, splittable RNG plumbing so that every
//!   experiment in the repository is reproducible from a single seed.

pub mod dist;
pub mod fit;
pub mod hash;
pub mod hist;
pub mod math;
pub mod rng;
pub mod stats;

pub use dist::{Constant, Dist, Exponential, Gamma, Normal, Pareto, TruncatedNormal, Uniform};
pub use hist::{BinSampler, CdfSampler, Histogram};
pub use rng::DecoRng;
