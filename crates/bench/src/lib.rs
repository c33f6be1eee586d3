//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 6).
//!
//! Each `figNN` / `tableNN` module exposes a `run(scale) -> …Result` that
//! produces the same rows/series the paper reports, plus a `render()` that
//! prints them. The `experiments` binary drives them from the command
//! line; the benches in `benches/` time the computational core of each
//! experiment at [`Scale::Quick`] with [`median_secs`].
//!
//! Absolute numbers come from the simulated substrate, so the comparisons
//! to check against the paper are the *shapes*: who wins, by what factor,
//! and where the crossovers fall. EXPERIMENTS.md records paper-vs-measured
//! for every row.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ablation;
pub mod common;
pub mod ensemble_exp;
pub mod figures;
pub mod followcost_exp;
pub mod scheduling_exp;
pub mod serve_exp;
pub mod speedup_exp;

use std::time::{Duration, Instant};

/// Median seconds per call of `f` over `samples` timed samples, each sized
/// to a wall-clock budget estimated from one untimed warm-up call.
pub fn median_secs(mut f: impl FnMut(), samples: usize, budget: Duration) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let per_sample = ((budget.as_secs_f64() / samples as f64 / once).floor() as u64).max(1);
    let mut medians: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_sample {
                f();
            }
            t.elapsed().as_secs_f64() / per_sample as f64
        })
        .collect();
    medians.sort_by(f64::total_cmp);
    medians[medians.len() / 2]
}

/// Experiment scale.
///
/// `Quick` shrinks workflows, repetitions and Monte-Carlo budgets so a full
/// sweep finishes in seconds (used by the benches and CI); `Full` runs the
/// paper's configuration sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    /// Montage degrees standing in for Montage-1/4/8.
    pub fn montage_degrees(self) -> Vec<u32> {
        match self {
            Scale::Quick => vec![1, 2],
            Scale::Full => vec![1, 4, 8],
        }
    }

    /// Repetitions of each plan against the dynamic cloud (the paper runs
    /// 100).
    pub fn runs(self) -> usize {
        match self {
            Scale::Quick => 20,
            Scale::Full => 100,
        }
    }

    /// Monte-Carlo iterations per searched state.
    pub fn mc_iters(self) -> usize {
        match self {
            Scale::Quick => 50,
            Scale::Full => 200,
        }
    }

    /// Calibration samples per component (the paper measures 10,000).
    pub fn calibration_samples(self) -> usize {
        match self {
            Scale::Quick => 2_000,
            Scale::Full => 10_000,
        }
    }
}
