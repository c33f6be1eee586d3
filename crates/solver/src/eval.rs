//! State evaluation backends.
//!
//! Evaluating one state means Monte-Carlo estimation of its constraint
//! probabilities and objective (Algorithm 1) — the solver's hot loop. The
//! paper runs it on the GPU with one thread block per state; the CPU
//! comparison uses an OpenMP port on six cores. [`EvalBackend`] selects the
//! device model a frontier batch runs under; the search charges each batch
//! that device's ticks, from which the Section 6.3 speedups are reported.

use crate::SearchProblem;
use deco_gpu::{launch_with, DeviceSpec};
use deco_prob::hash::StableHasher;
use deco_prob::rng::splitmix64;
use std::hash::{Hash, Hasher};

/// Outcome of evaluating one state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Every constraint satisfied?
    pub feasible: bool,
    /// Goal value (mean over Monte-Carlo realizations).
    pub objective: f64,
    /// Smallest constraint probability observed (diagnostic; 1.0 for
    /// deterministic problems).
    pub constraint_margin: f64,
}

impl Evaluation {
    pub fn infeasible(objective: f64) -> Self {
        Evaluation {
            feasible: false,
            objective,
            constraint_margin: 0.0,
        }
    }
}

/// Which device model evaluates frontier batches.
#[derive(Debug, Clone)]
pub enum EvalBackend {
    /// One host core, blocks in sequence (the paper's single-thread
    /// reference).
    SeqCpu,
    /// Multi-core CPU model (the paper's OpenMP 6-core comparator).
    ParCpu(usize),
    /// The GPU device model (one block per state).
    SimGpu(DeviceSpec),
}

impl EvalBackend {
    pub fn device(&self) -> DeviceSpec {
        match self {
            EvalBackend::SeqCpu => DeviceSpec::single_core(),
            EvalBackend::ParCpu(cores) => DeviceSpec::cpu(*cores),
            EvalBackend::SimGpu(d) => d.clone(),
        }
    }

    pub fn name(&self) -> String {
        self.device().name
    }
}

/// Deterministic per-state seed: the search must give the same verdict for
/// the same state no matter when it is reached — and no matter which Rust
/// release built the binary, which is why this uses [`StableHasher`]
/// (fixed FNV-1a/SplitMix64) rather than `DefaultHasher`, whose algorithm
/// may change between toolchains.
pub fn state_seed<S: Hash>(root_seed: u64, state: &S) -> u64 {
    let mut h = StableHasher::new();
    state.hash(&mut h);
    splitmix64(root_seed ^ h.finish())
}

/// Evaluate a batch of states on the backend's device model: one launch,
/// one block per state, each worker threading its own
/// [`SearchProblem::Scratch`] through the states it runs. Returns the
/// evaluations in input order.
///
/// Every state is seeded by [`state_seed`] and blocks are stitched back in
/// input order, so the worker count changes wall-clock only: the
/// evaluations are bit-identical on every backend.
pub fn evaluate_batch<P: SearchProblem>(
    problem: &P,
    states: &[P::State],
    backend: &EvalBackend,
    root_seed: u64,
) -> Vec<Evaluation> {
    launch_with(
        &backend.device(),
        states,
        problem.threads_per_state(),
        P::Scratch::default,
        |s, _, scratch| problem.evaluate(s, state_seed(root_seed, s), scratch),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy;

    impl SearchProblem for Toy {
        type State = Vec<usize>;
        type Scratch = ();
        fn initial(&self) -> Vec<usize> {
            vec![0, 0]
        }
        fn neighbors(&self, s: &Vec<usize>) -> Vec<Vec<usize>> {
            crate::transform::promotions(s, 3)
        }
        fn evaluate(&self, s: &Vec<usize>, _seed: u64, _: &mut ()) -> Evaluation {
            let sum: usize = s.iter().sum();
            Evaluation {
                feasible: sum >= 2,
                objective: sum as f64,
                constraint_margin: 1.0,
            }
        }
    }

    #[test]
    fn batch_matches_pointwise() {
        let p = Toy;
        let states = vec![vec![0, 0], vec![1, 1], vec![2, 2]];
        let evals = evaluate_batch(&p, &states, &EvalBackend::SeqCpu, 1);
        assert_eq!(evals.len(), 3);
        assert!(!evals[0].feasible);
        assert!(evals[1].feasible);
        assert_eq!(evals[2].objective, 4.0);
    }

    #[test]
    fn backends_agree_on_results() {
        let p = Toy;
        let states = vec![vec![0, 1], vec![2, 0]];
        let a = evaluate_batch(&p, &states, &EvalBackend::SeqCpu, 9);
        let b = evaluate_batch(&p, &states, &EvalBackend::ParCpu(6), 9);
        let c = evaluate_batch(&p, &states, &EvalBackend::SimGpu(DeviceSpec::k40()), 9);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn state_seed_is_stable_and_state_dependent() {
        let s1 = vec![1usize, 2];
        let s2 = vec![2usize, 1];
        assert_eq!(state_seed(7, &s1), state_seed(7, &s1));
        assert_ne!(state_seed(7, &s1), state_seed(7, &s2));
        assert_ne!(state_seed(7, &s1), state_seed(8, &s1));
    }
}
