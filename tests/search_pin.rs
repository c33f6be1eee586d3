//! Pinned search outcomes.
//!
//! The other search tests compare backends, worker counts or budgets with
//! each other, so a change that moves every search loop the same way gets
//! past them. This test folds the outcome of every run over a fixed grid —
//! the best state, its objective and margin bits, and the deterministic
//! stats — into one `StableHasher` digest and compares it with a pinned
//! value. Any change to what a search evaluates, in which order, when it
//! stops or what it charges changes the digest.
//!
//! The grid covers the loops' edge cases: `max_states` of 0 and 1 (A*
//! still evaluates its root), patience 0 and 1 (generic search applies
//! patience from its first batch, A* never to its root batch and ×8
//! after it), a budget that truncates after the first batch and one that
//! truncates after about three.

use deco::cloud::{CloudSpec, MetadataStore};
use deco::engine::estimate::deadline_anchors;
use deco::engine::SchedulingProblem;
use deco::gpu::model_ticks;
use deco::prob::hash::StableHasher;
use deco::solver::transform::promotions;
use deco::solver::{
    astar_search, beam_search, generic_search, EvalBackend, Evaluation, SearchBudget,
    SearchOptions, SearchProblem, SearchResult,
};
use deco::workflow::generators;
use std::hash::{Hash, Hasher};

/// Minimize sum(s) subject to sum(s) >= target, with A* pruning and an
/// admissible `h`.
struct Threshold {
    n: usize,
    k: usize,
    target: usize,
}

impl SearchProblem for Threshold {
    type State = Vec<usize>;
    type Scratch = ();
    fn initial(&self) -> Vec<usize> {
        vec![0; self.n]
    }
    fn neighbors(&self, s: &Vec<usize>) -> Vec<Vec<usize>> {
        promotions(s, self.k)
    }
    fn evaluate(&self, s: &Vec<usize>, _seed: u64, _: &mut ()) -> Evaluation {
        let sum: usize = s.iter().sum();
        Evaluation {
            feasible: sum >= self.target,
            objective: sum as f64,
            constraint_margin: sum as f64 / self.target as f64,
        }
    }
    fn children_monotone(&self) -> bool {
        true
    }
    fn h_score(&self, s: &Vec<usize>, _e: &Evaluation) -> f64 {
        let sum: usize = s.iter().sum();
        self.target.saturating_sub(sum) as f64
    }
}

/// Maximize sum(s), every state feasible.
struct MaxSum;

impl SearchProblem for MaxSum {
    type State = Vec<usize>;
    type Scratch = ();
    fn initial(&self) -> Vec<usize> {
        vec![0; 3]
    }
    fn neighbors(&self, s: &Vec<usize>) -> Vec<Vec<usize>> {
        promotions(s, 3)
    }
    fn evaluate(&self, s: &Vec<usize>, _seed: u64, _: &mut ()) -> Evaluation {
        Evaluation {
            feasible: true,
            objective: s.iter().sum::<usize>() as f64,
            constraint_margin: 1.0,
        }
    }
    fn minimize(&self) -> bool {
        false
    }
}

/// Every search over every options cell of the grid, each outcome folded
/// into `h` in a fixed order.
fn digest_grid<P>(problem: &P, h: &mut StableHasher)
where
    P: SearchProblem<State = Vec<usize>>,
{
    let backend = EvalBackend::SeqCpu;
    let per_batch = model_ticks(
        &backend.device(),
        SearchOptions::default().batch,
        problem.threads_per_state(),
        problem.state_bytes(),
    );
    let budgets = [
        SearchBudget::unlimited(),
        SearchBudget::ticks(1e-9),
        SearchBudget::ticks(3.0 * per_batch),
    ];
    for patience in [0usize, 1, 8] {
        for max_states in [0usize, 1, SearchOptions::default().max_states] {
            for budget in &budgets {
                let opts = SearchOptions {
                    max_states,
                    patience,
                    budget: budget.clone(),
                    ..SearchOptions::default()
                };
                let runs = [
                    generic_search(problem, &opts, &backend),
                    beam_search(problem, &opts, 1, &backend),
                    beam_search(problem, &opts, 4, &backend),
                    beam_search(problem, &opts, 8, &backend),
                    astar_search(problem, &opts, &backend),
                ];
                for run in &runs {
                    digest_run(run, h);
                }
            }
        }
    }
}

fn digest_run(run: &SearchResult<Vec<usize>>, h: &mut StableHasher) {
    match &run.best {
        Some((state, eval)) => {
            h.write_u8(1);
            state.hash(h);
            h.write_u8(eval.feasible as u8);
            h.write_u64(eval.objective.to_bits());
            h.write_u64(eval.constraint_margin.to_bits());
        }
        None => h.write_u8(0),
    }
    let (states, batches, spent, truncated) = run.stats.deterministic_key();
    h.write_usize(states);
    h.write_usize(batches);
    h.write_u64(spent);
    h.write_u8(truncated as u8);
}

#[test]
fn search_outcomes_are_pinned() {
    let mut h = StableHasher::new();
    digest_grid(
        &Threshold {
            n: 5,
            k: 4,
            target: 8,
        },
        &mut h,
    );
    digest_grid(&MaxSum, &mut h);

    let wf = generators::montage(1, 7);
    let spec = CloudSpec::amazon_ec2();
    let store = MetadataStore::from_ground_truth(spec.clone(), 30);
    let (dmin, dmax) = deadline_anchors(&wf, &spec);
    let mut montage = SchedulingProblem::new(&wf, &spec, &store, 0.5 * (dmin + dmax), 0.9);
    montage.mc_iters = 16;
    digest_grid(&montage, &mut h);

    assert_eq!(
        h.finish(),
        0x406d_7ce3_5356_d713,
        "search outcomes moved: a search loop changed what it evaluates, \
         when it stops or what it charges"
    );
}
