//! Generic (Algorithm 2), beam and A* search over one shared driver.

use crate::eval::{evaluate_batch, EvalBackend, Evaluation};
use crate::SearchProblem;
use deco_gpu::{model_ticks, DeviceSpec, HOST_SECONDS_PER_CELL};
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::time::Instant;

/// An anytime budget for one search (Section 6's requirement that solver
/// overhead stays small relative to workflow makespan).
///
/// The primary budget is **deterministic**: device-model ticks computed by
/// [`deco_gpu::model_ticks`] from launch shapes alone, so the same seed and
/// the same budget always truncate at the same batch boundary and return
/// the same incumbent. The wall-clock guard is an optional safety net for
/// pathological evaluators; it trades that reproducibility for a hard
/// real-time ceiling, so leave it `None` in deterministic pipelines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchBudget {
    /// Deterministic budget in device-model ticks ([`deco_gpu::model_ticks`]).
    pub ticks: Option<f64>,
    /// Non-deterministic wall-clock guard in host seconds.
    pub wall_seconds: Option<f64>,
}

impl SearchBudget {
    /// No budget: searches run to `max_states`/patience exactly as before.
    pub fn unlimited() -> Self {
        SearchBudget::default()
    }

    /// A deterministic tick budget with no wall-clock guard.
    pub fn ticks(ticks: f64) -> Self {
        SearchBudget {
            ticks: Some(ticks),
            wall_seconds: None,
        }
    }

    pub fn is_unlimited(&self) -> bool {
        self.ticks.is_none() && self.wall_seconds.is_none()
    }

    /// Remaining tick budget after `spent`, floored at zero. Unlimited
    /// budgets stay unlimited.
    pub fn minus_ticks(&self, spent: f64) -> Self {
        SearchBudget {
            ticks: self.ticks.map(|t| (t - spent).max(0.0)),
            wall_seconds: self.wall_seconds,
        }
    }

    /// Split this budget fairly across `n` concurrent consumers: each
    /// share gets `ticks / n` (and `wall_seconds / n`); an unlimited
    /// budget stays unlimited. This is the allocation rule multi-tenant
    /// serving uses to divide a per-cycle tick pool among the tenants of
    /// one solver batch.
    pub fn fair_share(&self, n: usize) -> Self {
        assert!(n >= 1, "fair_share needs at least one consumer");
        SearchBudget {
            ticks: self.ticks.map(|t| t / n as f64),
            wall_seconds: self.wall_seconds.map(|w| w / n as f64),
        }
    }

    fn exhausted(&self, spent_ticks: f64, t0: &Instant) -> bool {
        self.ticks.is_some_and(|b| spent_ticks >= b)
            || self
                .wall_seconds
                .is_some_and(|b| t0.elapsed().as_secs_f64() >= b)
    }
}

/// Search controls.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Hard budget on evaluated states (the paper's Algorithm 2 explores a
    /// FIFO queue; this bounds it for the exponential worst case).
    pub max_states: usize,
    /// Stop when this many consecutive frontier batches bring no
    /// improvement of the incumbent.
    pub patience: usize,
    /// Frontier batch size per kernel launch in the generic search (the
    /// paper launches one block per searched state across the device's
    /// SMs). A batch always holds at least one state.
    pub batch: usize,
    /// Root seed for the per-state Monte-Carlo seeds.
    pub seed: u64,
    /// Anytime budget: on exhaustion the search returns the best incumbent
    /// found so far with `SearchStats::truncated` set. The default is
    /// unlimited, which leaves behavior bit-identical to an unbudgeted
    /// search.
    pub budget: SearchBudget,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            max_states: 20_000,
            patience: 8,
            batch: 64,
            seed: 0xD5C0,
            budget: SearchBudget::unlimited(),
        }
    }
}

/// Counters and device-model timing of one search.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    pub states_evaluated: usize,
    pub batches: usize,
    /// Modeled evaluation seconds on the chosen backend's device: the
    /// ticks charged, in cells of [`deco_gpu::HOST_SECONDS_PER_CELL`].
    pub modeled_eval_seconds: f64,
    /// Measured wall seconds of all evaluation batches on the host.
    pub host_eval_seconds: f64,
    /// Wall-clock of the whole search on the host.
    pub wall_seconds: f64,
    /// Deterministic device-model ticks charged against the budget.
    pub budget_spent: f64,
    /// Whether the budget cut the search before its natural stop.
    pub truncated: bool,
}

impl SearchStats {
    /// The deterministic subset of the stats: everything except the two
    /// measured host timings (`modeled_eval_seconds` follows from
    /// `budget_spent`). Two runs with the same seed and budget must agree
    /// on this tuple exactly — the anytime determinism contract.
    pub fn deterministic_key(&self) -> (usize, usize, u64, bool) {
        (
            self.states_evaluated,
            self.batches,
            self.budget_spent.to_bits(),
            self.truncated,
        )
    }
}

/// Result: the incumbent (best feasible state) and stats.
#[derive(Debug, Clone)]
pub struct SearchResult<S> {
    pub best: Option<(S, Evaluation)>,
    pub stats: SearchStats,
}

fn better(minimize: bool, a: f64, b: f64) -> bool {
    if minimize {
        a < b
    } else {
        a > b
    }
}

/// What every search shares: the visited set, the incumbent, the stats,
/// the budget check and the patience rule. A search is only a frontier
/// policy that picks each batch and hands it to [`Driver::step`].
struct Driver<'a, P: SearchProblem> {
    problem: &'a P,
    opts: &'a SearchOptions,
    backend: &'a EvalBackend,
    // One DeviceSpec clone per search, not per batch: `model_ticks` only
    // needs the launch shape.
    device: DeviceSpec,
    t0: Instant,
    visited: HashSet<P::State>,
    best: Option<(P::State, Evaluation)>,
    stats: SearchStats,
    stale: usize,
}

impl<'a, P: SearchProblem> Driver<'a, P> {
    fn new(problem: &'a P, opts: &'a SearchOptions, backend: &'a EvalBackend) -> Self {
        Driver {
            problem,
            opts,
            backend,
            device: backend.device(),
            t0: Instant::now(),
            visited: HashSet::new(),
            best: None,
            stats: SearchStats::default(),
            stale: 0,
        }
    }

    /// The initial state, marked visited.
    fn root(&mut self) -> P::State {
        let init = self.problem.initial();
        self.visited.insert(init.clone());
        init
    }

    /// The children of `s` not seen before, in neighbor order, now marked
    /// visited.
    fn children(&mut self, s: &P::State) -> Vec<P::State> {
        let visited = &mut self.visited;
        self.problem
            .neighbors(s)
            .into_iter()
            .filter(|c| visited.insert(c.clone()))
            .collect()
    }

    /// States left under `max_states` (zero once A*'s root overshoots it).
    fn room(&self) -> usize {
        self.opts
            .max_states
            .saturating_sub(self.stats.states_evaluated)
    }

    /// Evaluate one batch as one launch, charge its device-model ticks and
    /// fold it into the incumbent. Returns the evaluations, or `None` when
    /// the search must stop: the budget is exhausted (the run is marked
    /// truncated), or an incumbent exists and `patience` batches in a row
    /// have not improved it. A batch with `patience: None` is exempt from
    /// the patience rule and does not count toward it.
    fn step(&mut self, batch: &[P::State], patience: Option<usize>) -> Option<Vec<Evaluation>> {
        let problem = self.problem;
        let t = Instant::now();
        let evals = evaluate_batch(problem, batch, self.backend, self.opts.seed);
        self.stats.host_eval_seconds += t.elapsed().as_secs_f64();
        self.stats.states_evaluated += batch.len();
        self.stats.batches += 1;
        self.stats.budget_spent += model_ticks(
            &self.device,
            batch.len(),
            problem.threads_per_state(),
            problem.state_bytes(),
        );
        let mut improved = false;
        for (state, eval) in batch.iter().zip(&evals) {
            if eval.feasible
                && self
                    .best
                    .as_ref()
                    .is_none_or(|(_, b)| better(problem.minimize(), eval.objective, b.objective))
            {
                self.best = Some((state.clone(), *eval));
                improved = true;
            }
        }
        if self
            .opts
            .budget
            .exhausted(self.stats.budget_spent, &self.t0)
        {
            self.stats.truncated = true;
            return None;
        }
        if let Some(patience) = patience {
            self.stale = if improved { 0 } else { self.stale + 1 };
            if self.best.is_some() && self.stale >= patience {
                return None;
            }
        }
        Some(evals)
    }

    fn finish(mut self) -> SearchResult<P::State> {
        self.stats.wall_seconds = self.t0.elapsed().as_secs_f64();
        self.stats.modeled_eval_seconds = self.stats.budget_spent
            * self.problem.cells_per_thread() as f64
            * HOST_SECONDS_PER_CELL;
        SearchResult {
            best: self.best,
            stats: self.stats,
        }
    }
}

/// Algorithm 2: breadth-first exploration from the initial state with a
/// visited set, evaluating FIFO batches of `opts.batch` states on the
/// backend and keeping the best feasible state.
pub fn generic_search<P: SearchProblem>(
    problem: &P,
    opts: &SearchOptions,
    backend: &EvalBackend,
) -> SearchResult<P::State> {
    let mut d = Driver::new(problem, opts, backend);
    let mut queue = VecDeque::from([d.root()]);
    while d.room() > 0 && !queue.is_empty() {
        let take = opts.batch.max(1).min(queue.len()).min(d.room());
        let batch: Vec<P::State> = queue.drain(..take).collect();
        if d.step(&batch, Some(opts.patience)).is_none() {
            break;
        }
        for state in &batch {
            queue.extend(d.children(state));
        }
    }
    d.finish()
}

/// Beam search — the *exploitation* counterpart of Algorithm 2's
/// exploration (the paper discusses the trade-off in Section 5.3 and
/// chooses exploration for GPU parallelism; the beam keeps the same
/// batch-parallel evaluation while following good partial solutions).
///
/// Each round evaluates the whole frontier as one kernel batch, then keeps
/// the best `beam_width` children: feasible states ranked by objective
/// first, infeasible ones ranked by constraint margin (closest to feasible
/// first) to bootstrap feasibility from the all-cheapest initial state.
pub fn beam_search<P: SearchProblem>(
    problem: &P,
    opts: &SearchOptions,
    beam_width: usize,
    backend: &EvalBackend,
) -> SearchResult<P::State> {
    assert!(beam_width > 0);
    let minimize = problem.minimize();
    let rank = |a: &Evaluation, b: &Evaluation| -> std::cmp::Ordering {
        match (a.feasible, b.feasible) {
            (true, false) => std::cmp::Ordering::Less,
            (false, true) => std::cmp::Ordering::Greater,
            (true, true) => {
                if minimize {
                    a.objective.total_cmp(&b.objective)
                } else {
                    b.objective.total_cmp(&a.objective)
                }
            }
            (false, false) => b.constraint_margin.total_cmp(&a.constraint_margin),
        }
    };
    let mut d = Driver::new(problem, opts, backend);
    let mut frontier = vec![d.root()];
    // Evaluated states not yet expanded. The beam draws from this global
    // pool, so a round's runners-up stay available later (beam with
    // backtracking) instead of being discarded forever; the pool keeps at
    // most `(beam_width * 16).max(64)` of them.
    let mut pool: Vec<(P::State, Evaluation)> = Vec::new();
    while d.room() > 0 {
        if !frontier.is_empty() {
            let take = frontier.len().min(d.room());
            let batch: Vec<P::State> = frontier.drain(..take).collect();
            let Some(evals) = d.step(&batch, Some(opts.patience)) else {
                break;
            };
            pool.extend(batch.into_iter().zip(evals));
        }
        if pool.is_empty() {
            break;
        }
        pool.sort_by(|(_, a), (_, b)| rank(a, b));
        pool.truncate((beam_width * 16).max(64));
        let expand = pool.len().min(beam_width);
        for (state, _) in pool.drain(..expand) {
            frontier.extend(d.children(&state));
        }
    }
    d.finish()
}

/// Heap entry ordered by `f = g + h` (reversed for a min-heap when
/// minimizing).
struct HeapEntry<S> {
    f: f64,
    minimize: bool,
    state: S,
}

impl<S> PartialEq for HeapEntry<S> {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f
    }
}
impl<S> Eq for HeapEntry<S> {}
impl<S> PartialOrd for HeapEntry<S> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for HeapEntry<S> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: best entry = largest. When minimizing,
        // smaller f must compare larger.
        let o = self
            .f
            .partial_cmp(&other.f)
            .unwrap_or(std::cmp::Ordering::Equal);
        if self.minimize {
            o.reverse()
        } else {
            o
        }
    }
}

/// A* search (Section 5.3): user-declared `cal_g_score` / `est_h_score`
/// order the open list; when the problem's children are monotonically
/// worse, states that cannot beat the incumbent are pruned together with
/// their whole subtree — the paper's example prunes child states whose
/// monetary cost already exceeds the best found solution.
///
/// The root is evaluated even at `max_states == 0` and is exempt from
/// patience; every later batch is one popped state's unseen children, and
/// the search stops after `8 × patience` of them in a row bring no
/// improvement.
pub fn astar_search<P: SearchProblem>(
    problem: &P,
    opts: &SearchOptions,
    backend: &EvalBackend,
) -> SearchResult<P::State> {
    let minimize = problem.minimize();
    let entry = |state: P::State, eval: &Evaluation| HeapEntry {
        f: eval.objective + problem.h_score(&state, eval),
        minimize,
        state,
    };
    let mut d = Driver::new(problem, opts, backend);
    let root = d.root();
    let Some(evals) = d.step(std::slice::from_ref(&root), None) else {
        return d.finish();
    };
    let mut open = BinaryHeap::from([entry(root, &evals[0])]);
    while d.room() > 0 {
        let Some(top) = open.pop() else { break };
        if problem.children_monotone()
            && d.best
                .as_ref()
                .is_some_and(|(_, b)| !better(minimize, top.f, b.objective))
        {
            continue;
        }
        let mut batch = d.children(&top.state);
        if batch.is_empty() {
            continue;
        }
        batch.truncate(d.room());
        let Some(evals) = d.step(&batch, Some(opts.patience * 8)) else {
            break;
        };
        for (state, eval) in batch.into_iter().zip(&evals) {
            open.push(entry(state, eval));
        }
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::promotions;

    #[test]
    fn fair_share_divides_ticks_and_preserves_unlimited() {
        let b = SearchBudget::ticks(120.0);
        let share = b.fair_share(4);
        assert_eq!(share.ticks, Some(30.0));
        assert_eq!(share.wall_seconds, None);
        assert!(SearchBudget::unlimited().fair_share(8).is_unlimited());
        let walled = SearchBudget {
            ticks: Some(10.0),
            wall_seconds: Some(2.0),
        };
        let w = walled.fair_share(2);
        assert_eq!(w.ticks, Some(5.0));
        assert_eq!(w.wall_seconds, Some(1.0));
    }

    /// Minimize sum(s) subject to sum(s) >= target — the shape of the
    /// scheduling problem: promotion raises cost and only enough of it
    /// satisfies the constraint. The optimum is exactly `target`.
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
                constraint_margin: 1.0,
            }
        }
        fn children_monotone(&self) -> bool {
            true
        }
        fn h_score(&self, s: &Vec<usize>, _e: &Evaluation) -> f64 {
            // Admissible: remaining promotions needed.
            let sum: usize = s.iter().sum();
            self.target.saturating_sub(sum) as f64
        }
    }

    #[test]
    fn generic_search_finds_the_optimum() {
        let p = Threshold {
            n: 3,
            k: 4,
            target: 4,
        };
        let r = generic_search(&p, &SearchOptions::default(), &EvalBackend::SeqCpu);
        let (state, eval) = r.best.expect("a feasible state exists");
        assert_eq!(eval.objective, 4.0);
        assert_eq!(state.iter().sum::<usize>(), 4);
    }

    #[test]
    fn astar_finds_the_same_optimum_with_fewer_states() {
        let p = Threshold {
            n: 3,
            k: 4,
            target: 4,
        };
        let g = generic_search(&p, &SearchOptions::default(), &EvalBackend::SeqCpu);
        let a = astar_search(&p, &SearchOptions::default(), &EvalBackend::SeqCpu);
        assert_eq!(
            a.best.as_ref().unwrap().1.objective,
            g.best.as_ref().unwrap().1.objective
        );
        assert!(
            a.stats.states_evaluated <= g.stats.states_evaluated,
            "A* ({}) must not expand more than generic ({})",
            a.stats.states_evaluated,
            g.stats.states_evaluated
        );
    }

    #[test]
    fn infeasible_problems_return_none() {
        let p = Threshold {
            n: 2,
            k: 2,
            target: 99,
        };
        let r = generic_search(&p, &SearchOptions::default(), &EvalBackend::SeqCpu);
        assert!(r.best.is_none());
        // The whole space is 2^... small; everything gets visited.
        assert_eq!(r.stats.states_evaluated, 4);
    }

    #[test]
    fn max_states_budget_is_respected() {
        let p = Threshold {
            n: 8,
            k: 4,
            target: 24,
        };
        let opts = SearchOptions {
            max_states: 50,
            ..Default::default()
        };
        let r = generic_search(&p, &opts, &EvalBackend::SeqCpu);
        assert!(r.stats.states_evaluated <= 50);
    }

    #[test]
    fn patience_stops_early_after_incumbent() {
        let p = Threshold {
            n: 4,
            k: 4,
            target: 1,
        };
        let opts = SearchOptions {
            patience: 1,
            batch: 4,
            ..Default::default()
        };
        let r = generic_search(&p, &opts, &EvalBackend::SeqCpu);
        assert!(r.best.is_some());
        assert!(
            r.stats.states_evaluated < 100,
            "early stop expected, evaluated {}",
            r.stats.states_evaluated
        );
    }

    #[test]
    fn maximize_mode_prefers_larger() {
        struct MaxSum;
        impl SearchProblem for MaxSum {
            type State = Vec<usize>;
            type Scratch = ();
            fn initial(&self) -> Vec<usize> {
                vec![0; 2]
            }
            fn neighbors(&self, s: &Vec<usize>) -> Vec<Vec<usize>> {
                promotions(s, 3)
            }
            fn evaluate(&self, s: &Vec<usize>, _: u64, _: &mut ()) -> Evaluation {
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
        let r = generic_search(&MaxSum, &SearchOptions::default(), &EvalBackend::SeqCpu);
        assert_eq!(r.best.unwrap().1.objective, 4.0, "both at type 2");
    }

    #[test]
    fn beam_search_finds_the_optimum_and_scales_deep() {
        // Needs depth-12 promotion chains: BFS cannot reach it in budget,
        // the beam can.
        let p = Threshold {
            n: 6,
            k: 4,
            target: 12,
        };
        let opts = SearchOptions {
            max_states: 2000,
            ..Default::default()
        };
        let r = beam_search(&p, &opts, 4, &EvalBackend::SeqCpu);
        let (_, eval) = r.best.expect("beam must reach a feasible state");
        assert_eq!(eval.objective, 12.0, "beam should land on the optimum");
    }

    #[test]
    fn beam_width_one_is_hill_climbing() {
        let p = Threshold {
            n: 3,
            k: 4,
            target: 5,
        };
        let r = beam_search(&p, &SearchOptions::default(), 1, &EvalBackend::SeqCpu);
        assert_eq!(r.best.unwrap().1.objective, 5.0);
    }

    #[test]
    fn tiny_tick_budget_truncates_with_incumbent() {
        let p = Threshold {
            n: 6,
            k: 4,
            target: 2,
        };
        // One batch of budget: enough to evaluate the root's first frontier
        // but nowhere near the full space.
        let opts = SearchOptions {
            budget: SearchBudget::ticks(1e-9),
            ..Default::default()
        };
        for r in [
            generic_search(&p, &opts, &EvalBackend::SeqCpu),
            beam_search(&p, &opts, 4, &EvalBackend::SeqCpu),
            astar_search(&p, &opts, &EvalBackend::SeqCpu),
        ] {
            assert!(r.stats.truncated, "near-zero budget must truncate");
            assert!(r.stats.budget_spent > 0.0);
            assert!(r.stats.batches >= 1, "the first batch always runs");
        }
    }

    #[test]
    fn zero_batch_still_takes_one_state_per_round() {
        // Run on a thread so a search that never returns fails the test
        // instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let p = Threshold {
                n: 2,
                k: 3,
                target: 2,
            };
            let opts = SearchOptions {
                batch: 0,
                ..Default::default()
            };
            let _ = tx.send(generic_search(&p, &opts, &EvalBackend::SeqCpu));
        });
        let r = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("generic search with batch 0 must return");
        assert_eq!(r.best.expect("a feasible state exists").1.objective, 2.0);
        assert_eq!(r.stats.batches, r.stats.states_evaluated);
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_default() {
        let p = Threshold {
            n: 5,
            k: 4,
            target: 8,
        };
        let plain = SearchOptions::default();
        let explicit = SearchOptions {
            budget: SearchBudget::unlimited(),
            ..Default::default()
        };
        for (a, b) in [
            (
                generic_search(&p, &plain, &EvalBackend::SeqCpu),
                generic_search(&p, &explicit, &EvalBackend::SeqCpu),
            ),
            (
                beam_search(&p, &plain, 4, &EvalBackend::SeqCpu),
                beam_search(&p, &explicit, 4, &EvalBackend::SeqCpu),
            ),
            (
                astar_search(&p, &plain, &EvalBackend::SeqCpu),
                astar_search(&p, &explicit, &EvalBackend::SeqCpu),
            ),
        ] {
            assert!(!a.stats.truncated && !b.stats.truncated);
            assert_eq!(a.stats.deterministic_key(), b.stats.deterministic_key());
            assert_eq!(
                a.best
                    .as_ref()
                    .map(|(s, e)| (s.clone(), e.objective.to_bits())),
                b.best
                    .as_ref()
                    .map(|(s, e)| (s.clone(), e.objective.to_bits())),
            );
        }
    }

    #[test]
    fn same_seed_same_budget_same_truncation() {
        let p = Threshold {
            n: 8,
            k: 4,
            target: 20,
        };
        let d = deco_gpu::DeviceSpec::cpu(4);
        // Budget for roughly three batches of 64 states.
        let per_batch = model_ticks(&d, 64, p.threads_per_state(), p.state_bytes());
        let opts = SearchOptions {
            budget: SearchBudget::ticks(3.0 * per_batch),
            ..Default::default()
        };
        let backend = EvalBackend::SeqCpu;
        type Run<'a> = Box<dyn Fn(&SearchOptions, &EvalBackend) -> SearchResult<Vec<usize>> + 'a>;
        let runs: Vec<Run<'_>> = vec![
            Box::new(|o, b| generic_search(&p, o, b)),
            Box::new(|o, b| beam_search(&p, o, 4, b)),
            Box::new(|o, b| astar_search(&p, o, b)),
        ];
        for run in runs {
            let a = run(&opts, &backend);
            let b = run(&opts, &backend);
            assert_eq!(
                a.stats.deterministic_key(),
                b.stats.deterministic_key(),
                "anytime determinism: same seed + budget => same stats"
            );
            assert_eq!(
                a.best
                    .as_ref()
                    .map(|(s, e)| (s.clone(), e.objective.to_bits())),
                b.best
                    .as_ref()
                    .map(|(s, e)| (s.clone(), e.objective.to_bits())),
                "anytime determinism: same seed + budget => same incumbent"
            );
        }
    }

    #[test]
    fn budget_remaining_arithmetic() {
        let b = SearchBudget::ticks(10.0);
        assert_eq!(b.minus_ticks(4.0).ticks, Some(6.0));
        assert_eq!(b.minus_ticks(40.0).ticks, Some(0.0));
        assert!(SearchBudget::unlimited().minus_ticks(1e9).is_unlimited());
        assert!(!b.is_unlimited());
    }

    #[test]
    fn stats_accumulate() {
        let p = Threshold {
            n: 3,
            k: 3,
            target: 3,
        };
        let r = generic_search(&p, &SearchOptions::default(), &EvalBackend::SeqCpu);
        assert!(r.stats.batches > 0);
        assert!(r.stats.states_evaluated > 0);
        assert!(r.stats.wall_seconds >= 0.0);
    }
}
