//! Property-based tests over the core invariants, spanning crates.

use deco::cloud::billing::quanta_charged;
use deco::cloud::plan::{mean_schedule, Plan};
use deco::cloud::CloudSpec;
use deco::prob::dist::{Dist, Gamma, Normal};
use deco::prob::rng::seeded;
use deco::prob::Histogram;
use deco::wlog::ast::Term;
use deco::wlog::machine::{Database, Machine};
use deco::workflow::dax::{emit_dax, parse_dax};
use deco::workflow::generators;
use proptest::prelude::*;
use rand::RngCore;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DAX emit ∘ parse is the identity on structure, profiles and edge
    /// payloads, for arbitrary seeded random DAGs.
    #[test]
    fn dax_round_trip_random_dags(n in 2usize..40, p in 0.02f64..0.4, seed in 0u64..500) {
        let wf = generators::random_dag(n, p, seed);
        let re = parse_dax(&emit_dax(&wf).unwrap()).unwrap();
        prop_assert_eq!(re.len(), wf.len());
        prop_assert_eq!(re.edges().count(), wf.edges().count());
        for (a, b) in wf.tasks().zip(re.tasks()) {
            prop_assert!((a.profile.cpu_seconds - b.profile.cpu_seconds).abs() < 1e-9);
            prop_assert!((a.profile.read_bytes - b.profile.read_bytes).abs() < 1.0);
            prop_assert!((a.profile.write_bytes - b.profile.write_bytes).abs() < 1.0);
        }
        for e in wf.edges() {
            let bytes = re.edge_bytes(e.from, e.to);
            prop_assert!(bytes.is_some());
            prop_assert!((bytes.unwrap() - e.bytes).abs() < 1.0);
        }
    }

    /// The weighted critical path dominates every root-to-sink chain.
    #[test]
    fn critical_path_dominates_chains(n in 2usize..30, p in 0.05f64..0.5, seed in 0u64..200) {
        let wf = generators::random_dag(n, p, seed);
        let weight = |t: deco::workflow::TaskId| 1.0 + (t.index() % 7) as f64;
        let (_, cp) = wf.critical_path(weight);
        // Greedy heaviest chain is a lower bound.
        let mut cur = *wf.roots().first().unwrap();
        let mut len = weight(cur);
        loop {
            let next = wf.children(cur).max_by(|a, b| {
                weight(*a).partial_cmp(&weight(*b)).unwrap()
            });
            match next {
                Some(c) => { cur = c; len += weight(cur); }
                None => break,
            }
        }
        prop_assert!(len <= cp + 1e-9);
    }

    /// Billing is monotone in usage and never under-charges the exact
    /// fractional time.
    #[test]
    fn billing_monotone_and_covers_usage(a in 0.0f64..50_000.0, b in 0.0f64..50_000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(quanta_charged(lo, 3600.0) <= quanta_charged(hi, 3600.0));
        prop_assert!(quanta_charged(hi, 3600.0) as f64 * 3600.0 >= hi);
    }

    /// Histogram convolution adds means (within discretization tolerance)
    /// for arbitrary Normal pairs.
    #[test]
    fn convolution_adds_means(m1 in 5.0f64..200.0, s1 in 0.5f64..20.0,
                              m2 in 5.0f64..200.0, s2 in 0.5f64..20.0) {
        let a = Histogram::from_dist(&Normal::new(m1, s1), 40, 4.0, None);
        let b = Histogram::from_dist(&Normal::new(m2, s2), 40, 4.0, None);
        let c = a.convolve(&b);
        let tol = 0.1 * (s1 + s2) + 0.02 * (m1 + m2);
        prop_assert!((c.mean() - (m1 + m2)).abs() < tol,
            "{} vs {}", c.mean(), m1 + m2);
    }

    /// Histogram percentiles are monotone in the level and bounded by the
    /// support for arbitrary Gamma laws.
    #[test]
    fn percentiles_monotone(k in 1.0f64..300.0, theta in 0.05f64..2.0) {
        let h = Histogram::from_dist(&Gamma::new(k, theta), 50, 4.0, Some(0.0));
        let (lo, hi) = h.support();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = h.percentile(i as f64 / 10.0);
            prop_assert!(q >= prev && q >= lo - 1e-9 && q <= hi + 1e-9);
            prev = q;
        }
    }

    /// Sampling a distribution and refitting recovers the mean within a
    /// tolerance scaled to the standard error.
    #[test]
    fn fit_recovers_mean(mu in 20.0f64..500.0, sigma in 1.0f64..30.0, seed in 0u64..100) {
        let d = Normal::new(mu, sigma);
        let mut rng = seeded(seed);
        let xs: Vec<f64> = (0..4000).map(|_| d.sample(&mut rng)).collect();
        let fit = deco::prob::fit::fit_normal(&xs);
        prop_assert!((fit.mu - mu).abs() < 6.0 * sigma / (4000f64).sqrt() + 1e-6);
    }

    /// Packed plans are always valid and cover every task, for arbitrary
    /// type vectors over arbitrary DAGs.
    #[test]
    fn packed_plans_always_valid(n in 2usize..25, p in 0.05f64..0.4,
                                 seed in 0u64..100, tseed in 0u64..50) {
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::random_dag(n, p, seed);
        let mut rng = seeded(tseed);
        let types: Vec<usize> = (0..n).map(|_| (rng.next_u64() % 4) as usize).collect();
        let plan = Plan::packed(&wf, &types, 0, &spec);
        prop_assert!(plan.validate(&wf, &spec).is_ok());
        for t in wf.task_ids() {
            prop_assert_eq!(plan.task_type(t), types[t.index()]);
        }
        // A mean schedule exists and respects precedence.
        let sched = mean_schedule(&wf, &plan, &spec);
        for e in wf.edges() {
            prop_assert!(sched.finish[e.from.index()] <= sched.finish[e.to.index()] + 1e-9);
        }
    }

    /// The Monte-Carlo kernel is a pure optimization of the reference
    /// loop: one plan compiled into a one-column `CompiledFrontier` by
    /// `mc_evaluate_plan` gives the same `McEval` bits as
    /// `mc_evaluate_plan_reference` on the same seed — over arbitrary DAGs,
    /// type vectors and seeds. Both a packed plan (which conforms to the
    /// problem-wide skeleton) and a non-conforming one (one instance per
    /// task, reversed dispatch ranks, one slot moved to a second region so
    /// cross-region transfers are priced) must match.
    #[test]
    fn compiled_plan_matches_reference_realizations(
        n in 2usize..20, p in 0.05f64..0.45,
        seed in 0u64..60, tseed in 0u64..40, rng_seed in 0u64..1000,
    ) {
        use deco::engine::estimate::{
            mc_evaluate_plan, mc_evaluate_plan_reference, CompiledFrontier, ExecTimeTable,
            FrontierSkeleton,
        };
        let spec = CloudSpec::amazon_ec2();
        let store = deco::cloud::MetadataStore::from_ground_truth(spec.clone(), 25);
        let wf = generators::random_dag(n, p, seed);
        let table = ExecTimeTable::build(&wf, &store, 10);
        let skel = FrontierSkeleton::build(&wf, &table);
        let mut trng = seeded(tseed);
        let types: Vec<usize> = (0..n).map(|_| (trng.next_u64() % 4) as usize).collect();
        let packed = Plan::packed(&wf, &types, 0, &spec);
        let mut odd = Plan::one_slot_per_task(&types, 0);
        odd.order.reverse();
        odd.slots[0].region = 1;
        prop_assert!(CompiledFrontier::compile(&skel, &spec, std::slice::from_ref(&odd)).is_none());
        let deadline = 0.8 * mc_evaluate_plan_reference(
            &wf, &packed, &table, &spec, f64::INFINITY, 0.9, 33, rng_seed,
        ).quantile_makespan;
        for (name, plan) in [("packed", &packed), ("non-conforming", &odd)] {
            let want = mc_evaluate_plan_reference(&wf, plan, &table, &spec, deadline, 0.9, 33, rng_seed);
            let got = mc_evaluate_plan(&wf, plan, &table, &spec, deadline, 0.9, 33, rng_seed);
            prop_assert!(want == got, "{} plan diverged: {:?} vs {:?}", name, want, got);
        }
    }

    /// Batching is a pure optimization too: K candidates evaluated in one
    /// `CompiledFrontier` pass over the shared skeleton give, candidate by
    /// candidate, the same `McEval` bits as evaluating each plan on its
    /// own with `mc_evaluate_plan` and with `mc_evaluate_plan_reference`
    /// on that candidate's seed — over arbitrary DAGs, type vectors,
    /// frontier widths and root seeds.
    #[test]
    fn compiled_frontier_matches_per_plan(
        n in 2usize..20, p in 0.05f64..0.45,
        seed in 0u64..60, k in 1usize..10, tseed in 0u64..40, rng_seed in 0u64..1000,
    ) {
        use deco::engine::estimate::{
            mc_evaluate_plan, mc_evaluate_plan_reference, CompiledFrontier, ExecTimeTable,
            FrontierScratch, FrontierSkeleton,
        };
        let spec = CloudSpec::amazon_ec2();
        let store = deco::cloud::MetadataStore::from_ground_truth(spec.clone(), 25);
        let wf = generators::random_dag(n, p, seed);
        let table = ExecTimeTable::build(&wf, &store, 10);
        let skel = FrontierSkeleton::build(&wf, &table);
        let mut trng = seeded(tseed);
        let plans: Vec<Plan> = (0..k)
            .map(|_| {
                let types: Vec<usize> = (0..n).map(|_| (trng.next_u64() % 4) as usize).collect();
                Plan::packed(&wf, &types, 0, &spec)
            })
            .collect();
        let seeds: Vec<u64> = (0..k as u64)
            .map(|i| rng_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let deadline = 0.8 * mc_evaluate_plan_reference(
            &wf, &plans[0], &table, &spec, f64::INFINITY, 0.9, 33, rng_seed,
        ).quantile_makespan;
        let frontier = CompiledFrontier::compile(&skel, &spec, &plans);
        prop_assert!(frontier.is_some(), "packer plans must conform to the skeleton");
        let batched = frontier.unwrap().evaluate(deadline, 0.9, 33, &seeds, &mut FrontierScratch::new());
        for (i, (plan, &sd)) in plans.iter().zip(&seeds).enumerate() {
            let one = mc_evaluate_plan(&wf, plan, &table, &spec, deadline, 0.9, 33, sd);
            let reference = mc_evaluate_plan_reference(&wf, plan, &table, &spec, deadline, 0.9, 33, sd);
            prop_assert!(one == batched[i], "frontier diverged from per-plan at candidate {}", i);
            prop_assert!(reference == batched[i], "frontier diverged from reference at candidate {}", i);
        }
    }

    /// The simulated makespan never beats the critical-path bound computed
    /// from the same realization floor (tasks cannot finish before their
    /// dependency chain's CPU time at infinite bandwidth).
    #[test]
    fn simulation_respects_cpu_lower_bound(seed in 0u64..50) {
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::ligo(20, seed);
        let types = vec![3usize; wf.len()]; // fastest
        let plan = Plan::packed(&wf, &types, 0, &spec);
        let r = deco::cloud::run_plan(&spec, &wf, &plan, seed);
        let (_, cpu_bound) = wf.critical_path(|t| {
            wf.task(t).profile.cpu_seconds / spec.types[3].ecu
        });
        prop_assert!(r.makespan >= cpu_bound - 1e-6,
            "makespan {} below CPU bound {}", r.makespan, cpu_bound);
    }

    /// Fault injection disabled is an exact no-op: for arbitrary DAGs,
    /// type vectors and seeds, running through the fault-aware driver with
    /// a quiescent model reproduces the plain simulator *bit for bit* —
    /// makespan, full cost ledger, per-task finish times and the attempt
    /// trace. This is the contract that lets the fault subsystem ship
    /// inside the hot simulator loop without a feature flag.
    #[test]
    fn zero_fault_runs_are_bit_identical(
        n in 2usize..25, p in 0.05f64..0.4,
        seed in 0u64..60, tseed in 0u64..40, rng_seed in 0u64..1000,
    ) {
        use deco::faults::{run_with_faults, FaultInjector, FaultModel};
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::random_dag(n, p, seed);
        let mut trng = seeded(tseed);
        let types: Vec<usize> = (0..n).map(|_| (trng.next_u64() % 4) as usize).collect();
        let plan = Plan::packed(&wf, &types, 0, &spec);
        let base = deco::cloud::run_plan(&spec, &wf, &plan, rng_seed);
        let inj = FaultInjector::new(FaultModel::none(), seed);
        let faulty = run_with_faults(
            &spec, &wf, &plan, &inj,
            deco::cloud::RetryConfig::default(), rng_seed,
        );
        prop_assert!(faulty.all_done(&wf));
        prop_assert_eq!(faulty.crashes, 0);
        prop_assert_eq!(faulty.retries, 0);
        prop_assert_eq!(base.makespan.to_bits(), faulty.result.makespan.to_bits());
        prop_assert_eq!(base.cost.compute.to_bits(), faulty.result.cost.compute.to_bits());
        prop_assert_eq!(base.cost.transfer.to_bits(), faulty.result.cost.transfer.to_bits());
        prop_assert_eq!(&base.finish, &faulty.result.finish);
        prop_assert_eq!(&base.durations, &faulty.result.durations);
        for a in &faulty.result.attempts {
            prop_assert!(a.completed, "no fault may kill an attempt");
        }
    }

    /// Unification round-trip: after `Pattern = Ground` the resolved
    /// pattern is exactly the ground term.
    #[test]
    fn unification_round_trips(x in -1e6f64..1e6, y in -1e6f64..1e6) {
        let mut m = Machine::new(Database::new());
        let pattern = Term::compound(
            "f",
            vec![Term::var("A"), Term::compound("g", vec![Term::var("B"), Term::var("A")])],
        );
        let ground = Term::compound(
            "f",
            vec![Term::num(x), Term::compound("g", vec![Term::num(y), Term::num(x)])],
        );
        let sols = m.solve_all(&Term::compound("=", vec![pattern.clone(), ground.clone()])).unwrap();
        prop_assert_eq!(sols, vec![Term::compound("=", vec![ground.clone(), ground])]);
        // Inconsistent ground term must fail when x != y.
        if x != y {
            let bad = Term::compound(
                "f",
                vec![Term::num(x), Term::compound("g", vec![Term::num(y), Term::num(y)])],
            );
            prop_assert!(!m.provable(&Term::compound("=", vec![pattern, bad])).unwrap());
        }
    }

    /// Backtracking undoes every binding: the second solution of
    /// `member(K, [0, 1]), V0 = f(K, v0), …` binds each variable afresh.
    #[test]
    fn bindings_undo_is_complete(vals in proptest::collection::vec(-100f64..100.0, 1..8)) {
        let mut m = Machine::new(Database::new());
        let mut query = Term::compound(
            "member",
            vec![Term::var("K"), Term::list(vec![Term::num(0.0), Term::num(1.0)])],
        );
        for (i, &v) in vals.iter().enumerate() {
            let bind = Term::compound(
                "=",
                vec![
                    Term::var(format!("V{i}")),
                    Term::compound("f", vec![Term::var("K"), Term::num(v)]),
                ],
            );
            query = Term::compound(",", vec![query, bind]);
        }
        let sols = m.solve_all(&query).unwrap();
        prop_assert_eq!(sols.len(), 2);
        for (k, sol) in sols.iter().enumerate() {
            let text = sol.to_string();
            for &v in &vals {
                let want = Term::compound("f", vec![Term::num(k as f64), Term::num(v)]).to_string();
                prop_assert!(text.contains(&want), "solution {} lacks {}: {}", k, want, text);
            }
        }
    }
}

// Non-proptest cross-crate invariants.

fn frontier_search_problem<'a>(
    wf: &'a deco::workflow::Workflow,
    spec: &'a CloudSpec,
    store: &deco::cloud::MetadataStore,
) -> deco::engine::SchedulingProblem<'a> {
    let (dmin, dmax) = deco::engine::estimate::deadline_anchors(wf, spec);
    let mut problem =
        deco::engine::SchedulingProblem::new(wf, spec, store, 0.5 * (dmin + dmax), 0.9);
    problem.mc_iters = 24;
    problem
}

fn all_backends() -> [deco::solver::EvalBackend; 5] {
    use deco::solver::EvalBackend;
    [
        EvalBackend::SeqCpu,
        EvalBackend::ParCpu(1),
        EvalBackend::ParCpu(2),
        EvalBackend::ParCpu(8),
        EvalBackend::SimGpu(deco::gpu::DeviceSpec::k40()),
    ]
}

/// Spreading a frontier's blocks (one per state) over workers changes how
/// fast candidates are evaluated, not what the search decides: beam and
/// A* runs on every backend and worker count (1/2/8 host cores and the GPU
/// model) find the same incumbent after the same states and batches as
/// the sequential run. The tick charge and the modeled seconds are
/// device-model quantities: each repeats bit for bit on every backend, and
/// both match the sequential run wherever the device model is the
/// sequential one (`ParCpu(1)`).
#[test]
fn search_is_backend_and_worker_count_invariant() {
    use deco::solver::{astar_search, beam_search, EvalBackend, SearchOptions};
    let spec = CloudSpec::amazon_ec2();
    let store = deco::cloud::MetadataStore::from_ground_truth(spec.clone(), 20);
    let opts = SearchOptions {
        max_states: 60,
        ..SearchOptions::default()
    };
    for (i, wf) in [generators::ligo(30, 1), generators::montage(12, 1)]
        .iter()
        .enumerate()
    {
        let problem = frontier_search_problem(wf, &spec, &store);
        for beam in [Some(2), Some(4), None] {
            let solve = |backend: &EvalBackend| match beam {
                Some(w) => beam_search(&problem, &opts, w, backend),
                None => astar_search(&problem, &opts, backend),
            };
            if i == 0 && beam == Some(2) {
                // Repeatability, once per backend (a search is ~1 s here).
                for backend in &all_backends() {
                    assert_eq!(
                        solve(backend).stats.modeled_eval_seconds.to_bits(),
                        solve(backend).stats.modeled_eval_seconds.to_bits(),
                        "{backend:?}: modeled seconds differ between runs"
                    );
                }
            }
            let [seq, others @ ..] = all_backends();
            let reference = solve(&seq);
            for backend in &others {
                let run = solve(backend);
                let modeled = run.stats.modeled_eval_seconds.to_bits();
                let (key, want) = (
                    run.stats.deterministic_key(),
                    reference.stats.deterministic_key(),
                );
                assert_eq!(
                    (key.0, key.1, key.3),
                    (want.0, want.1, want.3),
                    "{backend:?} beam={beam:?}: stats diverged from SeqCpu"
                );
                if backend.name() == seq.name() {
                    assert_eq!(key, want, "{backend:?} beam={beam:?}: ticks diverged");
                    assert_eq!(
                        modeled,
                        reference.stats.modeled_eval_seconds.to_bits(),
                        "{backend:?} beam={beam:?}: modeled seconds diverged"
                    );
                }
                assert_eq!(
                    run.best, reference.best,
                    "{backend:?} beam={beam:?}: incumbent diverged from SeqCpu"
                );
            }
        }
    }
}

/// `evaluate_batch` stitches a frontier's blocks back in input order: over
/// a frontier of 71 states, every backend returns, element by element,
/// exactly what evaluating each state on its own with a fresh scratch
/// returns, although its workers reuse theirs across states.
#[test]
fn evaluate_batch_matches_per_state_evaluate() {
    use deco::engine::estimate::FrontierScratch;
    use deco::solver::eval::{evaluate_batch, state_seed};
    use deco::solver::SearchProblem;
    let spec = CloudSpec::amazon_ec2();
    let store = deco::cloud::MetadataStore::from_ground_truth(spec.clone(), 20);
    let wf = generators::ligo(30, 1);
    let problem = frontier_search_problem(&wf, &spec, &store);
    let len = 71;
    let mut states = vec![problem.initial()];
    for i in 0.. {
        if states.len() >= len {
            break;
        }
        for next in problem.neighbors(&states[i]) {
            if !states.contains(&next) {
                states.push(next);
            }
        }
    }
    states.truncate(len);
    let root = 0xD5C0;
    let per_state: Vec<_> = states
        .iter()
        .map(|s| problem.evaluate(s, state_seed(root, s), &mut FrontierScratch::new()))
        .collect();
    for backend in &all_backends() {
        let batched = evaluate_batch(&problem, &states, &backend.device(), root);
        assert_eq!(
            batched, per_state,
            "{backend:?}: batch diverged from per-state"
        );
    }
}

/// Fallback semantics: a candidate whose dispatch ranks disagree with the
/// shared skeleton cannot join a `CompiledFrontier` — `compile` refuses
/// the whole batch rather than evaluate a wrong order — and the rejected
/// plan still evaluates bit-identically to the reference through
/// `mc_evaluate_plan`, which runs it in its own dispatch order.
#[test]
fn frontier_compile_rejects_nonconforming_plans() {
    use deco::engine::estimate::{
        mc_evaluate_plan, mc_evaluate_plan_reference, CompiledFrontier, ExecTimeTable,
        FrontierSkeleton,
    };
    let spec = CloudSpec::amazon_ec2();
    let store = deco::cloud::MetadataStore::from_ground_truth(spec.clone(), 20);
    let wf = generators::ligo(20, 1);
    let table = ExecTimeTable::build(&wf, &store, 12);
    let skel = FrontierSkeleton::build(&wf, &table);
    let mut plans: Vec<Plan> = (0..4)
        .map(|i| Plan::packed(&wf, &vec![1 + i % 3; wf.len()], 0, &spec))
        .collect();
    assert!(CompiledFrontier::compile(&skel, &spec, &plans).is_some());
    // Swap two dispatch ranks in one candidate: the batch no longer shares
    // the skeleton's order.
    plans[3].order.swap(0, wf.len() - 1);
    assert!(CompiledFrontier::compile(&skel, &spec, &plans).is_none());
    for seed in [3u64, 77] {
        assert_eq!(
            mc_evaluate_plan(&wf, &plans[3], &table, &spec, 2000.0, 0.9, 40, seed),
            mc_evaluate_plan_reference(&wf, &plans[3], &table, &spec, 2000.0, 0.9, 40, seed),
            "seed {seed}: the rejected plan diverged from the reference"
        );
    }
}

/// On one full-speed core the device model is the identity on counted
/// work: a search's modeled seconds are exactly its states × threads per
/// state × cells per thread × `HOST_SECONDS_PER_CELL`.
#[test]
fn gpu_model_cpu1_is_identity_baseline() {
    use deco::gpu::HOST_SECONDS_PER_CELL;
    use deco::solver::{beam_search, EvalBackend, SearchOptions, SearchProblem};
    let spec = CloudSpec::amazon_ec2();
    let store = deco::cloud::MetadataStore::from_ground_truth(spec.clone(), 20);
    let wf = generators::ligo(30, 1);
    let problem = frontier_search_problem(&wf, &spec, &store);
    let opts = SearchOptions {
        max_states: 60,
        ..SearchOptions::default()
    };
    let stats = beam_search(&problem, &opts, 4, &EvalBackend::SeqCpu).stats;
    let cells = stats.states_evaluated * problem.threads_per_state() * problem.cells_per_thread();
    assert_eq!(problem.cells_per_thread(), wf.len());
    assert_eq!(
        stats.modeled_eval_seconds.to_bits(),
        (cells as f64 * HOST_SECONDS_PER_CELL).to_bits(),
        "{} states",
        stats.states_evaluated
    );
}

#[test]
fn metadata_store_quantiles_bracket_truth() {
    let spec = CloudSpec::amazon_ec2();
    let (store, _) = deco::cloud::calibration::calibrate(&spec, 4000, 40, 17);
    for (i, t) in spec.types.iter().enumerate() {
        let h = store.hist(i, deco::cloud::PerfComponent::SeqIo);
        let truth = t.seq_io();
        // Calibrated median within 5% of the law's median.
        let med = h.percentile(0.5);
        let truth_med = truth.mean(); // Gamma at these shapes: mean ~ median
        assert!(
            (med - truth_med).abs() / truth_med < 0.06,
            "{}: {med} vs {truth_med}",
            t.name
        );
    }
}
