//! Monte-Carlo evaluation throughput of the one kernel
//! (`CompiledFrontier`), against the reference Algorithm 1 loop
//! (`mc_evaluate_plan_reference`: fresh topological sort and O(bins)
//! linear-scan sampling per realization) for a single plan, and against
//! itself at K = 1 for a whole frontier.
//!
//! The bench writes `BENCH_mc_eval.json` at the repository root with the
//! measured medians and speedups so the trajectory can be tracked without
//! parsing bench logs. Each case also records the device model's 1-core
//! time for the same work (`tasks × mc_iters × HOST_SECONDS_PER_CELL`) and
//! its ratio to the measured `mc_evaluate_plan` time, and the time to pack
//! the case's type vector with `Plan::packed_deadline` at `0.85 ×` the
//! medium deadline — the packing `SchedulingProblem::plan_of` performs
//! before every state's kernel pass.

use deco_bench::median_secs;
use deco_cloud::{CloudSpec, MetadataStore, Plan};
use deco_core::estimate::{
    deadline_anchors, mc_evaluate_plan, mc_evaluate_plan_reference, CompiledFrontier,
    ExecTimeTable, FrontierScratch, FrontierSkeleton,
};
use deco_gpu::HOST_SECONDS_PER_CELL;
use deco_workflow::generators;
use deco_workflow::Workflow;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Monte-Carlo iterations per evaluation — the scale the scheduling
/// problem uses for one search state.
const MC_ITERS: usize = 200;
const HIST_BINS: usize = 12;
const SEED: u64 = 7;
/// Frontier widths the batched evaluator is measured at.
const FRONTIER_KS: [usize; 3] = [8, 32, 128];

/// A synthetic beam frontier: K distinct type vectors over the same DAG,
/// the shape of one `beam_search` batch.
fn beam_plans(wf: &Workflow, spec: &CloudSpec, k: usize) -> Vec<Plan> {
    (0..k)
        .map(|i| {
            let types: Vec<usize> = (0..wf.len()).map(|j| 1 + (i * 7 + j * 3) % 3).collect();
            Plan::packed(wf, &types, 0, spec)
        })
        .collect()
}

fn frontier_seeds(k: usize) -> Vec<u64> {
    (0..k as u64)
        .map(|i| SEED ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

struct Case {
    name: &'static str,
    wf: Workflow,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "montage_8",
            wf: generators::montage(8, 1),
        },
        Case {
            name: "ligo_20",
            wf: generators::ligo(20, 1),
        },
        Case {
            name: "ligo_100",
            wf: generators::ligo(100, 1),
        },
        Case {
            name: "ligo_1000",
            wf: generators::ligo(1000, 1),
        },
    ]
}

/// Median seconds per call of `f(false)` and of `f(true)`, and the median
/// of their per-sample ratio, over `samples` back-to-back pairs of samples
/// (which side goes first alternates), each sized like
/// [`deco_bench::median_secs`].
/// Pairing keeps drift on a shared core from landing on one side of the
/// comparison.
fn paired_median_secs(
    mut f: impl FnMut(bool),
    samples: usize,
    budget: Duration,
) -> (f64, f64, f64) {
    let per_sample = [false, true].map(|side| {
        let t = Instant::now();
        f(side);
        let once = t.elapsed().as_secs_f64().max(1e-9);
        ((budget.as_secs_f64() / samples as f64 / once).floor() as u64).max(1)
    });
    let mut times = [Vec::new(), Vec::new()];
    for s in 0..samples {
        for side in [s % 2 == 1, s % 2 == 0] {
            let n = per_sample[side as usize];
            let t = Instant::now();
            for _ in 0..n {
                f(side);
            }
            times[side as usize].push(t.elapsed().as_secs_f64() / n as f64);
        }
    }
    let ratios: Vec<f64> = times[0].iter().zip(&times[1]).map(|(a, b)| a / b).collect();
    let [a, b, ratio] = [times[0].clone(), times[1].clone(), ratios].map(|mut v| {
        v.sort_by(|x, y| x.partial_cmp(y).unwrap());
        v[v.len() / 2]
    });
    (a, b, ratio)
}

/// One compile-and-evaluate pass over `plans` as a single frontier; at
/// K = 1 the unit of work `SchedulingProblem::evaluate` performs per state.
fn frontier_pass(
    skel: &FrontierSkeleton,
    spec: &CloudSpec,
    plans: &[Plan],
    deadline: f64,
    iters: usize,
    seeds: &[u64],
    scratch: &mut FrontierScratch,
) -> Vec<deco_core::estimate::McEval> {
    CompiledFrontier::compile(skel, spec, plans)
        .expect("packer plans conform")
        .evaluate(deadline, 0.9, iters, seeds, scratch)
}

fn main() {
    // Quick mode (CI): skip the reference medians, measure only the K=1
    // vs K=32 frontier comparison with small budgets, and fail if a wide
    // frontier costs materially more per candidate than evaluating the
    // same candidates one column at a time.
    // The kernel does the same work per column at any K, so the ratio sits
    // near 1; the floor allows 10% for run-to-run noise and catches a
    // wide frontier blowing up (allocation or cache footprint growing
    // faster than K).
    let quick = std::env::var("MC_EVAL_QUICK").is_ok();
    let spec = CloudSpec::amazon_ec2();
    let store = MetadataStore::from_ground_truth(spec.clone(), 30);
    let mut rows = Vec::new();
    let mut frontier_rows = Vec::new();

    for case in cases() {
        let wf = &case.wf;
        let table = ExecTimeTable::build(wf, &store, HIST_BINS);
        let skel = FrontierSkeleton::build(wf, &table);
        let mut scratch = FrontierScratch::new();
        let types = vec![1; wf.len()];
        let plan = Plan::packed(wf, &types, 0, &spec);
        let one = std::slice::from_ref(&plan);
        let deadline = 0.75
            * mc_evaluate_plan_reference(wf, &plan, &table, &spec, f64::INFINITY, 0.9, 32, SEED)
                .quantile_makespan;

        // Sanity: the kernel must give the reference verdict before we
        // time it.
        let a = mc_evaluate_plan_reference(wf, &plan, &table, &spec, deadline, 0.9, 64, SEED);
        let b = frontier_pass(&skel, &spec, one, deadline, 64, &[SEED], &mut scratch);
        assert_eq!(a, b[0], "{}: kernel diverged from reference", case.name);

        // ---- K-column frontier vs the same candidates at K = 1 ----
        let (budget, samples) = if quick {
            (Duration::from_millis(250), 7)
        } else {
            (Duration::from_millis(1500), 7)
        };
        let ks: &[usize] = if quick { &[32] } else { &FRONTIER_KS };
        for &k in ks {
            let plans = beam_plans(wf, &spec, k);
            let seeds = frontier_seeds(k);

            // Sanity: a wide frontier is bit-identical to its columns.
            let batched = frontier_pass(&skel, &spec, &plans, deadline, 64, &seeds, &mut scratch);
            for (i, (p, s)) in plans.iter().zip(&seeds).enumerate() {
                let single = frontier_pass(
                    &skel,
                    &spec,
                    std::slice::from_ref(p),
                    deadline,
                    64,
                    &[*s],
                    &mut scratch,
                );
                assert_eq!(
                    single[0], batched[i],
                    "{} k={k}: frontier diverged from K=1 at candidate {i}",
                    case.name
                );
            }

            let (k1_s, frontier_s, speedup) = paired_median_secs(
                |wide| {
                    if wide {
                        black_box(frontier_pass(
                            &skel,
                            &spec,
                            &plans,
                            deadline,
                            MC_ITERS,
                            &seeds,
                            &mut scratch,
                        ));
                        return;
                    }
                    for (p, s) in plans.iter().zip(&seeds) {
                        black_box(frontier_pass(
                            &skel,
                            &spec,
                            std::slice::from_ref(p),
                            deadline,
                            MC_ITERS,
                            &[*s],
                            &mut scratch,
                        ));
                    }
                },
                samples,
                budget,
            );
            println!(
                "mc_eval {:<12} k={:<4} k1 {:>10.1} us/cand  frontier {:>10.1} us/cand  speedup {:.2}x",
                case.name,
                k,
                k1_s / k as f64 * 1e6,
                frontier_s / k as f64 * 1e6,
                speedup
            );
            frontier_rows.push(format!(
                "    {{\"name\": \"{}\", \"tasks\": {}, \"k\": {}, \"mc_iters\": {}, \
                 \"k1_us_per_cand\": {:.3}, \"frontier_us_per_cand\": {:.3}, \"speedup\": {:.3}}}",
                case.name,
                wf.len(),
                k,
                MC_ITERS,
                k1_s / k as f64 * 1e6,
                frontier_s / k as f64 * 1e6,
                speedup
            ));
            if quick {
                assert!(
                    speedup >= 1.0 / 1.1,
                    "{} k={k}: a {k}-wide frontier costs over 10% more per candidate than K=1 \
                     ({speedup:.2}x)",
                    case.name
                );
            }
        }

        if quick {
            continue;
        }

        // Independent medians for the JSON record: the reference loop, the
        // one-column frontier over the problem-wide skeleton (what a search
        // pays per state), and `mc_evaluate_plan` (what a one-off caller
        // pays: it also lays out a fresh skeleton).
        let budget = Duration::from_millis(1500);
        let ref_s = median_secs(
            || {
                black_box(mc_evaluate_plan_reference(
                    wf, &plan, &table, &spec, deadline, 0.9, MC_ITERS, SEED,
                ));
            },
            7,
            budget,
        );
        let k1_s = median_secs(
            || {
                black_box(frontier_pass(
                    &skel,
                    &spec,
                    one,
                    deadline,
                    MC_ITERS,
                    &[SEED],
                    &mut scratch,
                ));
            },
            7,
            budget,
        );
        let fresh_s = median_secs(
            || {
                black_box(mc_evaluate_plan(
                    wf, &plan, &table, &spec, deadline, 0.9, MC_ITERS, SEED,
                ));
            },
            7,
            budget,
        );
        // The search's packing of one state: its safety factor times the
        // medium deadline.
        let (dmin, dmax) = deadline_anchors(wf, &spec);
        let pack_deadline = 0.85 * 0.5 * (dmin + dmax);
        let plan_of_s = median_secs(
            || {
                black_box(Plan::packed_deadline(wf, &types, 0, &spec, pack_deadline));
            },
            7,
            budget,
        );
        let speedup = ref_s / k1_s;
        // The device model's 1-core time for the same work, beside the
        // measured one: a drifting ratio means `HOST_SECONDS_PER_CELL` no
        // longer describes this kernel (a warning, never a failure).
        let modeled_s = (wf.len() * MC_ITERS) as f64 * HOST_SECONDS_PER_CELL;
        let model_ratio = modeled_s / fresh_s;
        println!(
            "mc_eval {:<12} modeled 1-core {:>10.1} us  measured {:>10.1} us  modeled/measured {:.2}",
            case.name,
            modeled_s * 1e6,
            fresh_s * 1e6,
            model_ratio
        );
        if !(0.5..=2.0).contains(&model_ratio) {
            println!(
                "mc_eval WARNING {}: HOST_SECONDS_PER_CELL is off by {model_ratio:.2}x here",
                case.name
            );
        }
        println!(
            "mc_eval {:<12} tasks={:<5} slots={:<5} reference {:>10.1} us  frontier_k1 {:>10.1} us  \
             mc_evaluate_plan {:>10.1} us  speedup {:.2}x  plan_of {:>10.1} us",
            case.name,
            wf.len(),
            plan.slots.len(),
            ref_s * 1e6,
            k1_s * 1e6,
            fresh_s * 1e6,
            speedup,
            plan_of_s * 1e6
        );
        rows.push(format!(
            "    {{\"name\": \"{}\", \"tasks\": {}, \"mc_iters\": {}, \
             \"reference_us\": {:.3}, \"frontier_k1_us\": {:.3}, \"mc_evaluate_plan_us\": {:.3}, \
             \"speedup\": {:.3}, \"modeled_1core_us\": {:.3}, \"modeled_over_measured\": {:.3}, \
             \"plan_of_us\": {:.3}}}",
            case.name,
            wf.len(),
            MC_ITERS,
            ref_s * 1e6,
            k1_s * 1e6,
            fresh_s * 1e6,
            speedup,
            modeled_s * 1e6,
            model_ratio,
            plan_of_s * 1e6
        ));
    }

    if quick {
        println!("mc_eval quick mode: K=32 per-candidate cost within 10% of K=1, skipping JSON");
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"mc_eval\",\n  \"unit\": \"microseconds_per_evaluation\",\n  \
         \"cases\": [\n{}\n  ],\n  \"frontier\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        frontier_rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mc_eval.json");
    std::fs::write(out, json).expect("write BENCH_mc_eval.json");
    println!("wrote {out}");
}
