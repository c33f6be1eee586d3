//! Fault-subsystem overhead: the disruption-aware simulator with faults
//! *disabled* against the plain `run_plan` path, on the workflow scales
//! the paper evaluates. The fault hooks live inside the hot dispatch loop
//! (fate lookups, partition checks, the attempt trace), so this bench
//! guards the contract that a quiescent schedule costs nothing — the
//! acceptance bar is <2% overhead.
//!
//! The bench writes `BENCH_faults.json` at the repository root with the
//! measured medians and overhead ratios, plus one row with a live
//! 5%/instance-hour injector for scale.

use deco_cloud::{run_plan, CloudSpec, Plan, RetryConfig};
use deco_faults::{run_with_faults, FaultInjector, FaultModel};
use deco_workflow::generators;
use deco_workflow::Workflow;
use std::hint::black_box;
use std::time::{Duration, Instant};

const SEED: u64 = 7;

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
            name: "ligo_100",
            wf: generators::ligo(100, 1),
        },
        Case {
            name: "ligo_1000",
            wf: generators::ligo(1000, 1),
        },
    ]
}

/// Best-observed seconds per call for each contender, with the samples
/// round-robined across contenders so clock drift and thermal throttling
/// hit every contender equally — an A/B/A/B schedule, not A*7 then B*7.
/// Scheduler jitter on shared machines is strictly additive, so the
/// minimum is the robust location estimate here, not the median. Each
/// sample is sized to a per-contender wall-clock budget estimated from
/// one untimed warm-up call.
fn interleaved_min_secs(
    contenders: &mut [&mut dyn FnMut()],
    samples: usize,
    budget: Duration,
) -> Vec<f64> {
    let reps: Vec<u64> = contenders
        .iter_mut()
        .map(|f| {
            let t = Instant::now();
            f();
            let once = t.elapsed().as_secs_f64().max(1e-9);
            ((budget.as_secs_f64() / samples as f64 / once).floor() as u64).max(1)
        })
        .collect();
    let mut recorded = vec![Vec::with_capacity(samples); contenders.len()];
    for _ in 0..samples {
        for (i, f) in contenders.iter_mut().enumerate() {
            let t = Instant::now();
            for _ in 0..reps[i] {
                f();
            }
            recorded[i].push(t.elapsed().as_secs_f64() / reps[i] as f64);
        }
    }
    recorded
        .into_iter()
        .map(|xs| xs.into_iter().fold(f64::INFINITY, f64::min))
        .collect()
}

fn main() {
    let spec = CloudSpec::amazon_ec2();
    let quiescent = FaultInjector::new(FaultModel::none(), 1);
    let mut rows = Vec::new();

    for case in cases() {
        let wf = &case.wf;
        let plan = Plan::packed(wf, &vec![1; wf.len()], 0, &spec);

        // Sanity: a quiescent injector must be a bit-exact no-op before we
        // bother timing it.
        let base = run_plan(&spec, wf, &plan, SEED);
        let faulty = run_with_faults(&spec, wf, &plan, &quiescent, RetryConfig::default(), SEED);
        assert_eq!(
            base.makespan.to_bits(),
            faulty.result.makespan.to_bits(),
            "{}: quiescent run diverged",
            case.name
        );

        let budget = Duration::from_millis(1200);
        let chaos = FaultInjector::new(FaultModel::uniform_crash(&spec, 0.05), 3);
        let mut plain_f = || {
            black_box(run_plan(&spec, wf, &plan, SEED));
        };
        let mut disabled_f = || {
            black_box(run_with_faults(
                &spec,
                wf,
                &plan,
                &quiescent,
                RetryConfig::default(),
                SEED,
            ));
        };
        // The live-injector contender is one row for scale (not part of
        // the overhead bar).
        let mut chaos_f = || {
            black_box(run_with_faults(
                &spec,
                wf,
                &plan,
                &chaos,
                RetryConfig::default(),
                SEED,
            ));
        };
        let best = interleaved_min_secs(
            &mut [&mut plain_f, &mut disabled_f, &mut chaos_f],
            15,
            budget,
        );
        let (plain_s, disabled_s, chaos_s) = (best[0], best[1], best[2]);
        let overhead = disabled_s / plain_s - 1.0;
        println!(
            "faults {:<12} tasks={:<5} plain {:>9.1} us  disabled {:>9.1} us  overhead {:>6.2}%  chaos(5%/h) {:>9.1} us",
            case.name,
            wf.len(),
            plain_s * 1e6,
            disabled_s * 1e6,
            overhead * 100.0,
            chaos_s * 1e6
        );
        rows.push(format!(
            "    {{\"name\": \"{}\", \"tasks\": {}, \"plain_us\": {:.3}, \
             \"faults_disabled_us\": {:.3}, \"overhead_pct\": {:.3}, \"chaos_us\": {:.3}}}",
            case.name,
            wf.len(),
            plain_s * 1e6,
            disabled_s * 1e6,
            overhead * 100.0,
            chaos_s * 1e6
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"faults\",\n  \"unit\": \"microseconds_per_run\",\n  \
         \"acceptance\": \"faults_disabled overhead < 2% of plain run_plan\",\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faults.json");
    std::fs::write(out, json).expect("write BENCH_faults.json");
    println!("wrote {out}");
}
