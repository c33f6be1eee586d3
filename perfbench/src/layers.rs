//! Unit costs of single layers, timed from outside through the crates'
//! public functions. Each is the median of a few batches sized to fill a
//! small budget; a traced run calls the ones whose layer its workload
//! crosses.

use crate::harness::{scratch_dir, PERCENTILE};
use crate::run::Outcome;
use crate::sampling::{median, unit_cost_secs};
use deco_cloud::{CloudSpec, MetadataStore, Plan};
use deco_core::codec::{decode_supervised_plan, encode_supervised_plan};
use deco_core::estimate::{CompiledFrontier, ExecTimeTable, FrontierScratch, FrontierSkeleton};
use deco_core::supervisor::SupervisedPlan;
use deco_core::wire::encode_workflow;
use deco_core::Deco;
use deco_prob::hist::CdfSampler;
use deco_prob::rng::seeded;
use deco_serve::store::{PlanStore, StoreFrame};
use deco_serve::{
    plan_key, AdmissionQueue, PlanCache, PlanRequest, PlanResponse, ServeCheckpoint, ServeStats,
};
use deco_shard::proc::journal::{CommitRecord, ShardHealth};
use deco_shard::proc::Frame;
use deco_shard::{ShardRouter, SupervisorJournal};
use deco_workflow::Workflow;
use std::hint::black_box;
use std::time::{Duration, Instant};

const SAMPLES: usize = 5;
const BUDGET: Duration = Duration::from_millis(40);
/// Frontier width the estimate costs are taken at (the engine's default
/// `frontier_block`).
const K: usize = 32;
/// Bins of the execution-time tables `SchedulingProblem` builds.
const TABLE_BINS: usize = 12;

fn cost(f: impl FnMut()) -> f64 {
    unit_cost_secs(f, SAMPLES, BUDGET)
}

/// `prob`: one `CdfSampler` draw on a 12-bin row, RNG included.
pub fn prob(out: &mut Outcome) {
    let sampler = CdfSampler::from_probs((0..TABLE_BINS).map(|_| 1.0 / TABLE_BINS as f64));
    let mut rng = seeded(7);
    const DRAWS: usize = 1000;
    let secs = cost(|| {
        let mut acc = 0usize;
        for _ in 0..DRAWS {
            acc += sampler.sample_index(&mut rng);
        }
        black_box(acc);
    });
    out.set("prob.hist.sample_ns", secs / DRAWS as f64 * 1e9);
}

/// `cloud` and `core::estimate` fixed costs per solve and the frontier
/// kernel's cost per candidate, on `wf`.
pub fn estimate(out: &mut Outcome, deco: &Deco, wf: &Workflow, deadline: f64) {
    let spec = &deco.store.spec;
    let types = vec![1usize; wf.len()];
    out.set(
        "cloud.plan.packed_us",
        cost(|| {
            black_box(Plan::packed(wf, &types, 0, spec));
        }) * 1e6,
    );
    out.set(
        "core.estimate.table_build_us",
        cost(|| {
            black_box(ExecTimeTable::build(wf, &deco.store, TABLE_BINS));
        }) * 1e6,
    );
    let table = ExecTimeTable::build(wf, &deco.store, TABLE_BINS);
    out.set(
        "core.estimate.skeleton_build_us",
        cost(|| {
            black_box(FrontierSkeleton::build(wf, &table));
        }) * 1e6,
    );
    let skel = FrontierSkeleton::build(wf, &table);
    let plans: Vec<Plan> = (0..K)
        .map(|i| {
            let types: Vec<usize> = (0..wf.len()).map(|j| 1 + (i * 7 + j * 3) % 3).collect();
            Plan::packed(wf, &types, 0, spec)
        })
        .collect();
    let seeds: Vec<u64> = (0..K as u64)
        .map(|i| 7 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    out.set(
        "core.estimate.frontier_compile_us",
        cost(|| {
            black_box(CompiledFrontier::compile(&skel, spec, &plans));
        }) * 1e6,
    );
    if let Some(frontier) = CompiledFrontier::compile(&skel, spec, &plans) {
        let mut scratch = FrontierScratch::new();
        let iters = deco.options.mc_iters;
        out.set(
            "core.estimate.frontier_eval_us_per_cand",
            cost(|| {
                black_box(frontier.evaluate(deadline, PERCENTILE, iters, &seeds, &mut scratch));
            }) / K as f64
                * 1e6,
        );
    }
}

/// `cloud::metadata`: calibrating the store the engine plans against.
pub fn metadata_build_ms() -> f64 {
    cost(|| {
        black_box(MetadataStore::from_ground_truth(
            CloudSpec::amazon_ec2(),
            crate::harness::STORE_BINS,
        ));
    }) * 1e3
}

/// `core::codec` and `core::wire`: what a Put write-through and an
/// `AssignJobs` frame pay per plan and per workflow.
pub fn codec(out: &mut Outcome, plan: &SupervisedPlan, wf: &Workflow) {
    let bytes = encode_supervised_plan(plan);
    out.set("core.codec.plan_bytes", bytes.len() as f64);
    out.set(
        "core.codec.encode_us",
        cost(|| {
            black_box(encode_supervised_plan(plan));
        }) * 1e6,
    );
    out.set(
        "core.codec.decode_us",
        cost(|| {
            black_box(decode_supervised_plan(&bytes).is_ok());
        }) * 1e6,
    );
    out.set(
        "core.wire.workflow_encode_us",
        cost(|| {
            black_box(encode_workflow(wf));
        }) * 1e6,
    );
}

/// `serve::{cache, queue, request}`: the per-request costs of the warm
/// path, and an insert at capacity.
pub fn serve_units(
    out: &mut Outcome,
    deco: &Deco,
    request: &PlanRequest,
    response: &PlanResponse,
    plan: &SupervisedPlan,
    cache_capacity: usize,
) {
    out.set(
        "serve.cache.key_us",
        cost(|| {
            black_box(plan_key(
                &request.workflow,
                &deco.store,
                &deco.options,
                request.deadline,
                request.percentile,
                None,
            ));
        }) * 1e6,
    );

    let mut cache = PlanCache::new(cache_capacity);
    for key in 0..cache_capacity as u64 {
        cache.insert(key, plan.clone(), 0);
    }
    let mut key = 0u64;
    out.set(
        "serve.cache.get_ns",
        cost(|| {
            key = (key + 97) % cache_capacity.max(1) as u64;
            black_box(cache.get(key).is_some());
        }) * 1e9,
    );
    let mut fresh = cache_capacity as u64;
    out.set(
        "serve.cache.insert_us",
        cost(|| {
            fresh += 1;
            black_box(cache.insert(fresh, plan.clone(), 0));
        }) * 1e6,
    );

    let mut queue = AdmissionQueue::new(64);
    const BATCH: usize = 16;
    out.set(
        "serve.queue.admit_ns",
        cost(|| {
            for seq in 0..BATCH as u64 {
                let _ = black_box(queue.try_admit(seq, 0.0, request.clone()));
            }
            black_box(queue.drain_batch(BATCH));
        }) / BATCH as f64
            * 1e9,
    );

    out.set(
        "serve.request.line_us",
        cost(|| {
            black_box(response.canonical_line());
        }) * 1e6,
    );
}

/// `serve::store`: one WAL append of each kind the warm path writes.
pub fn store_units(out: &mut Outcome, plan: &SupervisedPlan) {
    let dir = scratch_dir("layer-store");
    let Ok(mut store) = PlanStore::open(&dir) else {
        return;
    };
    let mut stamp = 0u64;
    out.set(
        "serve.store.touch_append_us",
        cost(|| {
            stamp += 1;
            let _ = black_box(store.append(&StoreFrame::Touch {
                key: stamp % 64,
                last_use: stamp,
            }));
        }) * 1e6,
    );
    out.set(
        "serve.store.put_append_us",
        cost(|| {
            stamp += 1;
            let _ = black_box(store.append(&StoreFrame::Put {
                key: stamp,
                epoch: 0,
                last_use: stamp,
                plan: plan.clone(),
            }));
        }) * 1e6,
    );
}

/// Encoded size of the WAL frames the serving path appends, for the
/// computed bytes-per-request figure.
pub fn wal_frame_bytes(plan: &SupervisedPlan) -> (f64, f64, f64) {
    let touch = StoreFrame::Touch {
        key: 1,
        last_use: 1,
    }
    .encode()
    .len();
    let put = StoreFrame::Put {
        key: 1,
        epoch: 0,
        last_use: 1,
        plan: plan.clone(),
    }
    .encode()
    .len();
    let del = StoreFrame::Del { key: 1 }.encode().len();
    (touch as f64, put as f64, del as f64)
}

/// `shard::router`: key to shard.
pub fn router(out: &mut Outcome, shards: usize) {
    let router = ShardRouter::new(shards);
    let mut key = 0x9E37_79B9_7F4A_7C15u64;
    out.set(
        "shard.router.route_ns",
        cost(|| {
            key = key.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(1);
            black_box(router.shard_of(key));
        }) * 1e9,
    );
}

/// `shard::proc::wire`: a Put frame with plan bytes, out and back.
pub fn wire_units(out: &mut Outcome, plan: &SupervisedPlan) {
    let frame = Frame::Put {
        seq: 1,
        key: 2,
        epoch: 0,
        last_use: 3,
        plan: plan.clone(),
    };
    out.set(
        "shard.proc.wire.encode_us",
        cost(|| {
            black_box(frame.encode());
        }) * 1e6,
    );
    let bytes = frame.encode();
    out.set(
        "shard.proc.wire.decode_us",
        cost(|| {
            black_box(Frame::read_from(&mut &bytes[..]).is_ok());
        }) * 1e6,
    );
}

/// `shard::proc::journal`: one commit group whose checkpoint carries 0
/// versus `answered` answered requests. The two differ only in
/// `ServeStats::waits`, one `f64` per answered request — the probe's
/// hypothesis for why journaled throughput falls with trace length.
pub fn journal_commit(out: &mut Outcome, shards: usize, answered: usize, lines: &[String]) {
    let record = |n: usize| CommitRecord {
        cycle: 1,
        clock: 1,
        shard_seqs: vec![1; shards],
        shard_health: vec![ShardHealth::default(); shards],
        serve: ServeCheckpoint {
            next: n as u64,
            stats: ServeStats {
                requests: n as u64,
                planned: n as u64,
                waits: vec![0.0; n],
                ..ServeStats::default()
            },
            emitted: n as u64,
            ..ServeCheckpoint::default()
        },
        lines: lines.to_vec(),
    };
    for (name, n) in [
        ("shard.proc.journal.commit_us_empty", 0usize),
        ("shard.proc.journal.commit_us_at_n", answered),
    ] {
        let dir = scratch_dir("layer-journal");
        // Compaction and fsync off: the commit append alone.
        let Ok((mut journal, _)) = SupervisorJournal::open(&dir, 0, 0) else {
            return;
        };
        let rec = record(n);
        // A fixed, small number of commits: each writes the whole
        // checkpoint, and an uncompacted journal keeps every byte.
        const COMMITS: usize = 8;
        let mut batches: Vec<f64> = (0..=SAMPLES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..COMMITS {
                    let _ = black_box(journal.commit(rec.clone()));
                }
                t.elapsed().as_secs_f64() / COMMITS as f64
            })
            .collect();
        batches.remove(0); // warm-up
        out.set(name, median(&batches) * 1e6);
    }
}
