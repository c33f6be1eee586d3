//! The four serving workloads. The serving API is a virtual-clock trace
//! replay, so each workload has a *bulk* phase (one `serve_trace*` call
//! over the whole trace: offline throughput at a stated size), then on
//! the same warm tier an *interactive* phase (closed loop, one client:
//! consecutive single-cycle calls of 16 same-tick requests, each call
//! timed), then on the tiers a *recover* phase (cold start to the first
//! answer, over what the run persisted).
//!
//! Load model: one CPU (`harness::pin_to_one_cpu`) shared by the one
//! generator (this process) and 1 solver worker (`PlanServer`) or 2 shards
//! × 1 worker (the tiers). The generator blocks while a cycle solves.

use crate::harness::{
    dir_bytes, full_quality, lines_digest, plan_digest, scratch_dir, served, serving_engine,
    serving_shapes, stream_digest, CacheModel, DirImage, KeySpec, Materializer, Slot, TracePlan,
    BUCKETS, PER_TICK,
};
use crate::json::Json;
use crate::layers;
use crate::run::{ms_since, sampled_setup, Outcome, RunArgs};
use crate::sampling::{median, percentile, supported_tail, timed_passes};
use crate::trace::{self, TracedBackend, Tracer};
use deco_cloud::run_plan_many;
use deco_core::supervisor::SupervisedPlan;
use deco_core::{Deco, DecoPlan};
use deco_serve::store::PlanStore;
use deco_serve::{
    serve_trace_backend, ArrivalTrace, PlanResponse, PlanServer, PlanSource, ServeBackend,
    ServeConfig, ServeSession, ServeStats,
};
use deco_shard::{
    ShardConfig, ShardSupervisor, ShardedServer, SuperviseConfig, SuperviseSession,
    SupervisorFaultPlan,
};
use deco_solver::SearchStats;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

const SHARDS: usize = 2;
const WORKERS_PER_SHARD: usize = 1;
/// Solver threads of the in-process `PlanServer`. One: the generator
/// blocks while a cycle solves and the run is confined to one CPU, so a
/// second worker would only take turns with the first.
const SERVER_WORKERS: usize = 1;
const SNAPSHOT_EVERY: u64 = 1024;
/// Requests of a takeover drill's trace, and the cycle its primary halts
/// after (mid-trace).
const TAKEOVER_REQUESTS: usize = 2048;
const TAKEOVER_HALT_CYCLE: u64 = 63;
/// Catalog cells whose served plan is executed for `deadline_hit_rate`,
/// and simulated executions of each.
const EXECUTED_PLANS: usize = 16;
const EXECUTIONS: usize = 50;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Warm,
    Churn,
    ShardWal,
    Journal,
}

impl Kind {
    fn of(workload: &str) -> Kind {
        match workload {
            "serve_warm" => Kind::Warm,
            "serve_churn" => Kind::Churn,
            "tier_shard_wal" => Kind::ShardWal,
            _ => Kind::Journal,
        }
    }

    /// Requests per bulk pass. Sized so that a pass takes well under a
    /// second on every tier: the run's time cap leaves the phase a few
    /// seconds, and a median needs more than a few passes.
    fn requests(self) -> usize {
        match self {
            Kind::Churn => 512,
            _ => 16_384,
        }
    }

    /// The interactive phase: calls per pass and the fewest timed passes
    /// (a churn cycle costs ~20 ms, a warm one ~0.2). Their product is the
    /// number of calls every run pools, and fixes the percentile
    /// `call_tail_ms` is read at: the highest with ten samples beyond it,
    /// p95 for churn's 200 calls and p99 for hot998's 1,200. (On hot998
    /// p95 would sit on an edge: one cycle in 32 solves a never-seen key
    /// and the sharded tier compacts in one in 64, so 4.7 % of its cycles
    /// are slow. p99 is inside the solve cycles on every tier.)
    fn interactive(self) -> (usize, usize) {
        match self {
            Kind::Churn => (50, 4),
            _ => (400, 3),
        }
    }

    fn trace_plan(self, seed: u64) -> TracePlan {
        match self {
            Kind::Churn => TracePlan::churn(seed, self.requests()),
            _ => TracePlan::hot998(seed, self.requests()),
        }
    }

    /// Shares of the run's seconds given to bulk, interactive, recover.
    /// `PlanServer` persists nothing to recover from.
    fn shares(self) -> (f64, f64, f64) {
        match self {
            Kind::Warm | Kind::Churn => (0.55, 0.45, 0.0),
            Kind::ShardWal | Kind::Journal => (0.5, 0.3, 0.2),
        }
    }
}

/// A tier under test, behind the one call the phases make.
trait Tier {
    fn call(&mut self, trace: &ArrivalTrace) -> (Vec<PlanResponse>, ServeStats);
}

impl Tier for PlanServer {
    fn call(&mut self, trace: &ArrivalTrace) -> (Vec<PlanResponse>, ServeStats) {
        self.serve_trace(trace, SERVER_WORKERS)
    }
}

impl Tier for ShardedServer {
    fn call(&mut self, trace: &ArrivalTrace) -> (Vec<PlanResponse>, ServeStats) {
        self.serve_trace(trace)
    }
}

/// The supervised tier with its journal on.
struct Journaled(ShardSupervisor);

impl Tier for Journaled {
    fn call(&mut self, trace: &ArrivalTrace) -> (Vec<PlanResponse>, ServeStats) {
        let (responses, stats, halted) =
            self.0
                .serve_trace_journaled(trace, &SuperviseSession::default(), None, &mut |_, _| {});
        assert!(!halted, "a quiescent session never halts");
        (responses, stats)
    }
}

/// The supervised tier with its journal off (the traced run wraps it).
impl Tier for ShardSupervisor {
    fn call(&mut self, trace: &ArrivalTrace) -> (Vec<PlanResponse>, ServeStats) {
        self.serve_trace(trace)
    }
}

fn shard_config(cfg: &ServeConfig, dir: PathBuf) -> ShardConfig {
    ShardConfig {
        shards: SHARDS,
        workers_per_shard: WORKERS_PER_SHARD,
        serve: cfg.clone(),
        persist_dir: Some(dir),
        snapshot_every: SNAPSHOT_EVERY,
    }
}

fn supervise_config(
    cfg: &ServeConfig,
    persist: PathBuf,
    journal: Option<PathBuf>,
) -> SuperviseConfig {
    SuperviseConfig {
        shards: SHARDS,
        workers_per_shard: WORKERS_PER_SHARD,
        serve: cfg.clone(),
        persist_dir: Some(persist),
        journal_dir: journal,
        snapshot_every: SNAPSHOT_EVERY,
        ..SuperviseConfig::default()
    }
}

/// Everything a serving run holds besides the tier itself.
struct Bench {
    kind: Kind,
    deco: Deco,
    cfg: ServeConfig,
    plan: TracePlan,
    mat: Materializer,
    /// Predicts every tier count from the key sequence.
    model: CacheModel,
    /// Content key each key spec was answered under, and back.
    key_of: HashMap<KeySpec, u64>,
    spec_of: HashMap<u64, KeySpec>,
    /// Digest of the plan first returned for each content key.
    plan_of: HashMap<u64, u64>,
    /// The plan first served for each (shape, deadline bucket) cell of
    /// the catalog.
    cell_plans: BTreeMap<(u8, u8), DecoPlan>,
    /// Next slot of the interactive phase's window over the trace plan.
    cursor: usize,
    /// Set once the tier under test holds the working set.
    warmed: bool,
    gen_ms: f64,
}

/// One timed call and what it returned.
struct Served {
    wall_s: f64,
    responses: Vec<PlanResponse>,
    stats: ServeStats,
}

impl Bench {
    fn new(kind: Kind, seed: u64) -> Bench {
        let deco = serving_engine();
        let cfg = ServeConfig::default();
        let t = Instant::now();
        let plan = kind.trace_plan(seed);
        let mat = Materializer::new(serving_shapes(), &deco.store.spec, cfg.deadline_bucket);
        let gen_ms = ms_since(t);
        Bench {
            kind,
            model: CacheModel::new(cfg.cache_capacity),
            deco,
            cfg,
            plan,
            mat,
            key_of: HashMap::new(),
            spec_of: HashMap::new(),
            plan_of: HashMap::new(),
            cell_plans: BTreeMap::new(),
            cursor: 0,
            warmed: false,
            gen_ms,
        }
    }

    fn trace(&mut self, slots: &[(u32, Slot)]) -> (ArrivalTrace, Vec<KeySpec>) {
        self.mat.trace(&self.plan, slots)
    }

    /// The hot set once each (hot998), or nothing (churn has no set that
    /// fits the cache; its steady state is reached by the warm-up pass).
    fn warm_trace(&mut self) -> (ArrivalTrace, Vec<KeySpec>) {
        let slots = match self.kind {
            Kind::Churn => Vec::new(),
            _ => self.plan.warm_slots(),
        };
        self.trace(&slots)
    }

    fn timed(tier: &mut dyn Tier, trace: &ArrivalTrace) -> Served {
        let t = Instant::now();
        let (responses, stats) = tier.call(trace);
        Served {
            wall_s: t.elapsed().as_secs_f64(),
            responses,
            stats,
        }
    }

    /// Output checks on one replayed trace. Must see every trace the
    /// tier serves, in order: the cache model advances with it.
    fn verify(&mut self, what: &str, specs: &[KeySpec], got: &Served, out: &mut Outcome) {
        let n = specs.len();
        out.checks.that(got.responses.len() == n, || {
            format!("{what}: {} responses for {n} requests", got.responses.len())
        });
        if got.responses.len() != n {
            return;
        }
        let mut bad_identity = 0usize;
        let mut bad_bytes = 0usize;
        for (i, (r, spec)) in got.responses.iter().zip(specs).enumerate() {
            if r.seq != i as u64 {
                bad_identity += 1;
            }
            if !full_quality(r) {
                out.failed += 1;
            }
            // One key spec, one content key, and the other way round.
            if *self.key_of.entry(*spec).or_insert(r.key) != r.key
                || *self.spec_of.entry(r.key).or_insert(*spec) != *spec
            {
                bad_identity += 1;
            }
            if let Some(p) = served(r) {
                let d = plan_digest(&p.plan.plan);
                if *self.plan_of.entry(r.key).or_insert(d) != d {
                    bad_bytes += 1;
                }
                self.cell_plans
                    .entry((spec.shape, spec.bucket))
                    .or_insert_with(|| p.plan.plan.clone());
            }
        }
        out.checks.that(bad_identity == 0, || {
            format!("{what}: {bad_identity} responses out of order or under the wrong key")
        });
        out.checks.that(bad_bytes == 0, || {
            format!("{what}: {bad_bytes} plans differ from the first plan returned for their key")
        });

        let keys: Vec<u64> = got.responses.iter().map(|r| r.key).collect();
        let (expect, sources) = self.model.replay(&keys);
        out.checks.that(expect.matches(&got.stats), || {
            format!(
                "{what}: counts differ from the cache model: expected {expect:?}, got hits={} \
                 misses={} coalesced={} evictions={} cycles={}",
                got.stats.hits,
                got.stats.misses,
                got.stats.coalesced,
                got.stats.evictions,
                got.stats.cycles
            )
        });
        let wrong_source = got
            .responses
            .iter()
            .zip(&sources)
            .filter(|(r, s)| served(r).map(|p| p.source) != Some(**s))
            .count();
        out.checks.that(wrong_source == 0, || {
            format!("{what}: {wrong_source} responses answered from the wrong source")
        });
        if self.kind != Kind::Churn && self.warmed {
            // hot998's label: every never-seen key misses, all else hits.
            let fresh = specs.iter().filter(|k| k.is_fresh()).count() as u64;
            out.checks.that(got.stats.misses == fresh, || {
                format!(
                    "{what}: {} misses for {fresh} never-seen keys",
                    got.stats.misses
                )
            });
        }
    }

    /// The next 16 slots of the interactive window (wrapping).
    fn next_cycle(&mut self) -> (ArrivalTrace, Vec<KeySpec>) {
        let lo = self.cursor;
        self.cursor = (self.cursor + PER_TICK) % (self.plan.len() - PER_TICK + 1);
        let slots = self.plan.slots[lo..lo + PER_TICK].to_vec();
        self.trace(&slots)
    }
}

/// A reference `PlanServer`, pre-warmed like the tier, that replays a
/// trace and digests the stream. On hot998 a response line does not
/// depend on the cache's history (hot keys hit, never-seen keys miss,
/// nothing waits), so the oracle need not follow the tier call by call.
struct Oracle(PlanServer);

impl Oracle {
    fn new(bench: &mut Bench) -> Oracle {
        let mut server = PlanServer::new(bench.deco.clone(), bench.cfg.clone());
        // Same keys as the tier's warm trace; Set slots never consume
        // fresh ids, so this changes nothing the tier will see.
        let (warm, _) = bench.warm_trace();
        server.serve_trace(&warm, SERVER_WORKERS);
        Oracle(server)
    }

    fn digest(&mut self, trace: &ArrivalTrace) -> u64 {
        stream_digest(&self.0.serve_trace(trace, SERVER_WORKERS).0)
    }
}

/// The tier of one run, built by set-up.
// One value per run; boxing the supervisor would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Built {
    Server(PlanServer),
    Sharded(ShardedServer, PathBuf),
    Journaled(Journaled, PathBuf, PathBuf),
}

impl Built {
    fn tier(&mut self) -> &mut dyn Tier {
        match self {
            Built::Server(s) => s,
            Built::Sharded(s, _) => s,
            Built::Journaled(s, _, _) => s,
        }
    }
}

/// Set-up: engine, trace plan, shapes, tier spawn and pre-warm — all of
/// what happens before a timed pass.
fn build(kind: Kind, seed: u64, attempt: usize) -> (Bench, Built, Served, Vec<KeySpec>) {
    let mut bench = Bench::new(kind, seed);
    let mut built = match kind {
        Kind::Warm | Kind::Churn => {
            Built::Server(PlanServer::new(bench.deco.clone(), bench.cfg.clone()))
        }
        Kind::ShardWal => {
            let dir = scratch_dir(&format!("wal-{attempt}"));
            let tier =
                ShardedServer::new(bench.deco.clone(), shard_config(&bench.cfg, dir.clone()))
                    .expect("the sharded tier opens its stores under out/");
            Built::Sharded(tier, dir)
        }
        Kind::Journal => {
            let persist = scratch_dir(&format!("persist-{attempt}"));
            let journal = scratch_dir(&format!("journal-{attempt}"));
            let tier = ShardSupervisor::new(
                bench.deco.clone(),
                supervise_config(&bench.cfg, persist.clone(), Some(journal.clone())),
            )
            .expect("the supervisor spawns its shard workers");
            Built::Journaled(Journaled(tier), persist, journal)
        }
    };
    let (warm, specs) = bench.warm_trace();
    let warmed = Bench::timed(built.tier(), &warm);
    (bench, built, warmed, specs)
}

pub fn run(args: &RunArgs) -> (Outcome, Option<Tracer>) {
    let kind = Kind::of(&args.workload);
    let mut out = Outcome::default();
    let mut attempt = 0;
    let ((mut bench, mut built, warmed, warm_specs), setup_walls) = sampled_setup(|| {
        attempt += 1;
        build(kind, args.seed, attempt)
    });
    out.set_median("setup_s", &setup_walls);
    bench.verify("pre-warm", &warm_specs, &warmed, &mut out);
    bench.warmed = true;

    if args.trace {
        let tracer = traced(args, &mut bench, built, &mut out);
        return (out, Some(tracer));
    }
    let (bulk_share, interactive_share, recover_share) = kind.shares();
    let n = bench.plan.len();

    // --- bulk: one call over the whole trace --------------------------
    let mut last_bulk: Option<(ArrivalTrace, Served)> = None;
    let rates = timed_passes(args.phase(bulk_share), 3, |_| {
        let slots = bench.plan.slots.clone();
        let (trace, specs) = bench.trace(&slots);
        let got = Bench::timed(built.tier(), &trace);
        bench.verify("bulk", &specs, &got, &mut out);
        out.attempted += n as u64;
        let rate = n as f64 / got.wall_s;
        last_bulk = Some((trace, got));
        rate
    });
    out.set_median("req_per_s", &rates);
    let (bulk_trace, bulk) = last_bulk.expect("at least one bulk pass ran");

    // --- interactive: single-cycle calls on the same warm tier --------
    let mut last_cycles: Vec<(ArrivalTrace, u64)> = Vec::new();
    let (cycles, min_passes) = kind.interactive();
    let tail = supported_tail(cycles * min_passes).expect("every run pools at least 40 calls");
    let passes = timed_passes(args.phase(interactive_share), min_passes, |_| {
        last_cycles.clear();
        let mut walls = Vec::with_capacity(cycles);
        for _ in 0..cycles {
            let (trace, specs) = bench.next_cycle();
            let got = Bench::timed(built.tier(), &trace);
            bench.verify("interactive", &specs, &got, &mut out);
            walls.push(got.wall_s * 1e3);
            last_cycles.push((trace, stream_digest(&got.responses)));
        }
        out.attempted += (cycles * PER_TICK) as u64;
        walls
    });
    let calls: Vec<f64> = passes.into_iter().flatten().collect();
    out.set("call_p50_ms", percentile(&calls, 0.5));
    out.set("call_tail_ms", percentile(&calls, tail));
    out.note(
        "interactive",
        Json::obj([
            ("calls", Json::Num(calls.len() as f64)),
            ("tail_percentile", Json::Num(tail)),
            (
                "samples_beyond_tail",
                Json::Num((calls.len() as f64 * (1.0 - tail)).floor()),
            ),
            ("summary_ms", crate::sampling::Summary::of(&calls).to_json()),
        ]),
    );

    quality_metrics(&bench, &mut out);

    // --- the tiers' streams against the PlanServer oracle -------------
    let mut oracle =
        matches!(kind, Kind::ShardWal | Kind::Journal).then(|| Oracle::new(&mut bench));
    if let Some(oracle) = oracle.as_mut() {
        out.checks.that(
            oracle.digest(&bulk_trace) == stream_digest(&bulk.responses),
            || "bulk: the tier's response stream differs from the PlanServer oracle's".into(),
        );
        let differing = last_cycles
            .iter()
            .filter(|(trace, digest)| oracle.digest(trace) != *digest)
            .count();
        out.checks.that(differing == 0, || {
            format!("interactive: {differing} cycles differ from the PlanServer oracle's")
        });
    }
    drop((bulk_trace, bulk, last_cycles));

    // --- recover: cold start to the first answer ----------------------
    match built {
        Built::Server(_) => out.set_stateless_recover_ms(),
        Built::Sharded(tier, dir) => {
            let walls = recover_sharded(args, &mut bench, tier, dir, recover_share, &mut out);
            out.set_median("recover_ms", &walls);
        }
        Built::Journaled(tier, persist, journal) => {
            let oracle = oracle.as_mut().expect("the journaled tier has an oracle");
            let budget = Some(args.phase(recover_share));
            let (walls, _) = takeovers(
                &mut bench, tier.0, persist, journal, budget, oracle, &mut out,
            );
            out.set_median("recover_ms", &walls);
        }
    }
    (out, None)
}

/// `plan_cost_usd` and `deadline_hit_rate`: one served plan per (shape,
/// deadline bucket) cell of the catalog. Every run asks for all 64 cells
/// whatever the seed, so both are properties of the engine and not of
/// the request sequence.
fn quality_metrics(bench: &Bench, out: &mut Outcome) {
    let cells = &bench.cell_plans;
    let all = bench.mat.shapes().len() * BUCKETS;
    out.checks.that(cells.len() == all, || {
        format!(
            "the run served plans for {} of the catalog's {all} cells",
            cells.len()
        )
    });
    if cells.is_empty() {
        out.set("plan_cost_usd", f64::NAN);
        out.set("deadline_hit_rate", f64::NAN);
        return;
    }
    out.set(
        "plan_cost_usd",
        cells.values().map(|p| p.evaluation.objective).sum::<f64>() / cells.len() as f64,
    );

    // Execute every fourth cell's plan against the deadline its requests
    // ask for.
    let spec = &bench.deco.store.spec;
    let (mut met, mut runs) = (0usize, 0usize);
    let step = (cells.len() / EXECUTED_PLANS).max(1);
    for (i, (&(shape, bucket), plan)) in cells.iter().step_by(step).enumerate() {
        let deadline = bench.mat.deadline(shape, bucket);
        let workflow = &bench.mat.shapes()[shape as usize];
        let (makespans, _) = run_plan_many(spec, workflow, &plan.plan, EXECUTIONS, i as u64 + 1);
        met += makespans.iter().filter(|&&m| m <= deadline).count();
        runs += makespans.len();
    }
    let hit_rate = met as f64 / runs as f64;
    out.set("deadline_hit_rate", hit_rate);
    let floor = crate::harness::PERCENTILE - 0.05;
    out.checks.that(hit_rate >= floor, || {
        format!("deadline hit rate {hit_rate:.3} is below the floor {floor:.2}")
    });
}

/// The sharded tier restarts over the WAL its run left: engine build,
/// snapshot + WAL replay, and a first cycle that must be all warm.
fn recover_sharded(
    args: &RunArgs,
    bench: &mut Bench,
    tier: ShardedServer,
    dir: PathBuf,
    share: f64,
    out: &mut Outcome,
) -> Vec<f64> {
    // Restart from the same store state whatever the run did before:
    // freshly compacted snapshots plus half a compaction period of WAL.
    let mut tier = tier;
    for shard in 0..SHARDS {
        tier.compact_shard(shard);
    }
    for _ in 0..(SNAPSHOT_EVERY as usize / 2) / PER_TICK {
        let (trace, specs) = bench.next_cycle();
        let got = Bench::timed(&mut tier, &trace);
        bench.verify("pre-restart", &specs, &got, out);
    }
    let entries = tier.cache_len();
    drop(tier); // the process "exits": stores closed
    let image = DirImage::capture(&dir).expect("the tier's store directory is readable");
    let config = shard_config(&bench.cfg, dir);
    let first = bench.plan.first_cycle_slots();
    timed_passes(args.phase(share), 7, |_| {
        let (trace, _) = bench.trace(&first);
        // Answering appends to the WAL; put the store back first.
        image.restore().expect("the store directory is writable");
        let t = Instant::now();
        let restarted = ShardedServer::new(serving_engine(), config.clone());
        let answered = restarted.map(|mut tier| {
            let (responses, stats) = tier.call(&trace);
            (
                tier.shard_stats().recovered_entries,
                responses.len(),
                stats.hits,
            )
        });
        let ms = ms_since(t);
        out.checks.that(
            matches!(answered, Ok((e, len, hits))
                if e as usize == entries && len == PER_TICK && hits == PER_TICK as u64),
            || {
                format!(
                    "restart: expected {entries} recovered entries and {PER_TICK} warm answers, \
                     got {answered:?}"
                )
            },
        );
        ms
    })
}

/// Standby takeovers of the journaled tier: the primary halts mid-trace
/// right after a commit, is abandoned, and a standby recovers from the
/// journal. The first answer after the crash is the re-emitted committed
/// cycle, available the moment `recover` returns — so that is what is
/// timed (engine build included). The standby then finishes the trace
/// and the spliced stream is compared with the oracle's.
///
/// Returns the recover walls (ms) and the journal frames the last
/// recovery folded. With `budget: None` exactly one drill runs.
fn takeovers(
    bench: &mut Bench,
    mut primary: ShardSupervisor,
    persist: PathBuf,
    journal: PathBuf,
    budget: Option<std::time::Duration>,
    oracle: &mut Oracle,
    out: &mut Outcome,
) -> (Vec<f64>, u64) {
    let config = supervise_config(&bench.cfg, persist, Some(journal));
    let slots = bench.plan.slots[..TAKEOVER_REQUESTS.min(bench.plan.len())].to_vec();
    // Each drill returns its recover wall (ms) and the journal frames the
    // standby folded.
    let mut drill = |bench: &mut Bench, out: &mut Outcome| -> (f64, u64) {
        let (trace, _) = bench.trace(&slots);
        let mut lines: Vec<String> = Vec::with_capacity(slots.len());
        let session = SuperviseSession {
            supervisor: SupervisorFaultPlan::halt_at_cycles([TAKEOVER_HALT_CYCLE]),
            ..SuperviseSession::default()
        };
        let (_, _, halted) = primary.serve_trace_journaled(&trace, &session, None, &mut |_, r| {
            lines.push(r.canonical_line())
        });
        out.checks.that(halted, || {
            "takeover: the primary did not halt mid-trace".into()
        });
        primary.abandon();

        let t = Instant::now();
        let recovered = ShardSupervisor::recover(serving_engine(), config.clone(), &[]);
        let ms = ms_since(t);
        let (standby, run) = match recovered {
            Ok((standby, Some(run))) => (standby, run),
            Ok((_, None)) | Err(_) => {
                out.checks.that(false, || {
                    "takeover: the standby found no sealed cycle".into()
                });
                return (ms, 0);
            }
        };
        // Re-emit what the primary committed but never printed.
        let printed = lines.len() as u64;
        for (i, line) in run.lines.iter().enumerate() {
            if run.lines_start + i as u64 >= printed {
                lines.push(line.clone());
            }
        }
        let replayed = lines.len() as u64 - printed;
        primary = standby;
        let frames = primary.stats().journal_frames_recovered;
        let (_, stats, halted) = primary.serve_trace_journaled(
            &trace,
            &SuperviseSession::default(),
            Some(run.checkpoint),
            &mut |_, r| lines.push(r.canonical_line()),
        );
        out.attempted += slots.len() as u64;
        out.checks.that(
            !halted && stats.planned as usize == slots.len() && lines.len() == slots.len(),
            || {
                format!(
                    "takeover: {} lines ({replayed} re-emitted) and {} planned for {} requests",
                    lines.len(),
                    stats.planned,
                    slots.len()
                )
            },
        );
        out.checks
            .that(lines_digest(&lines) == oracle.digest(&trace), || {
                "takeover: the spliced stream differs from the PlanServer oracle's".into()
            });
        (ms, frames)
    };
    let drills = match budget {
        Some(budget) => timed_passes(budget, 3, |_| drill(bench, out)),
        None => vec![drill(bench, out)],
    };
    let frames = drills.last().map_or(0, |d| d.1);
    (drills.into_iter().map(|d| d.0).collect(), frames)
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// Per-pass span totals of one traced bulk call.
struct TracedPass {
    wall_s: f64,
    call_s: f64,
    get_s: f64,
    insert_s: f64,
    solve_s: f64,
    boundary_s: f64,
    other_s: f64,
    stats: ServeStats,
    solver: Vec<SearchStats>,
}

fn traced_call<B: ServeBackend>(
    backend: &mut B,
    trace: &ArrivalTrace,
    workers: usize,
    keep: usize,
    pass: u64,
) -> (Served, Tracer) {
    let mut wrapped = TracedBackend::new(backend, Tracer::new(keep));
    let t = Instant::now();
    let (responses, stats) = wrapped.traced_call(pass, |b| {
        serve_trace_backend(b, trace, workers, &ServeSession::default())
    });
    let wall_s = t.elapsed().as_secs_f64();
    (
        Served {
            wall_s,
            responses,
            stats,
        },
        wrapped.into_tracer(),
    )
}

fn traced(args: &RunArgs, bench: &mut Bench, built: Built, out: &mut Outcome) -> Tracer {
    let kind = bench.kind;
    out.set("workflow.gen_ms", bench.gen_ms);
    out.set(
        "workflow.tasks",
        bench.mat.shapes().iter().map(|w| w.len()).sum::<usize>() as f64,
    );
    out.set("cloud.metadata.build_ms", layers::metadata_build_ms());

    let (passes, file_tracer, sample) = match built {
        Built::Server(mut server) => {
            traced_passes(args, bench, &mut server, SERVER_WORKERS, 0.6, out)
        }
        Built::Sharded(mut tier, dir) => {
            let r = traced_passes(args, bench, &mut tier, WORKERS_PER_SHARD, 0.6, out);
            drop(tier);
            // The store layer's own recovery, on what the passes left.
            let t = Instant::now();
            for shard in 0..SHARDS {
                let recovered = PlanStore::open(&dir.join(format!("shard-{shard}")))
                    .and_then(|mut s| s.recover());
                out.checks.that(recovered.is_ok(), || {
                    format!("store recovery of shard {shard} failed: {recovered:?}")
                });
            }
            out.set("serve.store.recover_ms", ms_since(t));
            r
        }
        Built::Journaled(tier, persist, journal) => {
            journaled_layers(args, bench, tier, persist, journal, out);
            // The process-boundary spans come from a journal-off
            // supervisor: `serve_trace_journaled` builds its backend
            // privately, so only the plain supervisor can be wrapped.
            let persist = scratch_dir("persist-traced");
            let mut sup = ShardSupervisor::new(
                bench.deco.clone(),
                supervise_config(&bench.cfg, persist, None),
            )
            .expect("the supervisor spawns its shard workers");
            bench.model = CacheModel::new(bench.cfg.cache_capacity);
            bench.warmed = false;
            let (warm, specs) = bench.warm_trace();
            let warmed = Bench::timed(&mut sup, &warm);
            bench.verify("pre-warm (journal off)", &specs, &warmed, out);
            bench.warmed = true;
            let r = traced_passes(args, bench, &mut sup, WORKERS_PER_SHARD, 0.4, out);
            out.set("shard.proc.restarts", sup.stats().restarts as f64);
            r
        }
    };

    let med = |f: &dyn Fn(&TracedPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let call_s = med(&|p| p.call_s);
    let (get_s, insert_s, solve_s, boundary_s) = (
        med(&|p| p.get_s),
        med(&|p| p.insert_s),
        med(&|p| p.solve_s),
        med(&|p| p.boundary_s),
    );
    out.set("serve.server.solve_s", solve_s);
    out.set("serve.server.solve_share", solve_s / call_s);
    out.set(
        "serve.server.loop_self_s",
        med(&|p| p.call_s - p.get_s - p.insert_s - p.solve_s - p.boundary_s - p.other_s),
    );
    match kind {
        Kind::Warm | Kind::Churn => {
            out.set("serve.server.backend_get_s", get_s);
            out.set("serve.server.backend_insert_s", insert_s);
        }
        Kind::ShardWal => {
            out.set("shard.server.get_s", get_s);
            out.set("shard.server.insert_s", insert_s);
            out.set("shard.server.boundary_s", boundary_s);
        }
        Kind::Journal => {
            out.set("shard.proc.get_s", get_s);
            out.set("shard.proc.insert_s", insert_s);
            out.set("shard.proc.solve_s", solve_s);
            out.set("shard.proc.boundary_s", boundary_s);
        }
    }

    // Exact counts of one pass (the last: steady state).
    let last = &passes[passes.len() - 1];
    out.set("serve.cache.hit_rate", last.stats.hit_rate());
    out.set("serve.cache.evictions", last.stats.evictions as f64);
    out.set("serve.server.cycles", last.stats.cycles as f64);
    out.set("serve.server.coalesced", last.stats.coalesced as f64);
    let states: usize = last.solver.iter().map(|s| s.states_evaluated).sum();
    out.set("solver.states", states as f64);
    out.set(
        "solver.batches",
        last.solver.iter().map(|s| s.batches).sum::<usize>() as f64,
    );
    out.set(
        "gpusim.model_ticks",
        last.solver.iter().map(|s| s.budget_spent).sum::<f64>(),
    );
    let search_s = med(&|p| p.solver.iter().map(|s| s.wall_seconds).sum());
    let eval_s = med(&|p| p.solver.iter().map(|s| s.host_eval_seconds).sum());
    if search_s > 0.0 {
        out.set("solver.states_per_s", states as f64 / search_s);
        out.set("solver.self_s", search_s - eval_s);
        out.set("core.estimate.eval_s", eval_s);
        out.set("core.estimate.eval_share", eval_s / search_s);
        out.set(
            "core.supervisor.plan_ms",
            search_s / last.solver.len().max(1) as f64 * 1e3,
        );
    }

    // Unit costs of the layers this workload crosses.
    let (request, response, plan) = sample;
    layers::serve_units(
        out,
        &bench.deco,
        &request,
        &response,
        &plan,
        bench.cfg.cache_capacity,
    );
    match kind {
        Kind::Warm => {}
        Kind::Churn => {
            let wf = &request.workflow;
            layers::prob(out);
            layers::estimate(out, &bench.deco, wf, request.deadline);
        }
        Kind::ShardWal => {
            layers::codec(out, &plan, &request.workflow);
            layers::store_units(out, &plan);
            layers::router(out, SHARDS);
            let (touch, put, del) = layers::wal_frame_bytes(&plan);
            let s = &last.stats;
            let bytes = s.hits as f64 * touch + s.misses as f64 * put + s.evictions as f64 * del;
            out.set("serve.store.wal_bytes_per_req", bytes / s.requests as f64);
        }
        Kind::Journal => {
            layers::codec(out, &plan, &request.workflow);
            layers::router(out, SHARDS);
            layers::wire_units(out, &plan);
        }
    }
    file_tracer
}

/// Bulk passes over `backend`, bare and wrapped alternately. Returns the
/// traced passes' totals, the first traced pass's spans for the trace
/// file, and one (request, response, plan) to cost the layers on.
fn traced_passes<B: ServeBackend + Tier>(
    args: &RunArgs,
    bench: &mut Bench,
    backend: &mut B,
    workers: usize,
    share: f64,
    out: &mut Outcome,
) -> (
    Vec<TracedPass>,
    Tracer,
    (deco_serve::PlanRequest, PlanResponse, SupervisedPlan),
) {
    let n = bench.plan.len();
    let mut file_tracer: Option<Tracer> = None;
    let mut sample = None;
    // One bare call, then one wrapped call, per pass: drift hits both.
    let (bare, spanned): (Vec<f64>, Vec<TracedPass>) = timed_passes(args.phase(share), 2, |pass| {
        let slots = bench.plan.slots.clone();
        let (trace, specs) = bench.trace(&slots);
        let got = Bench::timed(&mut *backend, &trace);
        bench.verify("bulk (bare)", &specs, &got, out);
        let bare_s = got.wall_s;

        let (trace, specs) = bench.trace(&slots);
        // Retain spans of the first timed pass only; totals always.
        let keep = if pass == 1 { 1 << 16 } else { 0 };
        let (got, tracer) = traced_call(&mut *backend, &trace, workers, keep, pass as u64);
        bench.verify("bulk (traced)", &specs, &got, out);
        out.attempted += 2 * n as u64;
        if sample.is_none() {
            sample = got.responses.iter().find_map(|r| {
                served(r).filter(|p| p.source == PlanSource::Cold).map(|p| {
                    (
                        trace.arrivals()[r.seq as usize].request.clone(),
                        r.clone(),
                        p.plan.clone(),
                    )
                })
            });
        }
        let totals = TracedPass {
            wall_s: got.wall_s,
            call_s: tracer.seconds(trace::CALL),
            get_s: tracer.seconds(trace::GET),
            insert_s: tracer.seconds(trace::INSERT),
            solve_s: tracer.seconds(trace::SOLVE),
            boundary_s: tracer.seconds(trace::BOUNDARY),
            other_s: tracer.seconds(trace::BOOKS) + tracer.seconds(trace::COMMIT),
            solver: got
                .responses
                .iter()
                .filter_map(served)
                .filter(|p| p.source == PlanSource::Cold)
                .map(|p| p.plan.plan.stats.clone())
                .collect(),
            stats: got.stats,
        };
        if pass == 1 {
            file_tracer = Some(tracer);
        }
        (bare_s, totals)
    })
    .into_iter()
    .unzip();
    let bare_s = median(&bare);
    let spanned_s = median(&spanned.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    out.set("trace.overhead_frac", (spanned_s - bare_s) / bare_s);
    (
        spanned,
        file_tracer.expect("the first timed pass ran"),
        sample.expect("every bulk pass solves at least one never-cached key"),
    )
}

/// One journaled bulk pass: mean gap between emitted cycles over its
/// first and last 5 %, and the journal traffic it caused.
struct JournaledPass {
    first_us: f64,
    last_us: f64,
    commits: u64,
    appends: u64,
    snapshots: u64,
}

/// What only the journaled supervisor can show: journal traffic per bulk
/// pass, how the gap between emitted cycles grows along a pass, the cost
/// of a commit against the answered count, and one takeover's fold.
fn journaled_layers(
    args: &RunArgs,
    bench: &mut Bench,
    mut tier: Journaled,
    persist: PathBuf,
    journal: PathBuf,
    out: &mut Outcome,
) {
    let n = bench.plan.len();
    let mut lines: Vec<String> = Vec::new();
    let passes = timed_passes(args.phase(0.3), 2, |_| {
        let slots = bench.plan.slots.clone();
        let (trace, specs) = bench.trace(&slots);
        let before = tier.0.stats();
        // Stamp the first emitted response of every cycle.
        let mut stamps: Vec<Instant> = Vec::with_capacity(n / PER_TICK);
        let t = Instant::now();
        let (responses, stats, _) = tier.0.serve_trace_journaled(
            &trace,
            &SuperviseSession::default(),
            None,
            &mut |index, _| {
                if (index as usize).is_multiple_of(PER_TICK) {
                    stamps.push(Instant::now());
                }
            },
        );
        let got = Served {
            wall_s: t.elapsed().as_secs_f64(),
            responses,
            stats,
        };
        bench.verify("bulk (journaled)", &specs, &got, out);
        out.attempted += n as u64;
        let after = tier.0.stats();
        let gaps: Vec<f64> = stamps
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e6)
            .collect();
        let edge = (gaps.len() / 20).max(1);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        if lines.is_empty() {
            lines = got.responses[..PER_TICK]
                .iter()
                .map(|r| r.canonical_line())
                .collect();
        }
        JournaledPass {
            first_us: mean(&gaps[..edge.min(gaps.len())]),
            last_us: mean(&gaps[gaps.len().saturating_sub(edge)..]),
            commits: after.journal_commits - before.journal_commits,
            appends: after.journal_appends - before.journal_appends,
            snapshots: after.journal_snapshots - before.journal_snapshots,
        }
    });
    let col = |f: &dyn Fn(&JournaledPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    out.set("shard.proc.journal.cycle_us_first", col(&|p| p.first_us));
    out.set("shard.proc.journal.cycle_us_last", col(&|p| p.last_us));
    let last = &passes[passes.len() - 1];
    out.set("shard.proc.journal.commits", last.commits as f64);
    out.set("shard.proc.journal.appends", last.appends as f64);
    out.set("shard.proc.journal.snapshots", last.snapshots as f64);
    out.note("journal_dir_bytes", Json::Num(dir_bytes(&journal) as f64));
    layers::journal_commit(out, SHARDS, n, &lines);
    let mut oracle = Oracle::new(bench);
    let (_, frames) = takeovers(bench, tier.0, persist, journal, None, &mut oracle, out);
    out.set("shard.proc.recover_frames", frames as f64);
}
