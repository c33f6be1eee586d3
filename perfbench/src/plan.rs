//! The two planner workloads: a closed loop of sequential plan calls, one
//! client, no serving tier.
//!
//! `plan_large` calls `plan_with_fallback` cold on 1000-task workflows,
//! where the compiled Monte-Carlo evaluator does nearly all the work.
//! `plan_wlog` runs the paper's Example-1 WLog program through
//! `Deco::plan_workflow_wlog` on 3–4 task workflows, where the
//! interpreter does nearly all the work and the compiled evaluator none.

use crate::harness::{engine, plan_digest, CATALOG_SEED, PERCENTILE};
use crate::json::Json;
use crate::layers;
use crate::run::{ms_since, sampled_setup, Outcome, RunArgs};
use crate::sampling::{median, timed_passes};
use crate::trace::Tracer;
use deco_cloud::run_plan_many;
use deco_core::estimate::deadline_anchors;
use deco_core::supervisor::plan_with_fallback;
use deco_core::{Deco, DecoPlan};
use deco_prob::rng::{seeded, splitmix64};
use deco_solver::{EvalBackend, SearchBudget, SearchStats};
use deco_wlog::program::WlogProgram;
use deco_workflow::{generators, Workflow};
use rand::seq::SliceRandom;
use std::time::Instant;

/// Simulated executions per returned plan behind `deadline_hit_rate`.
const EXECUTIONS: usize = 50;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Large,
    Wlog,
}

struct Instance {
    name: String,
    wf: Workflow,
    deadline: f64,
    /// The WLog program text, on `plan_wlog`.
    program: Option<String>,
}

/// What either planner path returns: the plan, and whether it came from a
/// degraded stage of the fallback chain (the WLog path has none).
struct Planned {
    plan: DecoPlan,
    degraded: bool,
}

impl Planned {
    fn full_quality(&self) -> bool {
        self.plan.evaluation.feasible && !self.degraded
    }
}

struct State {
    deco: Deco,
    instances: Vec<Instance>,
    gen_ms: f64,
}

/// The paper's Example 1 (text from `examples/declarative_scheduling.rs`),
/// at the workload's percentile.
fn example1_program(deadline: f64) -> String {
    format!(
        r#"
import(amazonec2).
import(workflow).
minimize Ct in totalcost(Ct).
T in maxtime(Path,T) satisfies deadline({pct}%, {deadline}s).
configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).

/*calculate the time on the edge from X to Y*/
path(X,Y,Y,Tp) :- edge(X,Y), exetime(X,Vid,T),
  configs(X,Vid,Con), Con==1, Tp is T.
/*calculate the time on the path from X to Y, with Z as the next hop*/
path(X,Y,Z,Tp) :- edge(X,Z), Z\==Y, path(Z,Y,Z2,T1),
  exetime(X,Vid,T), configs(X,Vid,Con), Con==1, Tp is T+T1.
/*calculate the time on the critical path from root to tail*/
maxtime(Path,T) :- setof([Z,T1], path(root,tail,Z,T1), Set),
  max(Set, [Path,T]).
/*calculate the cost of Tid executing on Vid*/
cost(Tid,Vid,C) :- price(Vid,Up), exetime(Tid,Vid,T),
  configs(Tid,Vid,Con), C is T*Up*Con.
/*calculate the total cost of all tasks*/
totalcost(Ct) :- findall(C, cost(Tid,Vid,C), Bag), sum(Bag, Ct).
"#,
        pct = (PERCENTILE * 100.0).round()
    )
}

/// The instances are the same for every seed, as the serving traces' shape
/// catalog is: hour-granular billing makes plan cost a step function of
/// task sizes, so seeded instance jitter moved `plan_cost_usd` by 2.5 %
/// between seeds, more than its 1 % bound. The seed draws the order in
/// which a sweep plans them.
fn build(kind: Kind, seed: u64) -> State {
    let (deco, t, wfs) = match kind {
        Kind::Large => {
            // Every instance exhausts `max_states`, so a sweep evaluates
            // the same number of states on every instance.
            let deco = engine(200, 150);
            let t = Instant::now();
            let wfs = vec![
                generators::ligo(1000, CATALOG_SEED),
                generators::montage(8, CATALOG_SEED),
                generators::epigenomics(1000, CATALOG_SEED),
            ];
            (deco, t, wfs)
        }
        Kind::Wlog => {
            // One call's wall varies by ±25 % between sweeps of one run
            // (`plan_large` calls, on the same machine, agree to 3 %), so
            // the search is kept short and the sweeps many.
            let deco = engine(30, 16);
            let t = Instant::now();
            // The example's own three workflows (1200 CPU-s tasks).
            let cpu = 1200.0;
            let wfs = vec![
                generators::pipeline(3, cpu, 64 << 20),
                generators::pipeline(4, cpu, 64 << 20),
                generators::fork_join(2, cpu, (64u64 << 20) as f64),
            ];
            (deco, t, wfs)
        }
    };
    let gen_ms = ms_since(t);
    let spec = deco.store.spec.clone();
    let mut instances: Vec<Instance> = wfs
        .into_iter()
        .flat_map(|wf| {
            let (dmin, dmax) = deadline_anchors(&wf, &spec);
            let medium = 0.5 * (dmin + dmax);
            match kind {
                Kind::Large => vec![("medium", medium), ("tight", 1.5 * dmin)],
                Kind::Wlog => vec![("medium", medium)],
            }
            .into_iter()
            .map(move |(label, deadline)| Instance {
                name: format!("{}/{label}", wf.name),
                program: (kind == Kind::Wlog).then(|| example1_program(deadline)),
                wf: wf.clone(),
                deadline,
            })
        })
        .collect();
    instances.shuffle(&mut seeded(splitmix64(seed ^ 0x706c_616e)));
    State {
        deco,
        instances,
        gen_ms,
    }
}

fn plan_one(deco: &Deco, inst: &Instance) -> Result<Planned, String> {
    match &inst.program {
        None => plan_with_fallback(
            deco,
            &inst.wf,
            inst.deadline,
            PERCENTILE,
            &SearchBudget::unlimited(),
        )
        .map(|p| Planned {
            degraded: p.provenance.degraded(),
            plan: p.plan,
        })
        .map_err(|e| e.to_string()),
        Some(src) => deco
            .plan_workflow_wlog(src, &inst.wf, &EvalBackend::SeqCpu)
            .map(|plan| Planned {
                plan,
                degraded: false,
            })
            .map_err(|e| e.to_string()),
    }
}

/// One sweep: every instance planned once, in order.
struct Sweep {
    wall_s: f64,
    call_ms: Vec<f64>,
    plans: Vec<Result<Planned, String>>,
}

fn sweep(state: &State, mut tracer: Option<&mut Tracer>) -> Sweep {
    let t0 = Instant::now();
    let mut call_ms = Vec::with_capacity(state.instances.len());
    let mut plans = Vec::with_capacity(state.instances.len());
    for (i, inst) in state.instances.iter().enumerate() {
        if let Some(t) = tracer.as_deref_mut() {
            t.enter("plan.call", i as u64);
        }
        let t = Instant::now();
        plans.push(plan_one(&state.deco, inst));
        call_ms.push(ms_since(t));
        if let Some(t) = tracer.as_deref_mut() {
            t.exit();
        }
    }
    Sweep {
        wall_s: t0.elapsed().as_secs_f64(),
        call_ms,
        plans,
    }
}

pub fn run(args: &RunArgs) -> (Outcome, Option<Tracer>) {
    let kind = if args.workload == "plan_large" {
        Kind::Large
    } else {
        Kind::Wlog
    };
    let mut out = Outcome::default();
    let (state, setup_walls) = sampled_setup(|| build(kind, args.seed));
    out.set_median("setup_s", &setup_walls);

    if args.trace {
        let tracer = traced(kind, args, &state, &mut out);
        return (out, Some(tracer));
    }

    // Throughput and latency: sweeps until the budget is spent.
    let sweeps = timed_passes(args.phase(1.0), 3, |_| sweep(&state, None));
    let n = state.instances.len();
    out.attempted = (sweeps.len() * n) as u64;
    let rates: Vec<f64> = sweeps.iter().map(|s| n as f64 / s.wall_s).collect();
    out.set_median("req_per_s", &rates);
    let per_instance: Vec<f64> = (0..n)
        .map(|i| median(&sweeps.iter().map(|s| s.call_ms[i]).collect::<Vec<_>>()))
        .collect();
    out.set("call_p50_ms", median(&per_instance));
    // A handful of calls a sweep support no percentile (ten samples
    // beyond it): the tail here is the slowest instance's median call.
    out.set(
        "call_tail_ms",
        per_instance.iter().copied().fold(0.0, f64::max),
    );
    out.set_stateless_recover_ms();
    out.note(
        "instances",
        Json::Arr(
            state
                .instances
                .iter()
                .zip(&per_instance)
                .map(|(inst, ms)| {
                    Json::obj([
                        ("name", Json::str(inst.name.clone())),
                        ("tasks", Json::Num(inst.wf.len() as f64)),
                        ("deadline_s", Json::Num(inst.deadline)),
                        ("median_ms", Json::Num(*ms)),
                    ])
                })
                .collect(),
        ),
    );

    check_sweeps(&state, &sweeps, &mut out);
    (out, None)
}

/// Output checks on the timed sweeps, plus the two quality metrics.
fn check_sweeps(state: &State, sweeps: &[Sweep], out: &mut Outcome) {
    let spec = &state.deco.store.spec;
    for s in sweeps {
        for (inst, p) in state.instances.iter().zip(&s.plans) {
            match p {
                Ok(p) if p.full_quality() => {}
                Ok(p) => {
                    out.failed += 1;
                    eprintln!(
                        "{}: not a full-quality plan (feasible={}, degraded={})",
                        inst.name, p.plan.evaluation.feasible, p.degraded
                    );
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("{}: plan call failed: {e}", inst.name);
                }
            }
        }
    }
    // Plans are a pure function of (workflow, deadline, engine): every
    // sweep must return the first sweep's bytes.
    let digests = |s: &Sweep| -> Vec<Option<u64>> {
        s.plans
            .iter()
            .map(|p| p.as_ref().ok().map(|p| plan_digest(&p.plan)))
            .collect()
    };
    let first = digests(&sweeps[0]);
    out.checks
        .that(sweeps.iter().all(|s| digests(s) == first), || {
            "plans differ between sweeps of the same instances".into()
        });

    let last = &sweeps[sweeps.len() - 1];
    let planned: Vec<(&Instance, &Planned)> = state
        .instances
        .iter()
        .zip(&last.plans)
        .filter_map(|(i, p)| p.as_ref().ok().map(|p| (i, p)))
        .collect();
    out.checks.that(!planned.is_empty(), || {
        "no instance of the sweep returned a plan".into()
    });
    if planned.is_empty() {
        out.set("plan_cost_usd", f64::NAN);
        out.set("deadline_hit_rate", f64::NAN);
        return;
    }
    out.set(
        "plan_cost_usd",
        planned
            .iter()
            .map(|(_, p)| p.plan.evaluation.objective)
            .sum::<f64>()
            / planned.len() as f64,
    );
    let (mut met, mut runs) = (0usize, 0usize);
    for (i, (inst, p)) in planned.iter().enumerate() {
        let (makespans, _) = run_plan_many(spec, &inst.wf, &p.plan.plan, EXECUTIONS, i as u64 + 1);
        met += makespans.iter().filter(|&&m| m <= inst.deadline).count();
        runs += makespans.len();
    }
    let hit_rate = met as f64 / runs as f64;
    out.set("deadline_hit_rate", hit_rate);
    out.checks.that(hit_rate >= PERCENTILE - 0.05, || {
        format!(
            "deadline hit rate {hit_rate:.3} is below the floor {:.2}",
            PERCENTILE - 0.05
        )
    });
}

/// The traced run: sweeps with a span around each plan call, interleaved
/// with bare sweeps for the overhead, then the unit costs of the layers
/// this workload crosses.
fn traced(kind: Kind, args: &RunArgs, state: &State, out: &mut Outcome) -> Tracer {
    let mut tracer = Tracer::new(1 << 16);
    let (bare, spanned): (Vec<Sweep>, Vec<Sweep>) = timed_passes(args.phase(0.8), 2, |_| {
        (sweep(state, None), sweep(state, Some(&mut tracer)))
    })
    .into_iter()
    .unzip();
    let n = state.instances.len();
    out.attempted = ((bare.len() + spanned.len()) * n) as u64;
    check_sweeps(state, &spanned, out);
    let wall = |ss: &[Sweep]| median(&ss.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    out.set(
        "trace.overhead_frac",
        (wall(&spanned) - wall(&bare)) / wall(&bare),
    );

    // Counts come from one sweep (they repeat exactly); times are medians
    // over the traced sweeps of the per-sweep sums.
    let stats_of = |s: &Sweep| -> Vec<SearchStats> {
        s.plans
            .iter()
            .filter_map(|p| p.as_ref().ok().map(|p| p.plan.stats.clone()))
            .collect()
    };
    let one = stats_of(&spanned[0]);
    let states: usize = one.iter().map(|s| s.states_evaluated).sum();
    out.set("solver.states", states as f64);
    out.set(
        "solver.batches",
        one.iter().map(|s| s.batches).sum::<usize>() as f64,
    );
    out.set(
        "gpusim.model_ticks",
        one.iter().map(|s| s.budget_spent).sum::<f64>(),
    );
    let sum_over = |f: &dyn Fn(&SearchStats) -> f64| -> f64 {
        median(
            &spanned
                .iter()
                .map(|s| stats_of(s).iter().map(f).sum::<f64>())
                .collect::<Vec<_>>(),
        )
    };
    let search_s = sum_over(&|s| s.wall_seconds);
    let eval_s = sum_over(&|s| s.host_eval_seconds);
    let call_s = median(
        &spanned
            .iter()
            .map(|s| s.call_ms.iter().sum::<f64>() * 1e-3)
            .collect::<Vec<_>>(),
    );
    out.set("solver.states_per_s", states as f64 / search_s);
    out.set("solver.self_s", search_s - eval_s);
    out.set(
        "core.supervisor.plan_ms",
        median(
            &spanned
                .iter()
                .flat_map(|s| s.call_ms.iter().copied())
                .collect::<Vec<_>>(),
        ),
    );
    out.set("workflow.gen_ms", state.gen_ms);
    out.set(
        "workflow.tasks",
        state.instances.iter().map(|i| i.wf.len()).sum::<usize>() as f64,
    );
    out.set("cloud.metadata.build_ms", layers::metadata_build_ms());

    let mc_iters = state.deco.options.mc_iters;
    match kind {
        Kind::Large => {
            let draws: usize = state
                .instances
                .iter()
                .zip(&one)
                .map(|(i, s)| s.states_evaluated * mc_iters * i.wf.len())
                .sum();
            out.set("prob.rng.draws", draws as f64);
            out.set("core.estimate.eval_s", eval_s);
            out.set("core.estimate.eval_share", eval_s / call_s);
            layers::prob(out);
            let first = &state.instances[0];
            layers::estimate(out, &state.deco, &first.wf, first.deadline);
        }
        Kind::Wlog => {
            // One goal query plus one per constraint, per realization.
            let queries_per_iter = 2;
            out.set("wlog.states", states as f64);
            out.set(
                "wlog.queries",
                (states * mc_iters * queries_per_iter) as f64,
            );
            let parse_s: f64 = state
                .instances
                .iter()
                .filter_map(|i| i.program.as_deref())
                .map(|src| {
                    crate::sampling::unit_cost_secs(
                        || {
                            let _ = std::hint::black_box(
                                WlogProgram::parse(src).map(|p| p.validate().is_ok()),
                            );
                        },
                        5,
                        std::time::Duration::from_millis(40),
                    )
                })
                .sum();
            out.set("wlog.parser.parse_us", parse_s / n as f64 * 1e6);
            out.set(
                "wlog.state_eval_ms",
                (call_s - parse_s) / states as f64 * 1e3,
            );
        }
    }
    tracer
}
