//! Pinned outcomes of the declarative (WLog) planning path.
//!
//! `Deco::plan_workflow_wlog` runs the paper's Example 1 through the WLog
//! interpreter and the Monte-Carlo evaluator of the probabilistic IR. This
//! test folds the outcome of every run over a fixed grid — the chosen
//! types, the objective and margin bits, feasibility, and the state and
//! batch counts — into one `StableHasher` digest and compares it with a
//! pinned value. A change to what the interpreter derives, in which order
//! it finds solutions, how a realization is sampled or how floating-point
//! sums are taken moves the digest. Timing and device-model tick fields
//! are left out, so every backend must produce the same digest.

use deco::cloud::{CloudSpec, MetadataStore};
use deco::engine::estimate::deadline_anchors;
use deco::engine::{Deco, DecoError, DecoPlan};
use deco::gpu::DeviceSpec;
use deco::prob::hash::StableHasher;
use deco::solver::EvalBackend;
use deco::workflow::{generators, Workflow};
use std::hash::Hasher;

/// Example 1 of the paper at a deadline (seconds) and percentile (%).
fn example1(deadline_secs: f64, percentile: u32) -> String {
    format!(
        r#"
import(amazonec2).
import(workflow).
minimize Ct in totalcost(Ct).
T in maxtime(Path,T) satisfies deadline({percentile}%, {deadline_secs}s).
configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).

path(X,Y,Y,Tp) :- edge(X,Y), exetime(X,Vid,T),
  configs(X,Vid,Con), Con==1, Tp is T.
path(X,Y,Z,Tp) :- edge(X,Z), Z\==Y, path(Z,Y,Z2,T1),
  exetime(X,Vid,T), configs(X,Vid,Con), Con==1, Tp is T+T1.
maxtime(Path,T) :- setof([Z,T1], path(root,tail,Z,T1), Set),
  max(Set, [Path,T]).
cost(Tid,Vid,C) :- price(Vid,Up), exetime(Tid,Vid,T),
  configs(Tid,Vid,Con), C is T*Up*Con.
totalcost(Ct) :- findall(C, cost(Tid,Vid,C), Bag), sum(Bag, Ct).
"#
    )
}

fn engine(mc_iters: usize, max_states: usize) -> Deco {
    let store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 25);
    let mut d = Deco::new(store);
    d.options.mc_iters = mc_iters;
    d.options.search.max_states = max_states;
    d
}

fn medium_deadline(wf: &Workflow, d: &Deco) -> f64 {
    let (dmin, dmax) = deadline_anchors(wf, &d.store.spec);
    0.5 * (dmin + dmax)
}

fn digest_outcome(r: &Result<DecoPlan, DecoError>, h: &mut StableHasher) {
    match r {
        Ok(plan) => {
            h.write_u8(1);
            h.write_usize(plan.types.len());
            for &t in &plan.types {
                h.write_usize(t);
            }
            h.write_u64(plan.evaluation.objective.to_bits());
            h.write_u64(plan.evaluation.constraint_margin.to_bits());
            h.write_u8(plan.evaluation.feasible as u8);
            h.write_usize(plan.stats.states_evaluated);
            h.write_usize(plan.stats.batches);
        }
        Err(e) => {
            h.write_u8(0);
            h.write(e.to_string().as_bytes());
        }
    }
}

#[test]
fn wlog_plan_outcomes_are_pinned() {
    let cpu = 1200.0;
    let workflows = [
        generators::pipeline(3, cpu, 64 << 20),
        generators::pipeline(4, cpu, 64 << 20),
        generators::fork_join(2, cpu, (64u64 << 20) as f64),
    ];
    let backends = [
        EvalBackend::SeqCpu,
        EvalBackend::ParCpu(2),
        EvalBackend::SimGpu(DeviceSpec::k40()),
    ];
    let mut h = StableHasher::new();
    for wf in &workflows {
        for mc_iters in [8usize, 30] {
            for max_states in [16usize, 60] {
                let d = engine(mc_iters, max_states);
                let src = example1(medium_deadline(wf, &d), 90);
                // Each backend must land on the same outcome, so all three
                // fold into the digest one after another.
                for backend in &backends {
                    digest_outcome(&d.plan_workflow_wlog(&src, wf, backend), &mut h);
                }
            }
        }
    }

    // The A* program and the infeasible deadline of the engine's own
    // tests.
    let d = engine(40, 400);
    let wf = generators::pipeline(2, 600.0, 0);
    let src = format!(
        "{}\nenabled(astar).\ncal_g_score(C) :- totalcost(C).\nest_h_score(C) :- totalcost(C).\n",
        example1(medium_deadline(&wf, &d), 90)
    );
    digest_outcome(
        &d.plan_workflow_wlog(&src, &wf, &EvalBackend::SeqCpu),
        &mut h,
    );
    let wf = generators::pipeline(2, 900.0, 0);
    let infeasible = d.plan_workflow_wlog(&example1(1.0, 99), &wf, &EvalBackend::SeqCpu);
    assert!(matches!(infeasible, Err(DecoError::Infeasible(_))));
    digest_outcome(&infeasible, &mut h);

    assert_eq!(
        h.finish(),
        0x71aa_7e8f_d07e_8c06,
        "WLog plan outcomes moved: the interpreter or the Monte-Carlo \
         evaluator changed what it derives, samples or sums"
    );
}
