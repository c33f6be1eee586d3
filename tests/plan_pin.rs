//! Pinned plan timing.
//!
//! The packers (`Plan::packed`, `Plan::packed_deadline`), the mean-time
//! scorer (`mean_schedule`), the sampled reference (`sampled_schedule`,
//! `mc_evaluate_plan_reference`), the compiled kernel (`mc_evaluate_plan`)
//! and the execution engine (`run_plan`, `Simulation::with_disruptions`)
//! each apply the same transfer rule, span bill and list-schedule walk.
//! This test folds every one of their outputs over a fixed grid into one
//! `StableHasher` digest, all floats as raw bits, and compares it with a
//! pinned value. Any change to how a plan is packed, timed or billed
//! changes the digest.
//!
//! The grid: six workflow shapes with non-zero edge bytes, four type
//! vectors each (all cheapest, all priciest, mixed, strided), and per
//! vector the plain packing, the deadline packing at five deadlines from
//! 1 s (unachievable) to 1e9 s (unbounded), a copy of the mid-deadline
//! plan with every other slot moved to region 1 (so cross-region edges
//! are timed and billed), and one slot per task.
//!
//! A second digest pins the packers alone at planning scale: 1000-task
//! Ligo and Epigenomics and Montage-8, where a packing walk opens hundreds
//! of slots.

use deco::cloud::plan::{mean_schedule, slot_visits_on_this_thread, MeanSchedule};
use deco::cloud::sim::{run_plan, RunResult, Simulation};
use deco::cloud::{CloudSpec, DisruptionSchedule, MetadataStore, Plan};
use deco::engine::estimate::{
    deadline_anchors, mc_evaluate_plan, mc_evaluate_plan_reference, sampled_schedule,
    ExecTimeTable, McEval,
};
use deco::prob::hash::StableHasher;
use deco::prob::rng::seeded;
use deco::workflow::{generators, Workflow};
use std::hash::Hasher;

const MB: f64 = 1024.0 * 1024.0;

fn workflows() -> Vec<Workflow> {
    vec![
        generators::montage(1, 7),
        generators::ligo(20, 7),
        generators::epigenomics(24, 7),
        generators::random_dag(14, 0.3, 7),
        generators::fork_join(5, 300.0, 64.0 * MB),
        generators::pipeline(5, 200.0, 32 * 1024 * 1024),
    ]
}

fn type_vectors(n: usize, spec: &CloudSpec) -> Vec<Vec<usize>> {
    let k = spec.k();
    vec![
        vec![spec.cheapest_type(); n],
        vec![spec.priciest_type(); n],
        (0..n).map(|i| (i * 7 + i / 3) % k).collect(),
        (0..n).map(|i| i % k).collect(),
    ]
}

fn bits(h: &mut StableHasher, xs: &[f64]) {
    h.write_u64(xs.len() as u64);
    for x in xs {
        h.write_u64(x.to_bits());
    }
}

fn fold_plan(h: &mut StableHasher, plan: &Plan) {
    h.write_u64(plan.slots.len() as u64);
    for s in &plan.slots {
        h.write_u64(s.itype as u64);
        h.write_u64(s.region as u64);
    }
    for &a in &plan.assign {
        h.write_u64(a as u64);
    }
    for &o in &plan.order {
        h.write_u32(o);
    }
}

fn fold_mean(h: &mut StableHasher, m: &MeanSchedule) {
    h.write_u64(m.makespan.to_bits());
    h.write_u64(m.cost.compute.to_bits());
    h.write_u64(m.cost.transfer.to_bits());
    bits(h, &m.finish);
    for span in &m.slot_spans {
        match span {
            None => h.write_u8(0),
            Some((a, b)) => {
                h.write_u8(1);
                h.write_u64(a.to_bits());
                h.write_u64(b.to_bits());
            }
        }
    }
}

fn fold_mc(h: &mut StableHasher, e: &McEval) {
    h.write_u64(e.prob.to_bits());
    h.write_u64(e.mean_cost.to_bits());
    h.write_u64(e.quantile_makespan.to_bits());
}

fn fold_run(h: &mut StableHasher, r: &RunResult) {
    h.write_u64(r.makespan.to_bits());
    h.write_u64(r.cost.compute.to_bits());
    h.write_u64(r.cost.transfer.to_bits());
    bits(h, &r.finish);
    bits(h, &r.durations);
    h.write_u64(r.completed as u64);
    h.write_u64(r.attempts.len() as u64);
}

/// Every plan of one (workflow, type vector) cell, in a fixed order.
fn plans_of(wf: &Workflow, types: &[usize], spec: &CloudSpec) -> Vec<Plan> {
    let (dmin, dmax) = deadline_anchors(wf, spec);
    let mid = 0.5 * (dmin + dmax);
    let mut plans = vec![Plan::packed(wf, types, 0, spec)];
    for d in [1.0, 1.2 * dmin, mid, dmax, 1e9] {
        plans.push(Plan::packed_deadline(wf, types, 0, spec, d));
    }
    let mut cross = Plan::packed_deadline(wf, types, 0, spec, mid);
    for s in cross.slots.iter_mut().skip(1).step_by(2) {
        s.region = 1;
    }
    plans.push(cross);
    plans.push(Plan::one_slot_per_task(types, 0));
    plans
}

fn digest() -> u64 {
    let spec = CloudSpec::amazon_ec2();
    let store = MetadataStore::from_ground_truth(spec.clone(), 25);
    let mut h = StableHasher::new();
    for (wi, wf) in workflows().iter().enumerate() {
        let table = ExecTimeTable::build(wf, &store, 8);
        let (dmin, dmax) = deadline_anchors(wf, &spec);
        h.write_u64(dmin.to_bits());
        h.write_u64(dmax.to_bits());
        let mid = 0.5 * (dmin + dmax);
        for (vi, types) in type_vectors(wf.len(), &spec).iter().enumerate() {
            for (pi, plan) in plans_of(wf, types, &spec).iter().enumerate() {
                let seed = (wi * 100 + vi * 10 + pi) as u64;
                fold_plan(&mut h, plan);
                let mean = mean_schedule(wf, plan, &spec);
                fold_mean(&mut h, &mean);
                let mut rng = seeded(seed);
                for _ in 0..3 {
                    let (makespan, cost) = sampled_schedule(wf, plan, &table, &spec, &mut rng);
                    h.write_u64(makespan.to_bits());
                    h.write_u64(cost.to_bits());
                }
                fold_mc(
                    &mut h,
                    &mc_evaluate_plan_reference(wf, plan, &table, &spec, mid, 0.9, 20, seed),
                );
                fold_mc(
                    &mut h,
                    &mc_evaluate_plan(wf, plan, &table, &spec, mid, 0.9, 20, seed),
                );
                fold_run(&mut h, &run_plan(&spec, wf, plan, seed));
                let mut faults = DisruptionSchedule::empty();
                faults.push_partition(0.1 * mean.makespan, 0.3 * mean.makespan);
                faults.push_partition(0.5 * mean.makespan, 0.6 * mean.makespan);
                let r = Simulation::with_disruptions(&spec, wf, plan.clone(), seeded(seed), faults)
                    .finish();
                fold_run(&mut h, &r);
            }
        }
    }
    h.finish()
}

/// The packings the planner actually asks for at scale: both packers on
/// the pipeline benchmark's three 1000-task-class workflows, every type
/// vector, and the deadline packing at the search's `0.85 ×` safety factor
/// of the medium and tight deadlines plus the two extremes. Only the plans
/// are folded: this pins what the packer returns, not how it is scored.
fn large_packing_digest() -> u64 {
    let spec = CloudSpec::amazon_ec2();
    let mut h = StableHasher::new();
    for wf in [
        generators::ligo(1000, 80),
        generators::montage(8, 80),
        generators::epigenomics(1000, 80),
    ] {
        let (dmin, dmax) = deadline_anchors(&wf, &spec);
        let deadlines = [0.85 * 0.5 * (dmin + dmax), 0.85 * 1.5 * dmin, 1.0, 1e9];
        for types in type_vectors(wf.len(), &spec) {
            fold_plan(&mut h, &Plan::packed(&wf, &types, 0, &spec));
            for d in deadlines {
                fold_plan(&mut h, &Plan::packed_deadline(&wf, &types, 0, &spec, d));
            }
        }
    }
    h.finish()
}

#[test]
fn large_packings_are_pinned() {
    assert_eq!(
        large_packing_digest(),
        PINNED_LARGE,
        "a 1000-task packing moved"
    );
}

/// Slots the packers examined on [`large_packing_digest`]'s grid at the
/// commit before the packer skipped work: every open slot, of every type,
/// for every task. Taken by summing the open-slot count at each slot choice
/// of that commit's packing walk.
const UNSKIPPED_VISITS: u64 = 19_348_755;

#[test]
fn large_packings_visit_a_quarter_of_the_slots_or_fewer() {
    let before = slot_visits_on_this_thread();
    large_packing_digest();
    let visits = slot_visits_on_this_thread() - before;
    assert!(
        visits * 4 <= UNSKIPPED_VISITS,
        "{visits} slot visits, more than a quarter of {UNSKIPPED_VISITS}"
    );
}

#[test]
fn plan_timing_digest_is_pinned() {
    assert_eq!(
        digest(),
        PINNED,
        "packing, mean schedule, sampled reference, kernel or simulator output moved"
    );
}

const PINNED: u64 = 0x4632_dd9a_57f7_1f57;

const PINNED_LARGE: u64 = 0x3af0_04c4_cc1d_8328;
