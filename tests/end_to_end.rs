//! Integration tests spanning the whole stack: DAX intake → scheduling →
//! execution, the WLog path against the typed path, and the baselines in
//! the configurations where the paper says they win or lose.

use deco::cloud::{CloudSpec, MetadataStore};
use deco::engine::estimate::deadline_anchors;
use deco::engine::Deco;
use deco::pegasus::scheduler::{
    AutoscalingScheduler, DecoScheduler, RandomScheduler, Requirements, Scheduler,
};
use deco::pegasus::Pegasus;
use deco::solver::EvalBackend;
use deco::workflow::dax::{emit_dax, parse_dax};
use deco::workflow::generators;

fn store() -> MetadataStore {
    MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 25)
}

#[test]
fn dax_to_execution_full_pipeline() {
    // A user submits a DAX document; the WMS parses, plans with Deco, maps
    // and executes. This is the paper's Figure 3 flow end to end.
    let store = store();
    let original = generators::montage(1, 31);
    let dax_text = emit_dax(&original).expect("emit");
    let wms = Pegasus::new(store);
    let wf = wms.submit_dax(&dax_text).expect("valid DAX");
    assert_eq!(wf.len(), original.len());
    let (dmin, dmax) = deadline_anchors(&wf, &wms.spec);
    let req = Requirements {
        deadline: 0.5 * (dmin + dmax),
        percentile: 0.9,
    };
    let mut sched = DecoScheduler::default();
    sched.options.mc_iters = 50;
    let exe = wms.plan(&wf, &sched, req).expect("feasible");
    let report = wms.execute(&exe, req, "deco", 77);
    assert!(report.cost > 0.0);
    assert!(report.makespan > 0.0);
}

#[test]
fn wlog_and_typed_paths_agree_on_plan_quality() {
    // The declarative interpreter and the compiled evaluator implement the
    // same semantics; on a small chain they must pick plans of the same
    // fractional cost (Equation (1)) for the same requirement.
    let spec = CloudSpec::amazon_ec2();
    let store = MetadataStore::from_ground_truth(spec.clone(), 25);
    let wf = generators::pipeline(3, 1200.0, 64 << 20);
    let (dmin, dmax) = deadline_anchors(&wf, &spec);
    let deadline = 0.5 * (dmin + dmax);

    let mut deco = Deco::new(store);
    deco.options.mc_iters = 80;
    deco.options.search.max_states = 400;

    let program = format!(
        r#"
import(amazonec2).
import(workflow).
minimize Ct in totalcost(Ct).
T in maxtime(Path,T) satisfies deadline(90%, {deadline}s).
configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).
path(X,Y,Y,Tp) :- edge(X,Y), exetime(X,Vid,T), configs(X,Vid,Con), Con==1, Tp is T.
path(X,Y,Z,Tp) :- edge(X,Z), Z\==Y, path(Z,Y,Z2,T1), exetime(X,Vid,T),
  configs(X,Vid,Con), Con==1, Tp is T+T1.
maxtime(Path,T) :- setof([Z,T1], path(root,tail,Z,T1), Set), max(Set, [Path,T]).
cost(Tid,Vid,C) :- price(Vid,Up), exetime(Tid,Vid,T), configs(Tid,Vid,Con), C is T*Up*Con.
totalcost(Ct) :- findall(C, cost(Tid,Vid,C), Bag), sum(Bag, Ct).
"#
    );
    let wlog_plan = deco
        .plan_workflow_wlog(&program, &wf, &EvalBackend::SeqCpu)
        .expect("wlog plan");
    // The WLog program encodes Equation (1)'s fractional cost; run the
    // typed evaluator under the same objective for a like-for-like check.
    let mut typed = deco_core::SchedulingProblem::new(&wf, &spec, &deco.store, deadline, 0.9);
    typed.mc_iters = 80;
    typed.objective = deco_core::ObjectiveMode::FractionalMean;
    let typed_result = deco_solver::beam_search(
        &typed,
        &deco_solver::SearchOptions {
            max_states: 400,
            ..Default::default()
        },
        4,
        &EvalBackend::SeqCpu,
    )
    .best
    .expect("typed plan");
    let typed_plan = deco_core::DecoPlan {
        plan: typed.plan_of(&typed_result.0),
        types: typed_result.0.clone(),
        evaluation: typed_result.1,
        stats: Default::default(),
    };
    // Same type totals: the chain has no packing/parallel subtleties, so
    // both objectives reduce to "promote exactly as much as the deadline
    // requires". Compare the chosen type multiset.
    let mut a = wlog_plan.types.clone();
    let mut b = typed_plan.types.clone();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(
        a, b,
        "declarative ({:?}) and typed ({:?}) paths disagree",
        wlog_plan.types, typed_plan.types
    );
}

#[test]
fn deco_dominates_random_scheduler_on_cost_at_same_qos() {
    let store = store();
    let wms = Pegasus::new(store);
    let wf = generators::montage(1, 33);
    let (dmin, dmax) = deadline_anchors(&wf, &wms.spec);
    let req = Requirements {
        deadline: 0.5 * (dmin + dmax),
        percentile: 0.9,
    };
    let mut deco_sched = DecoScheduler::default();
    deco_sched.options.mc_iters = 50;
    let deco_exe = wms.plan(&wf, &deco_sched, req).unwrap();
    let deco_run = wms.run_many(&deco_exe, req, "deco", 20, 3);

    // Random schedulers vary; average a few seeds.
    let mut random_costs = Vec::new();
    for seed in 0..3u64 {
        let exe = wms.plan(&wf, &RandomScheduler { seed }, req).unwrap();
        random_costs.push(wms.run_many(&exe, req, "random", 20, 3).mean_cost());
    }
    let random_mean = random_costs.iter().sum::<f64>() / random_costs.len() as f64;
    assert!(
        deco_run.mean_cost() <= random_mean * 1.02,
        "deco {} vs random {}",
        deco_run.mean_cost(),
        random_mean
    );
}

#[test]
fn autoscaling_misses_high_percentiles_that_deco_meets() {
    // The core motivation: deterministic planning under-provisions
    // high-percentile requirements. Compare raw (unfair-corrected)
    // Autoscaling planned at the mean against Deco planned at 96%.
    let spec = CloudSpec::amazon_ec2();
    let store = MetadataStore::from_ground_truth(spec.clone(), 25);
    let wf = generators::montage(1, 35);
    let (dmin, dmax) = deadline_anchors(&wf, &spec);
    let deadline = 0.35 * dmin + 0.65 * dmin.max(dmax * 0.25); // fairly tight
    let deadline = deadline.max(dmin * 1.2);

    // Raw Autoscaling plan (no percentile correction).
    let raw_plan = deco::baselines::autoscaling_plan(&wf, &spec, deadline, 0);
    let (raw_makespans, _) = deco::cloud::run_plan_many(&spec, &wf, &raw_plan, 60, 5);
    let raw_hit = raw_makespans.iter().filter(|&&m| m <= deadline).count() as f64
        / raw_makespans.len() as f64;

    let mut deco = Deco::new(store);
    deco.options.mc_iters = 100;
    if let Some(plan) = deco.plan_workflow(&wf, deadline, 0.96, &EvalBackend::SeqCpu) {
        let (mk, _) = deco::cloud::run_plan_many(&spec, &wf, &plan.plan, 60, 5);
        let deco_hit = mk.iter().filter(|&&m| m <= deadline).count() as f64 / mk.len() as f64;
        assert!(
            deco_hit >= raw_hit - 0.05,
            "deco hit {deco_hit} must not trail raw autoscaling {raw_hit}"
        );
        assert!(deco_hit >= 0.85, "deco hit rate {deco_hit}");
    } else {
        // If the tight deadline is infeasible even for Deco, raw
        // autoscaling must also be missing it badly.
        assert!(raw_hit < 0.96);
    }
}

#[test]
fn fair_autoscaling_meets_the_percentile_it_is_given() {
    let store = store();
    let wms = Pegasus::new(store);
    let wf = generators::montage(1, 36);
    let (dmin, dmax) = deadline_anchors(&wf, &wms.spec);
    let req = Requirements {
        deadline: 0.5 * (dmin + dmax),
        percentile: 0.9,
    };
    let exe = wms.plan(&wf, &AutoscalingScheduler, req).unwrap();
    let run = wms.run_many(&exe, req, "autoscaling", 40, 9);
    assert!(
        run.deadline_hit_rate >= 0.75,
        "corrected autoscaling hit rate {}",
        run.deadline_hit_rate
    );
}

#[test]
fn scheduler_callouts_are_interchangeable() {
    // The WMS accepts any Scheduler implementation (the paper's callout
    // architecture): run the same submission through three of them.
    let store = store();
    let wms = Pegasus::new(store);
    let wf = generators::epigenomics(20, 1);
    let (dmin, dmax) = deadline_anchors(&wf, &wms.spec);
    let req = Requirements {
        deadline: 0.5 * (dmin + dmax),
        percentile: 0.9,
    };
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(RandomScheduler { seed: 1 }),
        Box::new(AutoscalingScheduler),
        Box::new(DecoScheduler::default()),
    ];
    for s in schedulers {
        let exe = wms
            .plan(&wf, s.as_ref(), req)
            .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
        let r = wms.execute(&exe, req, s.name(), 5);
        assert!(r.makespan > 0.0, "{} produced an empty run", s.name());
    }
}

#[test]
fn dax_survives_wms_round_trip_for_all_apps() {
    let store = store();
    let wms = Pegasus::new(store);
    for wf in [
        generators::montage(1, 40),
        generators::ligo(20, 40),
        generators::epigenomics(20, 40),
    ] {
        let re = wms
            .submit_dax(&emit_dax(&wf).expect("emit"))
            .expect("round trip");
        assert_eq!(re.len(), wf.len(), "{}", wf.name);
        assert_eq!(re.edges().count(), wf.edges().count(), "{}", wf.name);
        // And the reparsed workflow is plannable.
        let (dmin, dmax) = deadline_anchors(&re, &wms.spec);
        assert!(dmin > 0.0 && dmax > dmin);
    }
}

#[test]
fn parse_rejects_non_dax_documents() {
    assert!(parse_dax("<html></html>").is_err());
    assert!(parse_dax("not xml at all").is_err());
}
