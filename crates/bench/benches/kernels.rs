//! Microbenchmarks of the computational kernels underneath the
//! experiments: Monte-Carlo state evaluation, the WLog interpreter, plan
//! packing, histogram convolution and the simulator. Each prints its
//! median time per call.

use deco_bench::median_secs;
use deco_cloud::{CloudSpec, MetadataStore, Plan};
use deco_core::estimate::{mc_evaluate_plan, ExecTimeTable};
use deco_prob::dist::Normal;
use deco_prob::Histogram;
use deco_wlog::machine::{Database, Machine};
use deco_wlog::parser::{parse_clauses, parse_query};
use deco_workflow::generators;
use std::hint::black_box;
use std::time::Duration;

fn time(name: &str, f: impl FnMut()) {
    let secs = median_secs(f, 10, Duration::from_secs(1));
    println!("{name}: {:.3} us/iter", secs * 1e6);
}

fn main() {
    let spec = CloudSpec::amazon_ec2();
    let store = MetadataStore::from_ground_truth(spec.clone(), 30);
    let wf = generators::montage(2, 1);
    let table = ExecTimeTable::build(&wf, &store, 12);
    let plan = Plan::packed(&wf, &vec![1; wf.len()], 0, &spec);

    time("mc_evaluate_plan_montage2_100iters", || {
        black_box(mc_evaluate_plan(
            &wf, &plan, &table, &spec, 2000.0, 0.9, 100, 7,
        ));
    });
    time("plan_packing_montage2", || {
        black_box(Plan::packed(&wf, &vec![1; wf.len()], 0, &spec));
    });
    time("simulator_run_montage2", || {
        black_box(deco_cloud::sim::run_plan(&spec, &wf, &plan, 3));
    });

    let h1 = Histogram::from_dist(&Normal::new(10.0, 2.0), 40, 4.0, None);
    let h2 = Histogram::from_dist(&Normal::new(5.0, 1.0), 40, 4.0, None);
    time("histogram_convolve_40x40", || {
        black_box(h1.convolve(&h2));
    });

    let mut db = Database::new();
    let db_src = "
        parent(a,b). parent(b,c). parent(c,d). parent(d,e).
        anc(X,Y) :- parent(X,Y).
        anc(X,Z) :- parent(X,Y), anc(Y,Z).";
    for cl in parse_clauses(db_src).expect("bench program parses") {
        db.assert(cl);
    }
    // Every query resets the machine's stacks, so one machine serves
    // every iteration.
    let mut m = Machine::new(db);
    let q = parse_query("anc(a,W)").expect("bench query parses");
    time("wlog_sld_resolution_ancestor", || {
        black_box(m.solve_all(&q).expect("ancestor query runs"));
    });

    time("exec_time_table_build_montage2", || {
        black_box(ExecTimeTable::build(&wf, &store, 12));
    });
}
