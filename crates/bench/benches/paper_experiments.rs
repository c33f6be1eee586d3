//! One benchmark per table/figure of the paper, timing the computational
//! core of each experiment at quick scale and printing its median time per
//! run. The `experiments` binary prints the corresponding rows/series.

use deco_bench::common::Env;
use deco_bench::{
    ablation, ensemble_exp, figures, followcost_exp, median_secs, scheduling_exp, speedup_exp,
    Scale,
};
use std::hint::black_box;
use std::time::Duration;

fn quick(name: &str, f: impl FnMut()) {
    let secs = median_secs(f, 10, Duration::from_secs(3));
    println!("{name}: {:.1} ms/run", secs * 1e3);
}

fn main() {
    let env = Env::new(Scale::Quick);
    quick("table2_calibration", || {
        black_box(figures::table2(&env));
    });
    quick("fig01_configs", || {
        black_box(figures::fig1(&env));
    });
    quick("fig02_variance", || {
        black_box(figures::fig2(&env));
    });
    quick("fig06_network", || {
        black_box(figures::fig6(&env));
    });
    quick("fig07_network_types", || {
        black_box(figures::fig7(&env));
    });
    quick("fig08_prob_deadline", || {
        black_box(scheduling_exp::fig8(&env));
    });
    quick("fig09_ensemble", || {
        black_box(ensemble_exp::fig9(&env));
    });
    quick("fig10_followcost", || {
        black_box(followcost_exp::fig10(&env));
    });
    quick("fig11_deadline_sensitivity", || {
        black_box(scheduling_exp::fig11(&env));
    });
    quick("speedup_scheduling", || {
        black_box(speedup_exp::speedup_scheduling(&env));
    });
    quick("speedup_ensemble_overhead", || {
        black_box(speedup_exp::speedup_ensemble(&env));
    });
    quick("ablation_prob_vs_det", || {
        black_box(ablation::prob_vs_det(&env));
    });
    quick("ablation_astar", || {
        black_box(ablation::astar_vs_generic(&env));
    });
    quick("ablation_explore", || {
        black_box(ablation::explore_vs_exploit(&env));
    });
    quick("ablation_mc_iters", || {
        black_box(ablation::mc_iterations(&env));
    });
    quick("ablation_ops", || {
        black_box(ablation::operation_set(&env));
    });
}
