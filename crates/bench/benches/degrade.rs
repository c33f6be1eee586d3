//! Graceful degradation under deterministic search budgets: sweep the
//! supervisor's tick budget from starvation to unlimited and record which
//! stage of the degradation chain answers, how many ticks it spent, and
//! how the incumbent's cost compares to the full-budget optimum.
//!
//! The bench writes `BENCH_degrade.json` at the repository root: one row per (workflow, budget fraction) with the
//! producing stage, truncation flag, deterministic ticks spent, and the
//! incumbent-quality ratio (cost / full-budget cost; 1.0 at the top of
//! the sweep, typically worse below — the anytime quality curve).

use deco_bench::common::ground_truth_engine;
use deco_core::estimate::deadline_anchors;
use deco_core::supervisor::plan_with_fallback;
use deco_solver::SearchBudget;
use deco_workflow::generators;
use deco_workflow::Workflow;

const FRACTIONS: [f64; 7] = [0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0];

fn cases() -> Vec<(&'static str, Workflow)> {
    vec![
        ("montage_1", generators::montage(1, 1)),
        ("ligo_60", generators::ligo(60, 1)),
    ]
}

fn main() {
    let d = ground_truth_engine(40, 300);
    let mut rows = Vec::new();

    for (name, wf) in cases() {
        let (dmin, dmax) = deadline_anchors(&wf, &d.store.spec);
        let deadline = 0.5 * (dmin + dmax);

        // Full-budget reference: the quality everything is normalized to,
        // and the tick denominator for the sweep.
        let full = plan_with_fallback(&d, &wf, deadline, 0.9, &SearchBudget::unlimited())
            .expect("unbudgeted supervision");
        let total_ticks = full.provenance.budget_spent.max(f64::MIN_POSITIVE);
        let full_cost = full.plan.evaluation.objective;

        for frac in FRACTIONS {
            let budget = if frac >= 1.0 {
                SearchBudget::unlimited()
            } else {
                // frac = 0 is the starvation point, not zero ticks (a zero
                // budget is the unlimited sentinel's complement: still
                // deterministic, exhausted after the first batch).
                SearchBudget::ticks((total_ticks * frac).max(1e-12))
            };
            let sup = plan_with_fallback(&d, &wf, deadline, 0.9, &budget)
                .expect("supervisor always answers");
            let quality = sup.plan.evaluation.objective / full_cost;
            println!(
                "degrade {name:<10} frac {frac:>4.2}  stage {:<11}  truncated {:<5}  \
                 ticks {:>10.4}  quality {:>6.3}  feasible {}",
                sup.provenance.stage.to_string(),
                sup.provenance.truncated,
                sup.provenance.budget_spent,
                quality,
                sup.plan.evaluation.feasible
            );
            rows.push(format!(
                "    {{\"name\": \"{}\", \"budget_frac\": {:.2}, \"stage\": \"{}\", \
                 \"truncated\": {}, \"ticks_spent\": {:.6}, \"quality_vs_full\": {:.4}, \
                 \"feasible\": {}, \"states\": {}}}",
                name,
                frac,
                sup.provenance.stage,
                sup.provenance.truncated,
                sup.provenance.budget_spent,
                quality,
                sup.plan.evaluation.feasible,
                sup.plan.stats.states_evaluated
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"degrade\",\n  \"unit\": \"device_model_ticks\",\n  \
         \"acceptance\": \"every budget returns a plan; quality_vs_full -> 1.0 as budget_frac -> 1.0\",\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_degrade.json");
    std::fs::write(out, json).expect("write BENCH_degrade.json");
}
