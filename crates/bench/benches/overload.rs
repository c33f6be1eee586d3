//! Overload goodput: arrival rates at 2–10× solve capacity under the
//! deadline-aware shed policy (shed only waiters whose canonical
//! deadline has already expired).
//!
//! The serving loop runs on deterministic virtual ticks: each cycle
//! advances the clock by its service ticks, so "capacity" is directly
//! measurable. A calibration run pushes a burst of unique cold shapes
//! through the server and divides the accumulated service ticks by the
//! number of solves; the overload traces then space arrivals at
//! `S / m` ticks for multipliers m ∈ {2, 5, 10}, one run per multiplier.
//!
//! Writes `BENCH_overload.json` at the repository root: goodput
//! (planned / offered), shed and rejected counts, and `admitted_late` —
//! planned requests whose wait before their solve cycle exceeded their
//! canonical deadline, the deadline misses among admitted requests.
//! Every value is a function of the seeded trace and the tick model, so
//! the file is byte-identical from run to run.

use deco_bench::common::ground_truth_engine;
use deco_cloud::CloudSpec;
use deco_core::estimate::deadline_anchors;
use deco_serve::{Arrival, ArrivalTrace, PlanRequest, PlanServer, ServeConfig, ServeOutcome};
use deco_workflow::generators;
use std::fmt::Write as _;
use std::time::Instant;

const WORKERS: usize = 4;
const OFFERED: u32 = 200;
const MULTIPLIERS: [f64; 3] = [2.0, 5.0, 10.0];

/// One arrival per tick step, each a Montage with its own seed, so
/// every request is a distinct cache key (a cold solve — the offered
/// load is `1/gap` solves per tick).
///
/// Each request's deadline is its `slack`: `window` (the calibrated
/// per-solve service time) times one of {1, 4, 7, 10, 13}, cycling. The
/// server measures a deadline from the request's own arrival, so every
/// request gets the same slack wherever it sits in the trace. The
/// calibration run passes an infinite window and gets the canonical
/// mid deadline, so nothing ever sheds.
fn cold_trace(spec: &CloudSpec, n: u32, gap: f64, window: f64) -> ArrivalTrace {
    let arrivals: Vec<Arrival> = (0..n)
        .map(|i| {
            let wf = generators::montage(1, 3000 + u64::from(i));
            let (dmin, dmax) = deadline_anchors(&wf, spec);
            let at_tick = f64::from(i) * gap;
            let slack = if window.is_finite() {
                window * f64::from(1 + 3 * (i % 5))
            } else {
                0.5 * (dmin + dmax)
            };
            Arrival {
                at_tick,
                request: PlanRequest {
                    tenant: i % 4,
                    workflow: wf,
                    deadline: slack,
                    percentile: 0.9,
                    budget_hint: None,
                    priority: deco_serve::Priority::default(),
                },
            }
        })
        .collect();
    ArrivalTrace::new(arrivals)
}

fn main() {
    let deco = ground_truth_engine(30, 150);
    let spec = deco.store.spec.clone();

    // --- calibration: service ticks per cold solve ---------------------
    // A burst under the queue bound, all at tick 0, all unique shapes:
    // the final cycle's start tick is the service total of every cycle
    // before it, so S divides out of the solves completed by then.
    let calib = cold_trace(&spec, 48, 0.0, f64::INFINITY);
    let mut server = PlanServer::new(deco.clone(), ServeConfig::default());
    let (_, stats) = server.serve_trace(&calib, WORKERS);
    assert_eq!(stats.planned, 48, "calibration burst must all plan");
    let rows = &stats.cycle_rows;
    let last = rows.last().expect("calibration produced cycles");
    let solved_before_last: u64 = rows[..rows.len() - 1].iter().map(|r| r.dispatched).sum();
    let service_per_solve = last.start_tick / solved_before_last.max(1) as f64;
    assert!(
        service_per_solve > 0.0,
        "cold solves must consume service ticks"
    );

    // --- overload sweep ------------------------------------------------
    let mut cells = Vec::new();
    for &m in &MULTIPLIERS {
        let gap = service_per_solve / m;
        let trace = cold_trace(&spec, OFFERED, gap, service_per_solve);
        let mut server = PlanServer::new(deco.clone(), ServeConfig::default());
        let t0 = Instant::now();
        let (responses, stats) = server.serve_trace(&trace, WORKERS);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(responses.len() as u32, OFFERED, "every arrival is answered");
        let goodput = stats.planned as f64 / f64::from(OFFERED);
        // The mean deadline slack (in window units of 1..13) of the
        // shed/rejected set: whether the policy spent doomed waiters or
        // viable ones.
        let sacrificed: Vec<u32> = responses
            .iter()
            .filter(|r| {
                matches!(
                    r.outcome,
                    ServeOutcome::Shed { .. } | ServeOutcome::Rejected { .. }
                )
            })
            .map(|r| 1 + 3 * (u32::try_from(r.seq).expect("seq fits u32") % 5))
            .collect();
        let mean_sacrificed_window = if sacrificed.is_empty() {
            0.0
        } else {
            f64::from(sacrificed.iter().sum::<u32>()) / sacrificed.len() as f64
        };
        // Admitted requests that missed their deadline before their
        // solve cycle even started.
        let admitted_late = responses
            .iter()
            .filter(|r| match &r.outcome {
                ServeOutcome::Planned(p) => p.wait_ticks > p.canonical_deadline,
                _ => false,
            })
            .count();
        println!(
            "overload x{m:.0}: goodput {goodput:.3} (planned {}, shed {}, rejected {}, \
             admitted late {admitted_late}, mean sacrificed window \
             {mean_sacrificed_window:.2}xS, {} cycles, {secs:.2}s)",
            stats.planned, stats.shed, stats.rejected_overload, stats.cycles,
        );
        cells.push((m, goodput, mean_sacrificed_window, admitted_late, stats));
    }

    let mut json = String::from("{\n  \"bench\": \"overload\",\n");
    let _ = writeln!(
        json,
        "  \"note\": \"one run per load multiplier; a full queue sheds only waiters \
         whose canonical deadline has already expired, else rejects the newcomer; \
         admitted_late counts planned requests whose wait exceeded their \
         canonical deadline\","
    );
    let _ = writeln!(json, "  \"offered\": {OFFERED},");
    let _ = writeln!(json, "  \"workers\": {WORKERS},");
    let _ = writeln!(
        json,
        "  \"service_ticks_per_cold_solve\": {service_per_solve:.1},"
    );
    json.push_str("  \"cells\": [\n");
    for (i, (m, goodput, mean_window, admitted_late, stats)) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{ \"multiplier\": {m:.0}, \
             \"goodput\": {goodput:.4}, \"planned\": {}, \"shed\": {}, \
             \"rejected_overload\": {}, \"mean_sacrificed_window\": {mean_window:.3}, \
             \"admitted_late\": {admitted_late}, \"cycles\": {} }}",
            stats.planned, stats.shed, stats.rejected_overload, stats.cycles,
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_overload.json");
    std::fs::write(out, json).expect("write BENCH_overload.json");
}
