//! Fleet vs private pools: the WaaS consolidation experiment.
//!
//! A mixed three-tenant trace — Ligo, Montage, and Epigenomics streams
//! with tight (priciest-anchor) deadlines — is served twice over the
//! same engine: once costed against per-request private pools (every
//! planned workflow provisions its own instances, every partial billing
//! hour paid in full), once placed onto the shared auto-scaled fleet.
//! The response streams are byte-identical by construction — the fleet
//! consumes answers downstream of the serve loop — so the deadline-miss
//! rate is *equal by construction* and the comparison is pure
//! economics: total cost, per-tenant cost attribution, and fleet
//! utilization. Planned responses are additionally executed once
//! against the dynamic cloud (Pegasus) to report the actual per-tenant
//! outcome mix.
//!
//! Writes `BENCH_fleet.json` at the repository root and fails loudly if
//! consolidation does not strictly beat private pools or any isolation
//! violation is audited.

use deco_cloud::{CloudSpec, MetadataStore};
use deco_core::Deco;
use deco_fleet::{private_pool_cost, FleetConfig, FleetPolicy, FleetServer};
use deco_pegasus::waas::{mixed_trace, total_outcomes, TenantFamily, TenantLoad};
use deco_pegasus::Pegasus;
use deco_serve::{PlanServer, ServeConfig, ServeOutcome};
use std::fmt::Write as _;
use std::time::Instant;

const WORKERS: usize = 4;
const EXEC_SEED: u64 = 0xF1EE7;

fn engine() -> Deco {
    let spec = CloudSpec::amazon_ec2();
    let store = MetadataStore::from_ground_truth(spec, 25);
    let mut d = Deco::new(store);
    d.options.mc_iters = 20;
    d.options.search.max_states = 100;
    d.options.beam_width = 3;
    d
}

/// The tenant mix. Montage's tight anchor is a few hundred seconds —
/// groups far shorter than the 3600 s billing quantum, the classic
/// gap-filling workload. Ligo sits near half a quantum; Epigenomics
/// groups span multiple quanta and mostly test that consolidation never
/// does *worse* than private pools. Arrival gaps exceed each family's
/// tight makespan so successive groups land on idle, still-paid leases.
fn loads() -> Vec<TenantLoad> {
    let base = TenantLoad {
        tenant: 0,
        family: TenantFamily::Montage,
        tasks: 10,
        requests: 0,
        start_tick: 0.0,
        gap_ticks: 0.0,
        deadline_factor: 0.15,
        percentile: 0.9,
        distinct_workflows: 1,
    };
    vec![
        TenantLoad {
            tenant: 0,
            family: TenantFamily::Montage,
            requests: 8,
            gap_ticks: 700.0,
            start_tick: 0.0,
            distinct_workflows: 2,
            ..base
        },
        TenantLoad {
            tenant: 1,
            family: TenantFamily::Ligo,
            requests: 4,
            gap_ticks: 2600.0,
            start_tick: 150.0,
            ..base
        },
        TenantLoad {
            tenant: 2,
            family: TenantFamily::Epigenomics,
            tasks: 8,
            requests: 2,
            gap_ticks: 11_000.0,
            start_tick: 300.0,
            ..base
        },
    ]
}

fn main() {
    let deco = engine();
    let spec = deco.store.spec.clone();
    let trace = mixed_trace(&spec, &loads());
    let offered = trace.arrivals().len();

    // --- private-pool baseline -----------------------------------------
    let t0 = Instant::now();
    let mut private = PlanServer::new(deco.clone(), ServeConfig::default());
    let (private_responses, private_stats) = private.serve_trace(&trace, WORKERS);
    let private_secs = t0.elapsed().as_secs_f64();
    let (private_total, private_split) = private_pool_cost(&trace, &private_responses, &spec);

    // --- shared fleet ---------------------------------------------------
    let t0 = Instant::now();
    let mut fleet = FleetServer::new(
        deco.clone(),
        ServeConfig::default(),
        FleetConfig {
            policy: FleetPolicy::default(),
            seed: 11,
        },
    )
    .expect("default policy validates");
    let (fleet_responses, fleet_stats, report) = fleet.serve_trace(&trace, WORKERS);
    let fleet_secs = t0.elapsed().as_secs_f64();

    // Same answers, same stats — the modes differ only in economics.
    assert_eq!(private_responses.len(), fleet_responses.len());
    for (a, b) in private_responses.iter().zip(&fleet_responses) {
        assert_eq!(a.canonical_line(), b.canonical_line());
    }
    assert_eq!(private_stats.digest(), fleet_stats.digest());
    assert!(
        fleet_responses
            .iter()
            .all(|r| matches!(r.outcome, ServeOutcome::Planned(_))),
        "the mix is sized under capacity: every request plans"
    );

    // --- acceptance gates ----------------------------------------------
    assert_eq!(report.isolation_violations, 0, "isolation audit must pass");
    assert_eq!(report.unplaced, 0, "unconstrained policy refuses nothing");
    let ratio = report.compute_cost / private_total;
    assert!(
        ratio < 1.0,
        "fleet ({:.4}) must be strictly cheaper than private pools ({private_total:.4})",
        report.compute_cost
    );

    // --- execution-grade outcome mix (same stream for both modes) ------
    let pegasus = Pegasus::new(deco.store.clone());
    let outcomes = pegasus
        .classify_trace_outcomes(&trace, &fleet_responses, EXEC_SEED)
        .expect("planned responses execute");
    let totals = total_outcomes(&outcomes);

    println!(
        "fleet: {offered} requests, fleet cost {:.4} vs private {private_total:.4} \
         (ratio {ratio:.3}), utilization {:.3}, {} gap-fills / {} placements, \
         miss rate {:.3} (both modes), serve {private_secs:.1}s + {fleet_secs:.1}s",
        report.compute_cost,
        report.utilization(),
        report.gap_fills,
        report.placed,
        totals.miss_rate(),
    );

    // --- BENCH_fleet.json ----------------------------------------------
    let mut json = String::from("{\n  \"bench\": \"fleet\",\n");
    let _ = writeln!(
        json,
        "  \"note\": \"fleet and private modes answer with byte-identical \
         response streams (the fleet only moves cost accounting), so the \
         deadline-miss rate is equal by construction and the comparison is \
         pure economics\","
    );
    let _ = writeln!(json, "  \"offered\": {offered},");
    let _ = writeln!(json, "  \"workers\": {WORKERS},");
    let _ = writeln!(json, "  \"private_compute_cost\": {private_total:.6},");
    let _ = writeln!(
        json,
        "  \"fleet_compute_cost\": {:.6},",
        report.compute_cost
    );
    let _ = writeln!(json, "  \"cost_ratio\": {ratio:.4},");
    let _ = writeln!(
        json,
        "  \"fleet_utilization\": {:.4},",
        report.utilization()
    );
    let _ = writeln!(json, "  \"gap_fills\": {},", report.gap_fills);
    let _ = writeln!(json, "  \"placed\": {},", report.placed);
    let _ = writeln!(json, "  \"instances_acquired\": {},", report.acquired);
    let _ = writeln!(json, "  \"total_quanta\": {},", report.total_quanta);
    let _ = writeln!(
        json,
        "  \"isolation_violations\": {},",
        report.isolation_violations
    );
    let _ = writeln!(json, "  \"deadline_miss_rate\": {:.4},", totals.miss_rate());
    json.push_str("  \"tenants\": [\n");
    let tenants: Vec<u32> = report.per_tenant_cost.keys().copied().collect();
    for (i, tenant) in tenants.iter().enumerate() {
        let fleet_cost = report.per_tenant_cost.get(tenant).copied().unwrap_or(0.0);
        let private_cost = private_split.get(tenant).copied().unwrap_or(0.0);
        let o = outcomes.get(tenant).copied().unwrap_or_default();
        let _ = write!(
            json,
            "    {{ \"tenant\": {tenant}, \"fleet_cost\": {fleet_cost:.6}, \
             \"private_cost\": {private_cost:.6}, \"planned\": {}, \"met\": {}, \
             \"met_degraded\": {}, \"violated\": {}, \"miss_rate\": {:.4} }}",
            o.planned,
            o.met,
            o.met_degraded,
            o.violated,
            o.miss_rate(),
        );
        json.push_str(if i + 1 < tenants.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    std::fs::write(out, json).expect("write BENCH_fleet.json");
}
