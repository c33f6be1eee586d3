//! Integration tests for the fleet tier (deco-fleet): cross-tenant WaaS
//! consolidation on a shared auto-scaled instance fleet.
//!
//! The load-bearing properties, in order:
//!
//! 1. **Placement is downstream** — the [`FleetServer`] response stream
//!    and stats are byte-identical to a plain [`PlanServer`] run, which is
//!    the private-pool path. The fleet moves cost accounting, never
//!    answers.
//! 2. **Deterministic replay** — a fleet-mode trace produces
//!    byte-identical responses, stats, *and fleet report* at 1, 2, and 8
//!    solver workers, and across repeated equal-seed runs (proptested
//!    over random tenant mixes).
//! 3. **Consolidation wins** — on a mixed three-tenant trace whose
//!    arrivals leave gap-fillable idle time inside paid hours, the fleet's
//!    compute cost is strictly below the private-pool baseline while the
//!    response stream (hence every deadline verdict) is identical, with
//!    zero isolation violations.
//! 4. **Isolation is enforced, not hoped for** — declarative WLog limits
//!    (max_coresidency, share_cap, region_pin) hold over the whole run;
//!    share-cap pressure surfaces as refusals (`unplaced`), never as
//!    violations.

use deco::cloud::billing::additional_quanta;
use deco::cloud::{CloudSpec, MetadataStore};
use deco::engine::Deco;
use deco::fleet::{private_pool_cost, FleetConfig, FleetPolicy, FleetServer};
use deco::pegasus::waas::{mixed_trace, TenantFamily, TenantLoad};
use deco::serve::{ArrivalTrace, PlanServer, ServeConfig, ServeOutcome};
use proptest::prelude::*;

fn small_deco() -> Deco {
    let store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 20);
    let mut deco = Deco::new(store);
    deco.options.mc_iters = 15;
    deco.options.search.max_states = 50;
    deco.options.beam_width = 3;
    deco
}

fn load(tenant: u32, family: TenantFamily, requests: usize, start: f64, gap: f64) -> TenantLoad {
    TenantLoad {
        tenant,
        family,
        tasks: 10,
        requests,
        start_tick: start,
        gap_ticks: gap,
        deadline_factor: 0.6,
        percentile: 0.9,
        distinct_workflows: 1,
    }
}

/// A tight-deadline Montage load: short task groups (tight anchor is a
/// few hundred seconds against the 3600 s billing quantum), the regime
/// where gap-filling pays.
fn montage_load(tenant: u32, requests: usize, start: f64, gap: f64) -> TenantLoad {
    TenantLoad {
        deadline_factor: 0.15,
        ..load(tenant, TenantFamily::Montage, requests, start, gap)
    }
}

/// Serve `trace` in fleet mode and return everything comparable.
fn fleet_run(
    trace: &ArrivalTrace,
    workers: usize,
    policy: FleetPolicy,
) -> (Vec<String>, u64, String) {
    let mut server = FleetServer::new(
        small_deco(),
        ServeConfig::default(),
        FleetConfig { policy, seed: 11 },
    )
    .expect("valid policy");
    let (responses, stats, report) = server.serve_trace(trace, workers);
    let lines = responses.iter().map(|r| r.canonical_line()).collect();
    (lines, stats.digest(), report.canonical_line())
}

#[test]
fn fleet_off_is_bit_identical_to_the_private_pool_path() {
    let spec = CloudSpec::amazon_ec2();
    let trace = mixed_trace(
        &spec,
        &[
            load(0, TenantFamily::Ligo, 3, 0.0, 500.0),
            load(1, TenantFamily::Montage, 2, 250.0, 500.0),
        ],
    );

    let mut plain = PlanServer::new(small_deco(), ServeConfig::default());
    let (plain_responses, plain_stats) = plain.serve_trace(&trace, 2);

    let mut fleet = FleetServer::new(small_deco(), ServeConfig::default(), FleetConfig::default())
        .expect("default policy is valid");
    let (fleet_responses, fleet_stats, report) = fleet.serve_trace(&trace, 2);

    assert!(report.placed > 0, "placement ran: {report:?}");
    assert_eq!(plain_responses.len(), fleet_responses.len());
    for (a, b) in plain_responses.iter().zip(&fleet_responses) {
        assert_eq!(a.canonical_line(), b.canonical_line());
    }
    assert_eq!(plain_stats.digest(), fleet_stats.digest());
}

#[test]
fn fleet_consolidation_is_strictly_cheaper_with_identical_answers() {
    let spec = CloudSpec::amazon_ec2();
    // Probe run: learn how long one tenant's groups actually run, then
    // space arrivals so consecutive workflows don't overlap but do land
    // inside each other's paid hours — the gap-fillable regime.
    let probe = mixed_trace(&spec, &[montage_load(0, 1, 0.0, 1.0)]);
    let mut probe_server =
        FleetServer::new(small_deco(), ServeConfig::default(), FleetConfig::default())
            .expect("default policy is valid");
    let (_, _, probe_report) = probe_server.serve_trace(&probe, 1);
    assert!(probe_report.placed > 0, "probe must place something");
    let span = probe_report.busy_seconds / probe_report.placed as f64;
    let gap = (span * 1.3 + 60.0).max(200.0);

    let loads = [
        montage_load(0, 3, 0.0, gap),
        montage_load(1, 3, gap / 3.0, gap),
        montage_load(2, 2, 2.0 * gap / 3.0, gap),
    ];
    let trace = mixed_trace(&spec, &loads);

    let mut server = FleetServer::new(small_deco(), ServeConfig::default(), FleetConfig::default())
        .expect("default policy is valid");
    let (responses, _, report) = server.serve_trace(&trace, 2);
    assert!(
        responses
            .iter()
            .all(|r| matches!(r.outcome, ServeOutcome::Planned(_))),
        "every request must be answered with a plan"
    );

    // Identical response stream to the private-pool path: the fleet
    // consumes answers, it never changes them — so deadline verdicts are
    // equal by construction and the comparison is cost against cost.
    let mut private = PlanServer::new(small_deco(), ServeConfig::default());
    let (private_responses, _) = private.serve_trace(&trace, 2);
    for (a, b) in responses.iter().zip(&private_responses) {
        assert_eq!(a.canonical_line(), b.canonical_line());
    }

    let (private_total, private_split) = private_pool_cost(&trace, &responses, &spec);
    assert_eq!(report.isolation_violations, 0);
    assert_eq!(report.unplaced, 0, "unconstrained policy refuses nothing");
    assert!(report.gap_fills > 0, "consolidation actually happened");
    assert!(
        report.compute_cost < private_total,
        "fleet {} must beat private pools {}",
        report.compute_cost,
        private_total
    );
    // Attribution is conservative: it redistributes exactly the paid
    // total, and every billed tenant appears in both splits.
    let attributed: f64 = report.per_tenant_cost.values().sum();
    assert!((attributed - report.compute_cost).abs() < 1e-9);
    assert_eq!(
        report.per_tenant_cost.keys().collect::<Vec<_>>(),
        private_split.keys().collect::<Vec<_>>()
    );
}

#[test]
fn declarative_isolation_limits_hold_over_the_whole_run() {
    let spec = CloudSpec::amazon_ec2();
    let policy = FleetPolicy::from_wlog(
        "
% nobody shares an instance; tenant 2 runs in region 1; tenant 1
% holds at most one instance at a time.
max_coresidency(1).
region_pin(2, r1).
share_cap(1, 1).
",
    )
    .expect("policy parses");

    let trace = mixed_trace(
        &spec,
        &[
            load(0, TenantFamily::Ligo, 2, 0.0, 400.0),
            load(1, TenantFamily::Montage, 2, 100.0, 400.0),
            load(2, TenantFamily::Epigenomics, 2, 200.0, 400.0),
        ],
    );

    let mut server = FleetServer::new(
        small_deco(),
        ServeConfig::default(),
        FleetConfig { policy, seed: 3 },
    )
    .expect("policy validates against the catalog");
    let (_, _, report) = server.serve_trace(&trace, 2);

    assert_eq!(report.isolation_violations, 0);
    for inst in server.manager.ledger.all() {
        assert!(inst.tenants() <= 1, "max_coresidency(1) held");
        if inst.occupancy.contains_key(&2) {
            assert_eq!(inst.slot.region, 1, "tenant 2 pinned to region 1");
        }
    }
    // Share-cap pressure shows up as refusals, never as violations.
    // (Whether tenant 1 actually hit its cap depends on plan width, so
    // only the invariant — refusal over violation — is asserted.)
    assert!(report.placed > 0);
}

#[test]
fn final_tick_of_a_paid_quantum_extends_for_free() {
    // The serve-level twin of the cloud billing regression tests: a
    // group placed so it ends exactly on the paid boundary costs zero
    // extra quanta, one second past it costs exactly one more.
    assert_eq!(additional_quanta(1, 3600.0, 3600.0), 0);
    assert_eq!(additional_quanta(1, 3601.0, 3600.0), 1);

    let mut manager =
        deco::fleet::FleetManager::new(CloudSpec::amazon_ec2(), FleetConfig::default())
            .expect("default policy");
    let g = |tenant, start: f64, end: f64| deco::fleet::TaskGroup {
        tenant,
        itype: 0,
        region: 0,
        start,
        end,
    };
    let a = manager.place_group(&g(1, 0.0, 3000.0)).expect("fits");
    let b = manager.place_group(&g(2, 3000.0, 3600.0)).expect("fits");
    assert_eq!(a, b, "final tick of the paid hour is reused");
    let report = manager.report();
    assert_eq!(report.total_quanta, 1, "boundary placement stayed free");
    assert_eq!(report.gap_fills, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Fleet-mode serving replays byte-identically: responses, stats,
    /// and the fleet report agree across 1/2/8 workers and across
    /// repeated runs of the same trace.
    #[test]
    fn fleet_mode_replay_is_byte_identical_across_workers_and_runs(
        n0 in 2usize..5,
        n1 in 2usize..5,
        stagger in 50.0f64..400.0,
        gap in 200.0f64..900.0,
    ) {
        let spec = CloudSpec::amazon_ec2();
        let trace = mixed_trace(
            &spec,
            &[
                load(0, TenantFamily::Ligo, n0, 0.0, gap),
                load(1, TenantFamily::Montage, n1, stagger, gap),
            ],
        );
        let baseline = fleet_run(&trace, 1, FleetPolicy::default());
        for workers in [2usize, 8] {
            let run = fleet_run(&trace, workers, FleetPolicy::default());
            // Byte-identical responses, stats, and fleet report at
            // every worker count.
            prop_assert_eq!(&baseline.0, &run.0);
            prop_assert_eq!(baseline.1, run.1);
            prop_assert_eq!(&baseline.2, &run.2);
        }
        // Equal-seed reruns replay bit-identically.
        let again = fleet_run(&trace, 1, FleetPolicy::default());
        prop_assert_eq!(baseline, again);
    }
}
