//! Serve-tier integration: route planned responses onto the shared fleet.
//!
//! [`FleetServer`] wraps the unmodified [`PlanServer`] cycle loop. A
//! replay runs exactly as before — admission, cache, `plan_with_fallback`
//! on the worker pool, canonical integration — and the response stream
//! is byte-identical to the private-pool path *by construction*: the
//! fleet consumes the stream downstream, it never feeds back into
//! solving. What changes is the economics: each planned response's
//! slots become [`TaskGroup`]s (via [`mean_schedule`]'s busy spans) and
//! are placed onto the shared ledger. A caller who wants every response
//! costed against its own private pool runs the [`PlanServer`] alone
//! (and [`private_pool_cost`] prices that stream).
//!
//! **Clocks.** Serve ticks measure solver service time; fleet economics
//! run on the cloud clock. A workflow's groups start at its *arrival
//! tick* — the submission instant the trace recorded — so placement
//! times are a property of the trace, not of solver speed, and the
//! fleet trace replays bit-identically at any worker count. Arrival
//! ticks are also the fleet's cycle boundaries: scale-down decisions
//! happen exactly when the trace clock advances.

use crate::manager::{FleetConfig, FleetManager, FleetReport, TaskGroup};
use deco_cloud::plan::mean_schedule;
use deco_cloud::CloudSpec;
use deco_core::{Deco, DecoError};
use deco_serve::{
    ArrivalTrace, PlanResponse, PlanServer, ServeConfig, ServeOutcome, ServeSession, ServeStats,
    TenantId,
};
use std::collections::BTreeMap;

/// A [`PlanServer`] whose planned responses are consolidated onto a
/// shared, auto-scaled instance fleet.
pub struct FleetServer {
    pub server: PlanServer,
    pub manager: FleetManager,
}

impl FleetServer {
    /// Build a fleet-backed server. The fleet bills against the same
    /// cloud catalog the engine plans against.
    pub fn new(
        deco: Deco,
        serve: ServeConfig,
        fleet: FleetConfig,
    ) -> Result<FleetServer, DecoError> {
        let spec = deco.store.spec.clone();
        Ok(FleetServer {
            manager: FleetManager::new(spec, fleet)?,
            server: PlanServer::new(deco, serve),
        })
    }

    /// Replay a trace under a quiescent session.
    pub fn serve_trace(
        &mut self,
        trace: &ArrivalTrace,
        workers: usize,
    ) -> (Vec<PlanResponse>, ServeStats, FleetReport) {
        self.serve_trace_session(trace, workers, &ServeSession::default())
    }

    /// Replay a trace under an explicit session, then place every
    /// planned response onto the fleet in trace-sequence order.
    /// Responses and stats are byte-identical to running the wrapped
    /// [`PlanServer`] alone; the third element is the fleet's report.
    pub fn serve_trace_session(
        &mut self,
        trace: &ArrivalTrace,
        workers: usize,
        session: &ServeSession,
    ) -> (Vec<PlanResponse>, ServeStats, FleetReport) {
        let (responses, stats) = self.server.serve_trace_session(trace, workers, session);
        let arrivals = trace.arrivals();
        for response in &responses {
            let arrival = &arrivals[response.seq as usize];
            // The trace clock advanced to this arrival: a fleet cycle
            // boundary. Monotone because responses come in seq order
            // and arrivals are sorted by tick.
            self.manager.cycle_scale(arrival.at_tick);
            let ServeOutcome::Planned(served) = &response.outcome else {
                continue;
            };
            let plan = &served.plan.plan.plan;
            let sched = mean_schedule(&arrival.request.workflow, plan, &self.manager.spec);
            for (slot, span) in plan.slots.iter().zip(&sched.slot_spans) {
                let Some((first_start, last_finish)) = span else {
                    continue;
                };
                let group = TaskGroup {
                    tenant: response.tenant,
                    itype: slot.itype,
                    region: slot.region,
                    start: arrival.at_tick + first_start,
                    end: arrival.at_tick + last_finish,
                };
                // A share-cap refusal defers the group: the manager
                // retries it at the next cycle boundary and the report
                // counts it (`requeued` or, if never placed,
                // `unplaced`). The response itself stands either way.
                let _ = self.manager.place_group(&group);
            }
        }
        self.manager.finish();
        (responses, stats, self.manager.report())
    }
}

/// The pre-fleet economics of the same response stream: every planned
/// response provisions its own private pool, every slot pays its own
/// partial-quantum rounding. Returns the total compute cost and its
/// per-tenant split — the baseline the fleet's consolidation is judged
/// against. (Transfer cost is identical on both sides — consolidation
/// moves billing boundaries, not data — so the comparison is compute
/// against compute.)
pub fn private_pool_cost(
    trace: &ArrivalTrace,
    responses: &[PlanResponse],
    spec: &CloudSpec,
) -> (f64, BTreeMap<TenantId, f64>) {
    let arrivals = trace.arrivals();
    let mut per_tenant: BTreeMap<TenantId, f64> = BTreeMap::new();
    let mut total = 0.0;
    for response in responses {
        let ServeOutcome::Planned(served) = &response.outcome else {
            continue;
        };
        let arrival = &arrivals[response.seq as usize];
        let sched = mean_schedule(&arrival.request.workflow, &served.plan.plan.plan, spec);
        total += sched.cost.compute;
        *per_tenant.entry(response.tenant).or_insert(0.0) += sched.cost.compute;
    }
    (total, per_tenant)
}
