//! Plan requests, arrival traces, and responses.
//!
//! A serving front end deals in *recorded arrival traces*: every request
//! carries its arrival instant in device-model ticks, so an entire traffic
//! history is a value that can be replayed bit-for-bit. Responses carry a
//! canonical rendering ([`PlanResponse::canonical_line`]) used by the
//! determinism tests to compare whole response streams byte-for-byte
//! across worker-pool sizes.

use deco_core::supervisor::{PlanStage, SupervisedPlan};
use deco_prob::hash::StableHasher;
use deco_workflow::Workflow;
use std::hash::Hasher;

/// Identifier of one tenant of the serving engine.
pub type TenantId = u32;

/// Admission priority class. Draining is ordered by class first
/// (`Interactive` ahead of `Batch` ahead of `Background`), then FIFO
/// within a class, and the deadline-aware shed policy victimizes lower
/// classes first. A queue in which every request carries the default
/// class drains exactly like the original FIFO queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// A user is waiting on the response (portal submissions).
    Interactive,
    /// Ordinary planned work — the default class.
    #[default]
    Batch,
    /// Speculative or prefetch work; first to wait, first to shed.
    Background,
}

impl Priority {
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::Background => "background",
        }
    }
}

/// One tenant's request for a provisioning plan.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    pub tenant: TenantId,
    /// The workflow to provision (a parsed DAX document).
    pub workflow: Workflow,
    /// Requested deadline, seconds. The server plans against the
    /// *canonical* (bucket-floored) deadline — see
    /// [`crate::server::ServeConfig::deadline_bucket`].
    pub deadline: f64,
    /// Probabilistic deadline percentile in `(0, 1]`.
    pub percentile: f64,
    /// Optional per-request tick-budget hint. The effective budget is the
    /// smaller of this and the server's per-request cap
    /// ([`crate::server::ServeConfig::budget`]).
    pub budget_hint: Option<f64>,
    /// Admission priority class (drain ordering and shed preference).
    pub priority: Priority,
}

/// One arrival: a request plus its arrival instant in model ticks.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub at_tick: f64,
    pub request: PlanRequest,
}

/// A recorded request trace, sorted by arrival tick (stable, so
/// same-instant arrivals keep their submission order).
#[derive(Debug, Clone, Default)]
pub struct ArrivalTrace {
    arrivals: Vec<Arrival>,
}

impl ArrivalTrace {
    pub fn new(mut arrivals: Vec<Arrival>) -> Self {
        assert!(
            arrivals
                .iter()
                .all(|a| a.at_tick.is_finite() && a.at_tick >= 0.0),
            "arrival ticks must be finite and non-negative"
        );
        arrivals.sort_by(|a, b| a.at_tick.total_cmp(&b.at_tick));
        ArrivalTrace { arrivals }
    }

    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }
}

/// How a served plan was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Solved in this cycle (a cache miss).
    Cold,
    /// Answered from the plan cache (a hit).
    Warm,
    /// Answered by a sibling request's solve in the same cycle (request
    /// coalescing: equal keys in one batch are solved exactly once).
    Coalesced,
    /// Solved after at least one injected worker crash forced the job to
    /// be re-enqueued with backoff (only under a non-empty
    /// [`crate::faults::WorkerFaultPlan`]).
    Retried,
    /// Answered from the fallback degradation chain because the content
    /// key is quarantined (it wedged solver workers too many times).
    Quarantined,
}

impl PlanSource {
    pub fn name(self) -> &'static str {
        match self {
            PlanSource::Cold => "cold",
            PlanSource::Warm => "warm",
            PlanSource::Coalesced => "coalesced",
            PlanSource::Retried => "retried",
            PlanSource::Quarantined => "quarantined",
        }
    }
}

/// A successfully planned response.
#[derive(Debug, Clone)]
pub struct ServedPlan {
    /// The plan plus its provenance, exactly as a cold
    /// [`deco_core::supervisor::plan_with_fallback`] call would return it.
    pub plan: SupervisedPlan,
    pub source: PlanSource,
    /// Modeled queueing delay (admission to solve-cycle start), in
    /// deterministic device-model ticks.
    pub wait_ticks: f64,
    /// The canonical deadline the plan was actually solved for.
    pub canonical_deadline: f64,
}

/// The verdict of one request.
#[derive(Debug, Clone)]
pub enum ServeOutcome {
    Planned(Box<ServedPlan>),
    /// Refused without planning: backpressure
    /// ([`deco_core::DecoError::Overloaded`]) or a structurally invalid
    /// request. The string is the `DecoError` rendering.
    Rejected {
        reason: String,
    },
    /// Dropped *after* admission by the deadline-aware shed policy: the
    /// queue was full and this request's bucket-floored canonical
    /// deadline had already expired while it waited, so it was
    /// sacrificed instead of the newest arrival.
    Shed {
        reason: String,
    },
}

/// One response of the stream; `seq` is the request's index in the trace,
/// and the stream is always emitted in `seq` order.
#[derive(Debug, Clone)]
pub struct PlanResponse {
    pub seq: u64,
    pub tenant: TenantId,
    /// The content-addressed cache key (0 for requests rejected before
    /// key derivation).
    pub key: u64,
    pub outcome: ServeOutcome,
}

impl PlanResponse {
    /// Canonical single-line rendering with every float spelled as raw
    /// bits: two responses are byte-identical iff the server produced the
    /// same answer, regardless of solver-worker interleaving.
    pub fn canonical_line(&self) -> String {
        match &self.outcome {
            ServeOutcome::Planned(p) => {
                let stage = match p.plan.provenance.stage {
                    PlanStage::Deco => "deco",
                    PlanStage::Heuristic => "heuristic",
                    PlanStage::Autoscaling => "autoscaling",
                };
                format!(
                    "seq={} tenant={} key={:016x} source={} wait={:016x} deadline={:016x} \
                     stage={} truncated={} spent={:016x} feasible={} objective={:016x} types={:?}",
                    self.seq,
                    self.tenant,
                    self.key,
                    p.source.name(),
                    p.wait_ticks.to_bits(),
                    p.canonical_deadline.to_bits(),
                    stage,
                    p.plan.provenance.truncated,
                    p.plan.provenance.budget_spent.to_bits(),
                    p.plan.plan.evaluation.feasible,
                    p.plan.plan.evaluation.objective.to_bits(),
                    p.plan.plan.types,
                )
            }
            ServeOutcome::Rejected { reason } => format!(
                "seq={} tenant={} key={:016x} rejected reason={reason}",
                self.seq, self.tenant, self.key
            ),
            ServeOutcome::Shed { reason } => format!(
                "seq={} tenant={} key={:016x} shed reason={reason}",
                self.seq, self.tenant, self.key
            ),
        }
    }

    /// Stable digest of [`PlanResponse::canonical_line`].
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::with_seed(0x5E72E);
        h.write(self.canonical_line().as_bytes());
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_workflow::generators;

    fn req(t: TenantId) -> PlanRequest {
        PlanRequest {
            tenant: t,
            workflow: generators::pipeline(2, 10.0, 0),
            deadline: 100.0,
            percentile: 0.9,
            budget_hint: None,
            priority: Priority::default(),
        }
    }

    #[test]
    fn priority_orders_interactive_ahead_of_batch_ahead_of_background() {
        assert!(Priority::Interactive < Priority::Batch);
        assert!(Priority::Batch < Priority::Background);
        assert_eq!(Priority::default(), Priority::Batch);
        assert_eq!(Priority::Background.name(), "background");
    }

    #[test]
    fn shed_responses_render_canonically() {
        let r = PlanResponse {
            seq: 4,
            tenant: 2,
            key: 0xF00,
            outcome: ServeOutcome::Shed {
                reason: "deadline unmeetable".into(),
            },
        };
        assert_eq!(
            r.canonical_line(),
            "seq=4 tenant=2 key=0000000000000f00 shed reason=deadline unmeetable"
        );
    }

    #[test]
    fn traces_sort_stably_by_arrival_tick() {
        let trace = ArrivalTrace::new(vec![
            Arrival {
                at_tick: 5.0,
                request: req(1),
            },
            Arrival {
                at_tick: 0.0,
                request: req(2),
            },
            Arrival {
                at_tick: 5.0,
                request: req(3),
            },
        ]);
        let tenants: Vec<TenantId> = trace.arrivals().iter().map(|a| a.request.tenant).collect();
        assert_eq!(tenants, vec![2, 1, 3], "stable sort keeps 1 before 3");
    }

    #[test]
    #[should_panic]
    fn traces_reject_non_finite_ticks() {
        ArrivalTrace::new(vec![Arrival {
            at_tick: f64::NAN,
            request: req(1),
        }]);
    }

    #[test]
    fn rejected_responses_render_canonically() {
        let r = PlanResponse {
            seq: 3,
            tenant: 7,
            key: 0xABC,
            outcome: ServeOutcome::Rejected {
                reason: "overloaded: x".into(),
            },
        };
        assert_eq!(
            r.canonical_line(),
            "seq=3 tenant=7 key=0000000000000abc rejected reason=overloaded: x"
        );
        assert_eq!(r.digest(), r.digest());
    }
}
