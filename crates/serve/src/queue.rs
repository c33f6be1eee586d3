//! Admission control and per-request budgets.
//!
//! The queue is bounded: once `capacity` requests are waiting, further
//! arrivals are refused with [`DecoError::Overloaded`] — backpressure is a
//! response, not a blocked caller — *unless* the deadline-aware shed
//! policy finds a waiter whose deadline has already expired to sacrifice
//! instead (see [`AdmissionQueue::shed_unmeetable`]). Draining is ordered by
//! [`Priority`] class first, then FIFO within a class, so a queue of
//! all-default-priority requests drains exactly like the original FIFO
//! queue. A solve's budget is the per-request cap, tightened by the
//! request's own hint ([`effective_budget`]).

use crate::request::{PlanRequest, Priority};
use crate::server::canonical_deadline;
use deco_core::DecoError;
use deco_solver::SearchBudget;
use std::collections::VecDeque;

/// One queued request: its trace sequence number, arrival tick, and body.
#[derive(Debug, Clone)]
pub struct QueuedRequest {
    pub seq: u64,
    pub arrived_at: f64,
    pub request: PlanRequest,
}

/// A bounded admission queue, drained by (priority class, admission
/// order).
#[derive(Debug)]
pub struct AdmissionQueue {
    pending: VecDeque<QueuedRequest>,
    capacity: usize,
}

impl AdmissionQueue {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a zero-capacity queue admits nothing");
        AdmissionQueue {
            pending: VecDeque::new(),
            capacity,
        }
    }

    pub fn len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Admit a request, or refuse it with [`DecoError::Overloaded`] when
    /// the queue is full.
    pub fn try_admit(
        &mut self,
        seq: u64,
        arrived_at: f64,
        request: PlanRequest,
    ) -> Result<(), DecoError> {
        if self.pending.len() >= self.capacity {
            return Err(DecoError::Overloaded {
                queued: self.pending.len(),
                capacity: self.capacity,
            });
        }
        self.pending.push_back(QueuedRequest {
            seq,
            arrived_at,
            request,
        });
        Ok(())
    }

    /// Pop up to `n` requests, priority classes first
    /// (`Interactive` → `Batch` → `Background`), admission order within a
    /// class. With uniform priorities this is exactly FIFO.
    pub fn drain_batch(&mut self, n: usize) -> Vec<QueuedRequest> {
        let take = n.min(self.pending.len());
        if take == 0 {
            return Vec::new();
        }
        // Rank by (priority, seq): stable and deterministic.
        let mut order: Vec<usize> = (0..self.pending.len()).collect();
        order.sort_by_key(|&i| (self.pending[i].request.priority, self.pending[i].seq));
        order.truncate(take);
        order.sort_unstable(); // remove back-to-front so indices stay valid
        let mut batch: Vec<QueuedRequest> = order
            .into_iter()
            .rev()
            .filter_map(|i| self.pending.remove(i))
            .collect();
        batch.sort_by_key(|q| (q.request.priority, q.seq));
        batch
    }

    /// The waiting requests in admission (FIFO) order — what a
    /// checkpoint records. Draining order is recomputed from priorities
    /// at every cycle, so the FIFO image is the whole queue state.
    pub fn pending_snapshot(&self) -> Vec<QueuedRequest> {
        self.pending.iter().cloned().collect()
    }

    /// Replace the queue contents with a checkpointed snapshot (FIFO
    /// order preserved). Capacity stays as configured; a resume
    /// restores exactly what [`AdmissionQueue::pending_snapshot`] saw.
    pub fn restore_pending(&mut self, pending: Vec<QueuedRequest>) {
        self.pending = pending.into();
    }

    /// The deadline-aware shed policy: find the waiting request whose
    /// bucket-floored canonical deadline has already expired — its
    /// remaining slack at `now` is negative — and remove it from the
    /// queue. A waiter that can still meet its deadline is never shed on
    /// a forecast. Victims are chosen lowest [`Priority`] class first,
    /// then most-negative slack, then smallest `seq`; `None` when every
    /// waiter can still meet its deadline (the caller then falls back to
    /// rejecting the newest arrival).
    pub fn shed_unmeetable(&mut self, now: f64, deadline_bucket: f64) -> Option<QueuedRequest> {
        let mut victim: Option<(Priority, f64, u64, usize)> = None;
        for (i, q) in self.pending.iter().enumerate() {
            let cd = canonical_deadline(q.request.deadline, deadline_bucket);
            let slack = cd - (now - q.arrived_at);
            if slack >= 0.0 {
                continue;
            }
            let cand = (q.request.priority, slack, q.seq, i);
            // Lowest class first (Background > Batch in the Ord), then
            // most expired (smallest slack), then earliest seq.
            let better = match &victim {
                None => true,
                Some((p, s, seq, _)) => {
                    cand.0 > *p
                        || (cand.0 == *p && (cand.1 < *s || (cand.1 == *s && cand.2 < *seq)))
                }
            };
            if better {
                victim = Some(cand);
            }
        }
        let (_, _, _, idx) = victim?;
        self.pending.remove(idx)
    }
}

/// Clamp the per-request budget cap by the request's own budget hint:
/// the effective tick budget is the tighter of the two.
pub fn effective_budget(cap: &SearchBudget, hint: Option<f64>) -> SearchBudget {
    let ticks = match (cap.ticks, hint) {
        (Some(s), Some(h)) => Some(s.min(h)),
        (Some(s), None) => Some(s),
        (None, Some(h)) => Some(h),
        (None, None) => None,
    };
    SearchBudget { ticks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::TenantId;
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

    fn req_pri(t: TenantId, priority: Priority) -> PlanRequest {
        PlanRequest { priority, ..req(t) }
    }

    #[test]
    fn queue_rejects_above_capacity_and_drains_fifo() {
        let mut q = AdmissionQueue::new(2);
        q.try_admit(0, 0.0, req(1)).expect("admit");
        q.try_admit(1, 1.0, req(2)).expect("admit");
        let err = q.try_admit(2, 2.0, req(3)).expect_err("full");
        assert!(matches!(
            err,
            DecoError::Overloaded {
                queued: 2,
                capacity: 2
            }
        ));
        let batch = q.drain_batch(10);
        assert_eq!(batch.iter().map(|b| b.seq).collect::<Vec<_>>(), vec![0, 1]);
        assert!(q.is_empty());
        // Draining frees capacity again.
        q.try_admit(3, 3.0, req(3)).expect("admit after drain");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn priority_classes_drain_ahead_of_fifo() {
        let mut q = AdmissionQueue::new(8);
        q.try_admit(0, 0.0, req_pri(1, Priority::Background))
            .expect("admit");
        q.try_admit(1, 0.0, req_pri(2, Priority::Batch))
            .expect("admit");
        q.try_admit(2, 0.0, req_pri(3, Priority::Interactive))
            .expect("admit");
        q.try_admit(3, 0.0, req_pri(4, Priority::Interactive))
            .expect("admit");
        // Interactive (seq order), then batch, then background.
        let batch = q.drain_batch(3);
        assert_eq!(
            batch.iter().map(|b| b.seq).collect::<Vec<_>>(),
            vec![2, 3, 1]
        );
        let rest = q.drain_batch(3);
        assert_eq!(rest.iter().map(|b| b.seq).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn shed_picks_the_expired_lowest_class_first() {
        let mut q = AdmissionQueue::new(8);
        // Deadline 100 s; bucket 60 floors it to 60 canonical ticks.
        // Both the interactive and background requests arrived at 0 and
        // have expired by now=500; the fresh one (arrived 490) has not.
        q.try_admit(0, 0.0, req_pri(1, Priority::Interactive))
            .expect("admit");
        q.try_admit(1, 0.0, req_pri(2, Priority::Background))
            .expect("admit");
        q.try_admit(2, 490.0, req_pri(3, Priority::Batch))
            .expect("admit");
        let victim = q
            .shed_unmeetable(500.0, 60.0)
            .expect("two waiters are doomed");
        assert_eq!(victim.seq, 1, "background sheds before interactive");
        let victim = q
            .shed_unmeetable(500.0, 60.0)
            .expect("the doomed interactive is next");
        assert_eq!(victim.seq, 0);
        assert!(
            q.shed_unmeetable(500.0, 60.0).is_none(),
            "the fresh request still has slack"
        );
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn hints_tighten_but_never_loosen_budgets() {
        let share = SearchBudget::ticks(50.0);
        assert_eq!(effective_budget(&share, Some(20.0)).ticks, Some(20.0));
        assert_eq!(effective_budget(&share, Some(80.0)).ticks, Some(50.0));
        assert_eq!(effective_budget(&share, None).ticks, Some(50.0));
        let open = SearchBudget::unlimited();
        assert_eq!(effective_budget(&open, Some(9.0)).ticks, Some(9.0));
        assert!(effective_budget(&open, None).is_unlimited());
    }
}
