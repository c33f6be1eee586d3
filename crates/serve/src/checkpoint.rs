//! Serve-loop checkpoints: the complete replay state of
//! [`crate::server::serve_trace_backend`] at a cycle-commit boundary.
//!
//! The cycle loop is deterministic, so its entire continuation is a
//! small value: the trace cursor, the virtual clock, the pending queue,
//! the retry set and the running stats. A
//! backend that opts into commits (see [`crate::ServeBackend`]'s
//! `wants_commits`/`commit_cycle`) receives a [`ServeCheckpoint`] after
//! every cycle; a standby that decodes the last committed checkpoint
//! and resumes the loop from it serves the *remaining* trace exactly as
//! the dead process would have — byte-identical responses, identical
//! final stats.
//!
//! The codec follows the system-wide discipline: little-endian
//! fixed-width integers via [`deco_core::codec`], f64s as raw bits,
//! workflows and budgets through the canonical [`deco_core::wire`]
//! codecs, collections length-prefixed and walked in deterministic
//! order. `cycle_rows` are deliberately not checkpointed: they are
//! observability, excluded from the stats digest, and a failover run
//! only owes byte-identity on digested state.
//!
//! The head keeps one retired slot: a `u64` count, always zero, where a
//! per-shape solve-cost map used to sit. Writing the zero keeps the
//! journal format (and every journal on disk) unchanged; a non-zero
//! count is corruption.

use crate::queue::QueuedRequest;
use crate::request::{PlanRequest, Priority};
use crate::stats::ServeStats;
use deco_core::codec::{decode_all, put_f64, put_opt, put_u32, put_u64, put_u8, Reader};
use deco_core::wire::{decode_budget, decode_workflow, encode_budget, encode_workflow};
use deco_core::DecoError;
use deco_solver::SearchBudget;
use deco_workflow::Workflow;

/// One solve a cycle is responsible for: a fresh miss (attempt 0) or a
/// re-enqueued crash victim, plus every request waiting on its key. The
/// serve loop holds its retrying solves in this form, so a checkpoint
/// carries every field needed to resume a retry exactly (backoff
/// deadline, remaining budget, the waiters coalesced onto it).
#[derive(Debug, Clone)]
pub struct PendingCheckpoint {
    pub key: u64,
    pub workflow: Workflow,
    /// Canonical (bucket-floored) deadline.
    pub deadline: f64,
    pub percentile: f64,
    pub budget: SearchBudget,
    /// The budget component of the cache key (hint or config cap), kept
    /// so the job can be re-keyed after a calibration refresh.
    pub key_budget: Option<f64>,
    /// Dispatches lost to worker crashes so far.
    pub attempt: u32,
    /// Earliest tick at which this job may be dispatched again.
    pub not_before: f64,
    /// Requests answered by this solve, in join order (the first is the
    /// original requester).
    pub waiters: Vec<QueuedRequest>,
}

/// The serve loop's full continuation at a cycle-commit boundary.
#[derive(Debug, Clone, Default)]
pub struct ServeCheckpoint {
    /// Trace cursor: arrivals `[0, next)` have been admitted or rejected.
    pub next: u64,
    /// The virtual clock (service ticks) at the commit.
    pub now: f64,
    /// Calibration refreshes `[0, refresh_next)` have been applied.
    pub refresh_next: u64,
    /// The admission queue's pending requests, FIFO order.
    pub queue: Vec<QueuedRequest>,
    /// Retrying solves with their backoff deadlines and waiters.
    pub retries: Vec<PendingCheckpoint>,
    /// Running stats (without `cycle_rows`, which are not digested).
    pub stats: ServeStats,
    /// Responses emitted so far (the length of the response stream).
    pub emitted: u64,
}

fn corrupt(what: &str) -> DecoError {
    DecoError::Store(format!("serve checkpoint corrupt: {what}"))
}

fn put_priority(out: &mut Vec<u8>, p: Priority) {
    put_u8(
        out,
        match p {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::Background => 2,
        },
    );
}

fn read_priority(r: &mut Reader<'_>) -> Result<Priority, DecoError> {
    match r.u8()? {
        0 => Ok(Priority::Interactive),
        1 => Ok(Priority::Batch),
        2 => Ok(Priority::Background),
        other => Err(corrupt(&format!("unknown priority tag {other}"))),
    }
}

fn put_request(out: &mut Vec<u8>, req: &PlanRequest) {
    put_u32(out, req.tenant);
    let wf = encode_workflow(&req.workflow);
    put_u64(out, wf.len() as u64);
    out.extend_from_slice(&wf);
    put_f64(out, req.deadline);
    put_f64(out, req.percentile);
    put_opt(out, req.budget_hint, put_f64);
    put_priority(out, req.priority);
}

fn read_request(r: &mut Reader<'_>) -> Result<PlanRequest, DecoError> {
    let tenant = r.u32()?;
    let wf_len = r.len("workflow bytes")?;
    let workflow = decode_workflow(r.take(wf_len)?)?;
    let deadline = r.f64()?;
    let percentile = r.f64()?;
    let budget_hint = r.opt(Reader::f64)?;
    let priority = read_priority(r)?;
    Ok(PlanRequest {
        tenant,
        workflow,
        deadline,
        percentile,
        budget_hint,
        priority,
    })
}

fn put_queued(out: &mut Vec<u8>, q: &QueuedRequest) {
    put_u64(out, q.seq);
    put_f64(out, q.arrived_at);
    put_request(out, &q.request);
}

fn read_queued(r: &mut Reader<'_>) -> Result<QueuedRequest, DecoError> {
    Ok(QueuedRequest {
        seq: r.u64()?,
        arrived_at: r.f64()?,
        request: read_request(r)?,
    })
}

fn put_stats(out: &mut Vec<u8>, s: &ServeStats) {
    for v in [
        s.requests,
        s.planned,
        s.hits,
        s.misses,
        s.coalesced,
        s.rejected_overload,
        s.rejected_invalid,
        s.rejected_quota,
        s.solve_failures,
        s.evictions,
        s.stale_purged,
        s.cycles,
        s.stage_deco,
        s.stage_heuristic,
        s.stage_autoscaling,
        s.shed,
        s.worker_crashes,
        s.retries,
        s.escalated,
        s.quarantined,
        s.refreshes,
    ] {
        put_u64(out, v);
    }
    put_f64(out, s.straggler_ticks);
    put_u64(out, s.planned_by_tenant.len() as u64);
    for (&t, &n) in &s.planned_by_tenant {
        put_u32(out, t);
        put_u64(out, n);
    }
}

fn read_stats(r: &mut Reader<'_>) -> Result<ServeStats, DecoError> {
    let mut s = ServeStats::default();
    for slot in [
        &mut s.requests,
        &mut s.planned,
        &mut s.hits,
        &mut s.misses,
        &mut s.coalesced,
        &mut s.rejected_overload,
        &mut s.rejected_invalid,
        &mut s.rejected_quota,
        &mut s.solve_failures,
        &mut s.evictions,
        &mut s.stale_purged,
        &mut s.cycles,
        &mut s.stage_deco,
        &mut s.stage_heuristic,
        &mut s.stage_autoscaling,
        &mut s.shed,
        &mut s.worker_crashes,
        &mut s.retries,
        &mut s.escalated,
        &mut s.quarantined,
        &mut s.refreshes,
    ] {
        *slot = r.u64()?;
    }
    s.straggler_ticks = r.f64()?;
    let tenants = r.len("planned_by_tenant")?;
    for _ in 0..tenants {
        let t = r.u32()?;
        let n = r.u64()?;
        s.planned_by_tenant.insert(t, n);
    }
    Ok(s)
}

/// Write a block of queue waits (count, then raw bits): the one encoding
/// of `ServeStats::waits`, shared with the supervisor journal's wait log.
pub fn put_waits(out: &mut Vec<u8>, waits: &[f64]) {
    put_u64(out, waits.len() as u64);
    out.reserve(8 * waits.len());
    for &w in waits {
        put_f64(out, w);
    }
}

/// Read a block written by [`put_waits`].
pub fn read_waits(r: &mut Reader<'_>) -> Result<Vec<f64>, DecoError> {
    let n = r.len("waits")?;
    Ok(r.take(8 * n)?
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
        .collect())
}

impl ServeCheckpoint {
    /// Append the checkpoint *head*: every field except `stats.waits`,
    /// the part that grows with each answer. The journal seals a head per
    /// cycle and logs the waits separately.
    pub fn encode_head(&self, out: &mut Vec<u8>) {
        put_u64(out, self.next);
        put_f64(out, self.now);
        put_u64(out, self.refresh_next);
        put_u64(out, self.queue.len() as u64);
        for q in &self.queue {
            put_queued(out, q);
        }
        put_u64(out, self.retries.len() as u64);
        for p in &self.retries {
            put_u64(out, p.key);
            let wf = encode_workflow(&p.workflow);
            put_u64(out, wf.len() as u64);
            out.extend_from_slice(&wf);
            put_f64(out, p.deadline);
            put_f64(out, p.percentile);
            encode_budget(out, &p.budget);
            put_opt(out, p.key_budget, put_f64);
            put_u32(out, p.attempt);
            put_f64(out, p.not_before);
            put_u64(out, p.waiters.len() as u64);
            for w in &p.waiters {
                put_queued(out, w);
            }
        }
        // The retired shape-cost slot: an empty map.
        put_u64(out, 0);
        put_stats(out, &self.stats);
        put_u64(out, self.emitted);
    }

    /// Serialize the whole checkpoint (no framing): the head, then one
    /// waits block.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_head(&mut out);
        put_waits(&mut out, &self.stats.waits);
        out
    }

    /// Decode a checkpoint produced by [`ServeCheckpoint::encode`].
    /// Trailing bytes are an error: the payload is length-framed by its
    /// container, so extra bytes mean in-place corruption.
    pub fn decode(bytes: &[u8]) -> Result<ServeCheckpoint, DecoError> {
        decode_all(bytes, |r| {
            let mut ck = ServeCheckpoint::decode_head(r)?;
            ck.stats.waits = read_waits(r)?;
            Ok(ck)
        })
    }

    /// Read a head written by [`ServeCheckpoint::encode_head`];
    /// `stats.waits` comes back empty.
    pub fn decode_head(r: &mut Reader<'_>) -> Result<ServeCheckpoint, DecoError> {
        let next = r.u64()?;
        let now = r.f64()?;
        let refresh_next = r.u64()?;
        let queue_len = r.len("queue")?;
        let mut queue = Vec::with_capacity(queue_len);
        for _ in 0..queue_len {
            queue.push(read_queued(r)?);
        }
        let retry_len = r.len("retries")?;
        let mut retries = Vec::with_capacity(retry_len);
        for _ in 0..retry_len {
            let key = r.u64()?;
            let wf_len = r.len("retry workflow bytes")?;
            let workflow = decode_workflow(r.take(wf_len)?)?;
            let deadline = r.f64()?;
            let percentile = r.f64()?;
            let budget = decode_budget(r)?;
            let key_budget = r.opt(Reader::f64)?;
            let attempt = r.u32()?;
            let not_before = r.f64()?;
            let waiter_len = r.len("retry waiters")?;
            let mut waiters = Vec::with_capacity(waiter_len);
            for _ in 0..waiter_len {
                waiters.push(read_queued(r)?);
            }
            retries.push(PendingCheckpoint {
                key,
                workflow,
                deadline,
                percentile,
                budget,
                key_budget,
                attempt,
                not_before,
                waiters,
            });
        }
        if r.u64()? != 0 {
            return Err(corrupt("retired shape-cost slot is not empty"));
        }
        let stats = read_stats(r)?;
        let emitted = r.u64()?;
        Ok(ServeCheckpoint {
            next,
            now,
            refresh_next,
            queue,
            retries,
            stats,
            emitted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_workflow::generators;

    fn request(tenant: u32, hint: Option<f64>, priority: Priority) -> PlanRequest {
        PlanRequest {
            tenant,
            workflow: generators::pipeline(3, 40.0, tenant as u64),
            deadline: 900.0,
            percentile: 0.9,
            budget_hint: hint,
            priority,
        }
    }

    fn sample() -> ServeCheckpoint {
        let mut stats = ServeStats {
            requests: 17,
            planned: 11,
            cycles: 5,
            straggler_ticks: 3.5,
            ..ServeStats::default()
        };
        stats.planned_by_tenant.insert(1, 7);
        stats.planned_by_tenant.insert(9, 4);
        stats.waits = vec![0.0, 2.25, 7.5];
        ServeCheckpoint {
            next: 12,
            now: 321.5,
            refresh_next: 1,
            queue: vec![QueuedRequest {
                seq: 12,
                arrived_at: 300.0,
                request: request(1, None, Priority::Interactive),
            }],
            retries: vec![PendingCheckpoint {
                key: 0xDEAD_BEEF,
                workflow: generators::pipeline(2, 30.0, 7),
                deadline: 600.0,
                percentile: 0.95,
                budget: SearchBudget::unlimited(),
                key_budget: Some(80.0),
                attempt: 2,
                not_before: 330.0,
                waiters: vec![QueuedRequest {
                    seq: 9,
                    arrived_at: 290.0,
                    request: request(9, Some(50.0), Priority::Background),
                }],
            }],
            stats,
            emitted: 10,
        }
    }

    #[test]
    fn checkpoints_round_trip_bit_exactly() {
        let ck = sample();
        let bytes = ck.encode();
        let back = ServeCheckpoint::decode(&bytes).unwrap();
        assert_eq!(back.next, ck.next);
        assert_eq!(back.now.to_bits(), ck.now.to_bits());
        assert_eq!(back.refresh_next, ck.refresh_next);
        assert_eq!(back.queue.len(), 1);
        assert_eq!(back.queue[0].seq, 12);
        assert_eq!(back.queue[0].request.tenant, 1);
        assert_eq!(back.queue[0].request.priority, Priority::Interactive);
        assert_eq!(back.retries.len(), 1);
        let p = &back.retries[0];
        assert_eq!(p.key, 0xDEAD_BEEF);
        assert_eq!(p.attempt, 2);
        assert_eq!(p.not_before.to_bits(), 330.0f64.to_bits());
        assert_eq!(p.key_budget, Some(80.0));
        assert_eq!(p.waiters.len(), 1);
        assert_eq!(p.waiters[0].request.budget_hint, Some(50.0));
        assert_eq!(p.waiters[0].request.priority, Priority::Background);
        assert_eq!(back.stats.digest(), ck.stats.digest());
        assert_eq!(back.emitted, 10);
        // Re-encoding the decoded checkpoint is byte-identical.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn a_non_empty_retired_slot_is_a_store_error() {
        let ck = sample();
        let mut bytes = ck.encode();
        // The slot is the last `u64` before the stats, the emitted count
        // and the waits block.
        let mut tail = Vec::new();
        put_stats(&mut tail, &ck.stats);
        put_u64(&mut tail, ck.emitted);
        put_waits(&mut tail, &ck.stats.waits);
        let slot = bytes.len() - tail.len() - 8;
        assert_eq!(bytes[slot..slot + 8], [0u8; 8], "the slot holds a zero");
        bytes[slot..slot + 8].copy_from_slice(&1u64.to_le_bytes());
        match ServeCheckpoint::decode(&bytes) {
            Err(DecoError::Store(msg)) => assert!(msg.contains("retired"), "{msg}"),
            other => panic!("expected a store error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_at_every_offset_is_an_error_never_a_panic() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                ServeCheckpoint::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail cleanly"
            );
        }
    }
}
