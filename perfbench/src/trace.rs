//! In-memory spans recorded from outside the engine, around each call
//! into a layer, and the [`TracedBackend`] wrapper that spans every
//! backend call the public `serve_trace_backend` loop makes.
//!
//! A span is (name, start, end, parent, id): `id` is the cycle or plan
//! the work belongs to, so the spans of one unit of work share it. A
//! layer's self time is its span minus the part its children cover.

use crate::json::Json;
use deco_cloud::MetadataStore;
use deco_core::supervisor::SupervisedPlan;
use deco_core::{Deco, DecoError};
use deco_serve::{
    BackendObservability, PlanResponse, ServeBackend, ServeCheckpoint, ServeConfig, SolveJob,
};
use deco_solver::SearchBudget;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer, if any.
    pub parent: Option<u32>,
    /// The cycle or plan this work belongs to.
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals kept for every span ever closed, whether or not the
/// span itself was retained.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    pub ns: u64,
}

/// Records spans in memory; nothing is written until the run ends.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    /// Spans retained for the trace file; totals keep counting past it.
    keep: usize,
    totals: BTreeMap<&'static str, Total>,
    /// Stack of open spans: (name, start, id, retained index).
    open: Vec<(&'static str, u64, u64, Option<u32>)>,
}

impl Tracer {
    pub fn new(keep: usize) -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            keep,
            totals: BTreeMap::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        let start = self.now_ns();
        let slot = if self.spans.len() < self.keep {
            let parent = self.open.iter().rev().find_map(|o| o.3);
            self.spans.push(Span {
                name,
                start_ns: start,
                end_ns: start,
                parent,
                id,
            });
            Some((self.spans.len() - 1) as u32)
        } else {
            None
        };
        self.open.push((name, start, id, slot));
    }

    /// Close the innermost open span; returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let end = self.now_ns();
        let (name, start, _, slot) = self.open.pop().expect("exit without a matching enter");
        if let Some(i) = slot {
            self.spans[i as usize].end_ns = end;
        }
        let t = self.totals.entry(name).or_default();
        t.count += 1;
        t.ns += end - start;
        end - start
    }

    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    pub fn seconds(&self, name: &str) -> f64 {
        self.total(name).ns as f64 * 1e-9
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: every retained span, and per-name totals with self
    /// times over the retained spans.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let selfs = self_times(&self.spans);
        let mut self_by_name: BTreeMap<&str, u64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&selfs) {
            *self_by_name.entry(s.name).or_default() += own;
        }
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("unit", Json::str("ns")),
            ("retained_spans", Json::Num(self.spans.len() as f64)),
            (
                "totals",
                Json::Obj(
                    self.totals
                        .iter()
                        .map(|(name, t)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("count", Json::Num(t.count as f64)),
                                    ("ns", Json::Num(t.ns as f64)),
                                    (
                                        "self_ns_retained",
                                        Json::Num(
                                            self_by_name.get(name).copied().unwrap_or(0) as f64
                                        ),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Arr(vec![
                                Json::str(s.name),
                                Json::Num(s.start_ns as f64),
                                Json::Num(s.end_ns as f64),
                                s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                                Json::Num(s.id as f64),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (overlapping children are not counted
/// twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut edge = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(edge);
                if hi > lo {
                    covered += hi - lo;
                    edge = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Span names of the backend boundary, as children of [`CALL`].
pub const CALL: &str = "serve.server.call";
pub const GET: &str = "backend.cache_get";
pub const INSERT: &str = "backend.cache_insert";
pub const SOLVE: &str = "backend.solve_jobs";
pub const BOUNDARY: &str = "backend.on_cycle_boundary";
pub const BOOKS: &str = "backend.books";
pub const COMMIT: &str = "backend.commit_cycle";

/// A [`ServeBackend`] that forwards every call to `inner` unchanged and
/// spans it. Wrapping changes no response byte: the loop sees the same
/// answers in the same order.
pub struct TracedBackend<'a, B: ServeBackend> {
    inner: &'a mut B,
    tracer: RefCell<Tracer>,
    cycle: u64,
}

impl<'a, B: ServeBackend> TracedBackend<'a, B> {
    pub fn new(inner: &'a mut B, tracer: Tracer) -> Self {
        TracedBackend {
            inner,
            tracer: RefCell::new(tracer),
            cycle: 0,
        }
    }

    /// Run one `serve_trace_backend` call over this wrapper inside a
    /// [`CALL`] span; returns what the loop returned.
    pub fn traced_call<T>(&mut self, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        self.tracer.get_mut().enter(CALL, id);
        let out = f(self);
        self.tracer.get_mut().exit();
        out
    }

    pub fn into_tracer(self) -> Tracer {
        self.tracer.into_inner()
    }
}

impl<B: ServeBackend> ServeBackend for TracedBackend<'_, B> {
    fn deco(&self) -> &Deco {
        self.inner.deco()
    }

    fn config(&self) -> &ServeConfig {
        self.inner.config()
    }

    fn cache_get(&mut self, key: u64) -> Option<SupervisedPlan> {
        let (t, cycle) = (self.tracer.get_mut(), self.cycle);
        t.enter(GET, cycle);
        let out = self.inner.cache_get(key);
        t.exit();
        out
    }

    fn cache_insert(&mut self, key: u64, plan: &SupervisedPlan, epoch: u64) -> usize {
        let (t, cycle) = (self.tracer.get_mut(), self.cycle);
        t.enter(INSERT, cycle);
        let out = self.inner.cache_insert(key, plan, epoch);
        t.exit();
        out
    }

    fn cache_purge_stale(&mut self, epoch: u64) -> usize {
        let (t, cycle) = (self.tracer.get_mut(), self.cycle);
        t.enter(BOOKS, cycle);
        let out = self.inner.cache_purge_stale(epoch);
        t.exit();
        out
    }

    // The read-only book queries run once per miss and cost a map lookup;
    // spanning them would cost more than they do. They stay in the loop's
    // self time.
    fn is_key_quarantined(&self, key: u64) -> bool {
        self.inner.is_key_quarantined(key)
    }

    fn strike_count(&self, key: u64) -> Option<u32> {
        self.inner.strike_count(key)
    }

    fn add_strike(&mut self, key: u64) -> u32 {
        let (t, cycle) = (self.tracer.get_mut(), self.cycle);
        t.enter(BOOKS, cycle);
        let out = self.inner.add_strike(key);
        t.exit();
        out
    }

    fn quarantine_key(&mut self, key: u64) {
        let (t, cycle) = (self.tracer.get_mut(), self.cycle);
        t.enter(BOOKS, cycle);
        self.inner.quarantine_key(key);
        t.exit();
    }

    fn clear_strikes(&mut self, key: u64) {
        let (t, cycle) = (self.tracer.get_mut(), self.cycle);
        t.enter(BOOKS, cycle);
        self.inner.clear_strikes(key);
        t.exit();
    }

    fn solve_jobs(
        &self,
        jobs: Vec<SolveJob>,
        workers: usize,
    ) -> BTreeMap<u64, (SearchBudget, Result<SupervisedPlan, DecoError>)> {
        self.tracer.borrow_mut().enter(SOLVE, self.cycle);
        let out = self.inner.solve_jobs(jobs, workers);
        self.tracer.borrow_mut().exit();
        out
    }

    fn refresh_calibration(&mut self, store: MetadataStore) -> (u64, usize) {
        self.inner.refresh_calibration(store)
    }

    fn on_cycle_boundary(&mut self, cycle: u64) {
        self.cycle = cycle;
        let t = self.tracer.get_mut();
        t.enter(BOUNDARY, cycle);
        self.inner.on_cycle_boundary(cycle);
        t.exit();
    }

    fn observability(&self) -> BackendObservability {
        self.inner.observability()
    }

    fn wants_commits(&self) -> bool {
        self.inner.wants_commits()
    }

    fn commit_cycle(
        &mut self,
        checkpoint: &ServeCheckpoint,
        new_responses: &[PlanResponse],
    ) -> bool {
        let (t, cycle) = (self.tracer.get_mut(), self.cycle);
        t.enter(COMMIT, cycle);
        let out = self.inner.commit_cycle(checkpoint, new_responses);
        t.exit();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{engine, serving_shapes, Materializer, TracePlan};
    use deco_serve::{serve_trace_backend, PlanServer, ServeSession};

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)), // overlaps a: union is [10, 50)
            span("c", 70, 80, Some(0)),
            span("a1", 12, 18, Some(1)), // grandchild: does not touch root
            span("late", 95, 120, Some(0)), // clipped to the parent's end
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 40 - 10 - 5, 20 - 6, 30, 10, 6, 25]
        );
    }

    #[test]
    fn tracer_nests_spans_and_keeps_totals_past_the_retention_cap() {
        let mut t = Tracer::new(2);
        t.enter("outer", 7);
        for _ in 0..2 {
            t.enter("inner", 7);
            t.exit();
        }
        t.exit();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.total("inner").count, 2);
        assert_eq!(t.total("outer").count, 1);
        assert!(t.total("outer").ns >= t.total("inner").ns);
        assert_eq!(t.total("never"), Total::default());
    }

    #[test]
    fn wrapping_a_backend_changes_no_response_byte() {
        let deco = engine(10, 40);
        let spec = deco.store.spec.clone();
        let cfg = ServeConfig::default();
        let plan = TracePlan::hot998(11, 800);
        let mut m = Materializer::new(serving_shapes(), &spec, cfg.deadline_bucket);
        let (trace, _) = m.trace(&plan, &plan.slots);
        let lines = |rs: &[PlanResponse]| -> Vec<String> {
            rs.iter().map(|r| r.canonical_line()).collect()
        };

        let mut plain = PlanServer::new(deco.clone(), cfg.clone());
        let (expect, expect_stats) = plain.serve_trace(&trace, 2);

        let mut server = PlanServer::new(deco, cfg);
        let mut traced = TracedBackend::new(&mut server, Tracer::new(1 << 16));
        let (got, got_stats) = traced.traced_call(0, |b| {
            serve_trace_backend(b, &trace, 2, &ServeSession::default())
        });
        assert_eq!(lines(&got), lines(&expect));
        assert_eq!(got_stats.digest(), expect_stats.digest());

        let tracer = traced.into_tracer();
        assert_eq!(tracer.total(CALL).count, 1);
        assert_eq!(tracer.total(GET).count, 800);
        assert_eq!(tracer.total(INSERT).count, expect_stats.misses);
        assert_eq!(tracer.total(BOUNDARY).count, expect_stats.cycles);
        let children = tracer.total(GET).ns + tracer.total(INSERT).ns + tracer.total(SOLVE).ns;
        assert!(tracer.total(CALL).ns > children);
    }
}
