//! Heap allocations per request on the warm serving path.
//!
//! A warm hit is admission, a content-key digest, a cache lookup and a
//! response. None of that needs to copy the request's workflow: a
//! `Workflow` clone shares its graph, and the graph's shape digest is
//! computed once per graph. This test counts every heap allocation a
//! `PlanServer` makes while it answers an all-hit trace, so a change
//! that puts a deep copy or a per-request re-hash back on that path
//! fails here, deterministically, instead of as a throughput drop in a
//! timed benchmark.
//!
//! Its own test binary: the counting allocator is process-wide, and the
//! one `#[test]` keeps other tests' allocations out of the count.

use deco::cloud::{CloudSpec, MetadataStore};
use deco::engine::estimate::deadline_anchors;
use deco::engine::Deco;
use deco::serve::{Arrival, ArrivalTrace, PlanRequest, PlanServer, Priority, ServeConfig};
use deco::workflow::{generators, Workflow};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls; frees are free.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const REQUESTS: usize = 1024;
/// Same-tick arrivals: one solve cycle at the default batch size.
const PER_TICK: usize = 16;
/// The gate. Before workflows shared their graph, this trace made 121.5
/// allocations per request: every request's DAG was deep-copied twice
/// on admission and re-hashed for its key.
const MAX_ALLOCS_PER_REQUEST: f64 = 16.0;

/// The serving benchmarks' catalog: four Montage-1 and four Ligo-12
/// instances, each asked for at its medium deadline.
fn requests(spec: &CloudSpec) -> Vec<PlanRequest> {
    (0..4u64)
        .flat_map(|s| [generators::montage(1, 80 + s), generators::ligo(12, 80 + s)])
        .enumerate()
        .map(|(i, wf): (usize, Workflow)| {
            let (dmin, dmax) = deadline_anchors(&wf, spec);
            PlanRequest {
                tenant: i as u32 % 4,
                workflow: wf,
                deadline: 0.5 * (dmin + dmax),
                percentile: 0.9,
                budget_hint: None,
                priority: Priority::default(),
            }
        })
        .collect()
}

fn trace(keys: &[PlanRequest], n: usize) -> ArrivalTrace {
    ArrivalTrace::new(
        (0..n)
            .map(|i| Arrival {
                at_tick: (i / PER_TICK) as f64 * 1e12,
                request: keys[(i * 5 + i / 8) % keys.len()].clone(),
            })
            .collect(),
    )
}

#[test]
fn a_warm_hit_allocates_a_bounded_amount_per_request() {
    let store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 25);
    let spec = store.spec.clone();
    let mut deco = Deco::new(store);
    deco.options.mc_iters = 30;
    deco.options.search.max_states = 150;
    let mut server = PlanServer::new(deco, ServeConfig::default());

    let keys = requests(&spec);
    let (_, warmed) = server.serve_trace(&trace(&keys, keys.len()), 1);
    assert_eq!(
        warmed.misses,
        keys.len() as u64,
        "pre-warm solves every key"
    );

    let hot = trace(&keys, REQUESTS);
    let before = ALLOCS.load(Ordering::Relaxed);
    let (responses, stats) = server.serve_trace(&hot, 1);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(responses.len(), REQUESTS);
    assert_eq!(stats.hits, REQUESTS as u64, "every request is a warm hit");
    let per_request = allocs as f64 / REQUESTS as f64;
    assert!(
        per_request <= MAX_ALLOCS_PER_REQUEST,
        "{per_request:.1} allocations per warm request (gate {MAX_ALLOCS_PER_REQUEST})"
    );
}
