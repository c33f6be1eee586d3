//! Bit-exact wire codecs for the out-of-process shard tier.
//!
//! A supervised shard worker is a separate process: everything it needs to
//! reproduce the supervisor's answers byte-for-byte — the calibrated
//! [`MetadataStore`], the engine options, each job's [`Workflow`] and
//! [`SearchBudget`] — must cross a pipe. These codecs are the transport
//! contract: **decode(encode(x)) is bit-identical to x**, every `f64`
//! round-tripped through raw bits (NaN payloads and signed zeros
//! included), because a single flipped mantissa bit in a histogram would
//! cascade into a different Monte-Carlo verdict and break the shard tier's
//! byte-identity oracle.
//!
//! Like the plan codec ([`crate::codec`]), the format is versioned,
//! little-endian, and length-validated; corrupt or truncated payloads
//! return [`DecoError::Transport`] — the caller treats that as a broken
//! peer, not a planning failure.
//!
//! [`DecoError`] itself also crosses the wire (a remote solve can fail).
//! Only its rendered form ever reaches a response line, so the codec is
//! *display-exact*: every variant a solve can produce round-trips with an
//! identical `Display` string. The parser/evaluator variants
//! ([`DecoError::Parse`]/[`DecoError::Eval`]/[`DecoError::Dax`]) carry
//! structured source positions that never occur on the solve path; they
//! degrade to a tagged [`DecoError::Transport`] that preserves the
//! rendered message.

use crate::codec::{put_f64, put_u32, put_u64, put_u8, Reader};
use crate::engine::{Deco, DecoOptions};
use crate::error::DecoError;
use deco_cloud::{CloudSpec, InstanceType, MetadataStore, Region, RetryConfig};
use deco_prob::Histogram;
use deco_solver::{SearchBudget, SearchOptions};
use deco_workflow::{TaskId, TaskProfile, Workflow};

/// Wire format version; bump when any encoded shape changes.
const WIRE_VERSION: u8 = 1;

/// Cap on decoded collection lengths (tasks, bins, instance types). The
/// shard protocol frames are already length-capped; this keeps a corrupt
/// length field from forcing a huge allocation inside a valid frame.
const MAX_LEN: u64 = 16_777_216;

fn transport(what: &str, detail: impl std::fmt::Display) -> DecoError {
    DecoError::Transport(format!("{what}: {detail}"))
}

// ---------------------------------------------------------------------------
// Small shared pieces
// ---------------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            put_f64(out, x);
        }
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            put_u64(out, x);
        }
    }
}

fn get_str(r: &mut Reader<'_>) -> Result<String, DecoError> {
    let n = r.u32().map_err(remap)? as usize;
    let raw = r.take(n).map_err(remap)?;
    std::str::from_utf8(raw)
        .map(str::to_string)
        .map_err(|e| transport("wire payload corrupt: string", e))
}

fn get_opt_f64(r: &mut Reader<'_>) -> Result<Option<f64>, DecoError> {
    match r.u8().map_err(remap)? {
        0 => Ok(None),
        1 => Ok(Some(r.f64().map_err(remap)?)),
        t => Err(transport("wire payload corrupt", format!("option tag {t}"))),
    }
}

fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, DecoError> {
    match r.u8().map_err(remap)? {
        0 => Ok(None),
        1 => Ok(Some(r.u64().map_err(remap)?)),
        t => Err(transport("wire payload corrupt", format!("option tag {t}"))),
    }
}

fn get_len(r: &mut Reader<'_>, what: &str) -> Result<usize, DecoError> {
    let n = r.u64().map_err(remap)?;
    if n > MAX_LEN {
        return Err(transport(
            "wire payload corrupt",
            format!("{what} length {n} exceeds the {MAX_LEN} cap"),
        ));
    }
    Ok(n as usize)
}

/// The plan-codec reader reports failures as [`DecoError::Store`]; on the
/// transport path the same byte-level failure means a broken peer.
fn remap(e: DecoError) -> DecoError {
    match e {
        DecoError::Store(m) => DecoError::Transport(m),
        other => other,
    }
}

// ---------------------------------------------------------------------------
// SearchBudget
// ---------------------------------------------------------------------------

/// Append a [`SearchBudget`] to `out` (no version byte — budgets are
/// always embedded in a versioned parent payload).
pub fn encode_budget(out: &mut Vec<u8>, b: &SearchBudget) {
    put_opt_f64(out, b.ticks);
    put_opt_f64(out, b.wall_seconds);
}

/// Decode a [`SearchBudget`] written by [`encode_budget`].
pub fn decode_budget(r: &mut Reader<'_>) -> Result<SearchBudget, DecoError> {
    Ok(SearchBudget {
        ticks: get_opt_f64(r)?,
        wall_seconds: get_opt_f64(r)?,
    })
}

// ---------------------------------------------------------------------------
// Workflow
// ---------------------------------------------------------------------------

/// Encode a [`Workflow`] — name, tasks, and edges. Adjacency is derived
/// state; the decoder rebuilds it through the ordinary builder so the
/// round-tripped DAG is structurally identical, not just field-equal.
pub fn encode_workflow(wf: &Workflow) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_u8(&mut out, WIRE_VERSION);
    put_str(&mut out, &wf.name);
    let tasks: Vec<_> = wf.tasks().collect();
    put_u64(&mut out, tasks.len() as u64);
    for t in &tasks {
        put_str(&mut out, &t.name);
        put_str(&mut out, &t.executable);
        put_f64(&mut out, t.profile.cpu_seconds);
        put_f64(&mut out, t.profile.read_bytes);
        put_f64(&mut out, t.profile.write_bytes);
    }
    let edges: Vec<_> = wf.edges().collect();
    put_u64(&mut out, edges.len() as u64);
    for e in &edges {
        put_u32(&mut out, e.from.0);
        put_u32(&mut out, e.to.0);
        put_f64(&mut out, e.bytes);
    }
    out
}

/// Decode a workflow written by [`encode_workflow`].
pub fn decode_workflow(bytes: &[u8]) -> Result<Workflow, DecoError> {
    let mut r = Reader::new(bytes);
    let version = r.u8().map_err(remap)?;
    if version != WIRE_VERSION {
        return Err(transport(
            "wire payload corrupt",
            format!("workflow codec version {version}, expected {WIRE_VERSION}"),
        ));
    }
    let name = get_str(&mut r)?;
    let mut wf = Workflow::new(name);
    let n_tasks = get_len(&mut r, "tasks")?;
    for _ in 0..n_tasks {
        let tname = get_str(&mut r)?;
        let exec = get_str(&mut r)?;
        let cpu = r.f64().map_err(remap)?;
        let read = r.f64().map_err(remap)?;
        let write = r.f64().map_err(remap)?;
        if !(cpu >= 0.0 && read >= 0.0 && write >= 0.0) {
            return Err(transport(
                "wire payload corrupt",
                format!("task {tname} has a negative profile component"),
            ));
        }
        wf.add_task(tname, exec, TaskProfile::new(cpu, read, write));
    }
    let n_edges = get_len(&mut r, "edges")?;
    for _ in 0..n_edges {
        let from = TaskId(r.u32().map_err(remap)?);
        let to = TaskId(r.u32().map_err(remap)?);
        let bytes_moved = r.f64().map_err(remap)?;
        wf.add_edge(from, to, bytes_moved)
            .map_err(|e| transport("wire payload corrupt: edge", e))?;
    }
    if !r.done() {
        return Err(transport("wire payload corrupt", "trailing bytes"));
    }
    Ok(wf)
}

// ---------------------------------------------------------------------------
// Engine (MetadataStore + DecoOptions)
// ---------------------------------------------------------------------------

fn put_hist(out: &mut Vec<u8>, h: &Histogram) {
    let (lo, width, probs) = h.raw_parts();
    put_f64(out, lo);
    put_f64(out, width);
    put_u64(out, probs.len() as u64);
    for &p in probs {
        put_f64(out, p);
    }
}

fn get_hist(r: &mut Reader<'_>) -> Result<Histogram, DecoError> {
    let lo = r.f64().map_err(remap)?;
    let width = r.f64().map_err(remap)?;
    let n = get_len(r, "histogram bins")?;
    if !width.is_finite() || width <= 0.0 || n == 0 {
        return Err(transport(
            "wire payload corrupt",
            format!("degenerate histogram geometry (width {width}, {n} bins)"),
        ));
    }
    let mut probs = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        let p = r.f64().map_err(remap)?;
        if !(p >= 0.0 && p.is_finite()) {
            return Err(transport("wire payload corrupt", "negative histogram mass"));
        }
        probs.push(p);
    }
    Ok(Histogram::from_raw_parts(lo, width, probs))
}

fn put_spec(out: &mut Vec<u8>, spec: &CloudSpec) {
    put_u64(out, spec.types.len() as u64);
    for t in &spec.types {
        put_str(out, &t.name);
        put_f64(out, t.price_per_hour);
        put_f64(out, t.ecu);
        put_f64(out, t.seq_io_gamma.0);
        put_f64(out, t.seq_io_gamma.1);
        put_f64(out, t.rand_io_normal.0);
        put_f64(out, t.rand_io_normal.1);
        put_f64(out, t.net_normal.0);
        put_f64(out, t.net_normal.1);
    }
    put_u64(out, spec.regions.len() as u64);
    for reg in &spec.regions {
        put_str(out, &reg.name);
        put_f64(out, reg.price_multiplier);
    }
    put_f64(out, spec.inter_region_net.0);
    put_f64(out, spec.inter_region_net.1);
    put_f64(out, spec.inter_region_price_per_gb);
    put_f64(out, spec.billing_quantum);
}

fn get_spec(r: &mut Reader<'_>) -> Result<CloudSpec, DecoError> {
    let n_types = get_len(r, "instance types")?;
    let mut types = Vec::with_capacity(n_types.min(4096));
    for _ in 0..n_types {
        types.push(InstanceType {
            name: get_str(r)?,
            price_per_hour: r.f64().map_err(remap)?,
            ecu: r.f64().map_err(remap)?,
            seq_io_gamma: (r.f64().map_err(remap)?, r.f64().map_err(remap)?),
            rand_io_normal: (r.f64().map_err(remap)?, r.f64().map_err(remap)?),
            net_normal: (r.f64().map_err(remap)?, r.f64().map_err(remap)?),
        });
    }
    let n_regions = get_len(r, "regions")?;
    let mut regions = Vec::with_capacity(n_regions.min(4096));
    for _ in 0..n_regions {
        regions.push(Region {
            name: get_str(r)?,
            price_multiplier: r.f64().map_err(remap)?,
        });
    }
    Ok(CloudSpec {
        types,
        regions,
        inter_region_net: (r.f64().map_err(remap)?, r.f64().map_err(remap)?),
        inter_region_price_per_gb: r.f64().map_err(remap)?,
        billing_quantum: r.f64().map_err(remap)?,
    })
}

/// Encode a calibrated [`MetadataStore`] including its private fields —
/// fail rates and `catalog_epoch` — so a worker plans against the exact
/// same facts the supervisor holds.
pub fn encode_store(store: &MetadataStore) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    put_u8(&mut out, WIRE_VERSION);
    let (spec, hists, cross, fail_rates, epoch) = store.raw_parts();
    put_spec(&mut out, spec);
    put_u64(&mut out, hists.len() as u64);
    for set in hists {
        for h in set {
            put_hist(&mut out, h);
        }
    }
    put_hist(&mut out, cross);
    put_u64(&mut out, fail_rates.len() as u64);
    for row in fail_rates {
        put_u64(&mut out, row.len() as u64);
        for &rate in row {
            put_f64(&mut out, rate);
        }
    }
    put_u64(&mut out, epoch);
    out
}

/// Decode a store written by [`encode_store`].
pub fn decode_store(bytes: &[u8]) -> Result<MetadataStore, DecoError> {
    let mut r = Reader::new(bytes);
    let store = decode_store_body(&mut r)?;
    if !r.done() {
        return Err(transport("wire payload corrupt", "trailing bytes"));
    }
    Ok(store)
}

fn decode_store_body(r: &mut Reader<'_>) -> Result<MetadataStore, DecoError> {
    let version = r.u8().map_err(remap)?;
    if version != WIRE_VERSION {
        return Err(transport(
            "wire payload corrupt",
            format!("store codec version {version}, expected {WIRE_VERSION}"),
        ));
    }
    let spec = get_spec(r)?;
    let n_hists = get_len(r, "histogram sets")?;
    if n_hists != spec.types.len() {
        return Err(transport(
            "wire payload corrupt",
            format!(
                "{n_hists} histogram sets for {} instance types",
                spec.types.len()
            ),
        ));
    }
    let mut hists = Vec::with_capacity(n_hists.min(4096));
    for _ in 0..n_hists {
        hists.push([get_hist(r)?, get_hist(r)?, get_hist(r)?]);
    }
    let cross = get_hist(r)?;
    let n_rows = get_len(r, "fail-rate rows")?;
    if n_rows != spec.types.len() {
        return Err(transport(
            "wire payload corrupt",
            format!("{n_rows} fail-rate rows for {} types", spec.types.len()),
        ));
    }
    let mut fail_rates = Vec::with_capacity(n_rows.min(4096));
    for _ in 0..n_rows {
        let n_cols = get_len(r, "fail-rate columns")?;
        if n_cols != spec.regions.len() {
            return Err(transport(
                "wire payload corrupt",
                format!(
                    "{n_cols} fail-rate columns for {} regions",
                    spec.regions.len()
                ),
            ));
        }
        let mut row = Vec::with_capacity(n_cols.min(4096));
        for _ in 0..n_cols {
            row.push(r.f64().map_err(remap)?);
        }
        fail_rates.push(row);
    }
    let epoch = r.u64().map_err(remap)?;
    Ok(MetadataStore::from_raw_parts(
        spec, hists, cross, fail_rates, epoch,
    ))
}

/// Encode a full engine — metadata store plus [`DecoOptions`] — as handed
/// to a worker in its `Hello` frame.
pub fn encode_engine(deco: &Deco) -> Vec<u8> {
    let mut out = encode_store(&deco.store);
    let o = &deco.options;
    put_u64(&mut out, o.mc_iters as u64);
    put_u64(&mut out, o.beam_width as u64);
    put_u64(&mut out, o.wlog_bins as u64);
    let s = &o.search;
    put_u64(&mut out, s.max_states as u64);
    put_u64(&mut out, s.patience as u64);
    put_u64(&mut out, s.batch as u64);
    put_u64(&mut out, s.seed);
    encode_budget(&mut out, &s.budget);
    put_opt_u64(&mut out, s.pool_reserve.map(|v| v as u64));
    match &o.retry {
        None => put_u8(&mut out, 0),
        Some(rc) => {
            put_u8(&mut out, 1);
            put_u32(&mut out, rc.max_attempts);
            put_f64(&mut out, rc.backoff_base);
            put_f64(&mut out, rc.backoff_cap);
        }
    }
    out
}

/// Decode an engine written by [`encode_engine`].
pub fn decode_engine(bytes: &[u8]) -> Result<Deco, DecoError> {
    let mut r = Reader::new(bytes);
    let store = decode_store_body(&mut r)?;
    let mc_iters = r.u64().map_err(remap)? as usize;
    let beam_width = r.u64().map_err(remap)? as usize;
    let wlog_bins = r.u64().map_err(remap)? as usize;
    let max_states = r.u64().map_err(remap)? as usize;
    let patience = r.u64().map_err(remap)? as usize;
    let batch = r.u64().map_err(remap)? as usize;
    let seed = r.u64().map_err(remap)?;
    let budget = decode_budget(&mut r)?;
    let pool_reserve = get_opt_u64(&mut r)?.map(|v| v as usize);
    let retry = match r.u8().map_err(remap)? {
        0 => None,
        1 => Some(RetryConfig {
            max_attempts: r.u32().map_err(remap)?,
            backoff_base: r.f64().map_err(remap)?,
            backoff_cap: r.f64().map_err(remap)?,
        }),
        t => return Err(transport("wire payload corrupt", format!("retry tag {t}"))),
    };
    if !r.done() {
        return Err(transport("wire payload corrupt", "trailing bytes"));
    }
    let mut deco = Deco::new(store);
    deco.options = DecoOptions {
        mc_iters,
        search: SearchOptions {
            max_states,
            patience,
            batch,
            seed,
            budget,
            pool_reserve,
        },
        beam_width,
        wlog_bins,
        retry,
    };
    Ok(deco)
}

// ---------------------------------------------------------------------------
// DecoError (display-exact)
// ---------------------------------------------------------------------------

/// Append a [`DecoError`] to `out`. Display-exact for every variant a
/// solve can produce; the structured parser/evaluator variants degrade to
/// a rendered-message passthrough (tag 9).
pub fn encode_error(out: &mut Vec<u8>, e: &DecoError) {
    match e {
        DecoError::Program(m) => {
            put_u8(out, 1);
            put_str(out, m);
        }
        DecoError::Translate(m) => {
            put_u8(out, 2);
            put_str(out, m);
        }
        DecoError::Plan(m) => {
            put_u8(out, 3);
            put_str(out, m);
        }
        DecoError::Infeasible(m) => {
            put_u8(out, 4);
            put_str(out, m);
        }
        DecoError::Store(m) => {
            put_u8(out, 5);
            put_str(out, m);
        }
        DecoError::Transport(m) => {
            put_u8(out, 6);
            put_str(out, m);
        }
        DecoError::Overloaded { queued, capacity } => {
            put_u8(out, 7);
            put_u64(out, *queued as u64);
            put_u64(out, *capacity as u64);
        }
        DecoError::QuotaExceeded {
            tenant,
            queued,
            quota,
        } => {
            put_u8(out, 8);
            put_u64(out, *tenant);
            put_u64(out, *queued as u64);
            put_u64(out, *quota as u64);
        }
        // Structured source-position errors never occur on a worker's
        // solve path (workflows arrive pre-parsed); keep the rendered
        // message so nothing is silently lost if one ever does.
        other @ (DecoError::Parse(_) | DecoError::Eval(_) | DecoError::Dax(_)) => {
            put_u8(out, 9);
            put_str(out, &other.to_string());
        }
    }
}

/// Decode an error written by [`encode_error`].
pub fn decode_error(r: &mut Reader<'_>) -> Result<DecoError, DecoError> {
    Ok(match r.u8().map_err(remap)? {
        1 => DecoError::Program(get_str(r)?),
        2 => DecoError::Translate(get_str(r)?),
        3 => DecoError::Plan(get_str(r)?),
        4 => DecoError::Infeasible(get_str(r)?),
        5 => DecoError::Store(get_str(r)?),
        6 => DecoError::Transport(get_str(r)?),
        7 => DecoError::Overloaded {
            queued: r.u64().map_err(remap)? as usize,
            capacity: r.u64().map_err(remap)? as usize,
        },
        8 => DecoError::QuotaExceeded {
            tenant: r.u64().map_err(remap)?,
            queued: r.u64().map_err(remap)? as usize,
            quota: r.u64().map_err(remap)? as usize,
        },
        9 => DecoError::Transport(format!("remote solve failed: {}", get_str(r)?)),
        t => {
            return Err(transport(
                "wire payload corrupt",
                format!("unknown error tag {t}"),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_cloud::CloudSpec;

    fn hist_bits(h: &Histogram) -> (u64, u64, Vec<u64>) {
        let (lo, width, probs) = h.raw_parts();
        (
            lo.to_bits(),
            width.to_bits(),
            probs.iter().map(|p| p.to_bits()).collect(),
        )
    }

    #[test]
    fn store_round_trip_is_bit_identical_including_private_state() {
        let mut store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 20);
        store.set_fail_rate(1, 0, 0.05);
        store.bump_catalog_epoch();
        let back = decode_store(&encode_store(&store)).expect("round trip");
        assert_eq!(back.catalog_epoch(), store.catalog_epoch());
        assert_eq!(back.fail_rate(1, 0), 0.05);
        let (spec_a, hists_a, cross_a, rates_a, _) = store.raw_parts();
        let (spec_b, hists_b, cross_b, rates_b, _) = back.raw_parts();
        assert_eq!(spec_a, spec_b);
        assert_eq!(rates_a, rates_b);
        assert_eq!(hist_bits(cross_a), hist_bits(cross_b));
        for (a, b) in hists_a.iter().zip(hists_b) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(hist_bits(x), hist_bits(y));
            }
        }
        // Deterministic encoding: equal stores, equal bytes.
        assert_eq!(encode_store(&store), encode_store(&back));
    }

    #[test]
    fn engine_round_trip_preserves_every_option() {
        let store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 10);
        let mut deco = Deco::new(store);
        deco.options.mc_iters = 37;
        deco.options.beam_width = 5;
        deco.options.search.seed = 0xDEAD_BEEF;
        deco.options.search.budget = SearchBudget {
            ticks: Some(1.5e9),
            wall_seconds: None,
        };
        deco.options.search.pool_reserve = Some(96);
        deco.options.retry = Some(RetryConfig {
            max_attempts: 3,
            backoff_base: 8.0,
            backoff_cap: 100.0,
        });
        let back = decode_engine(&encode_engine(&deco)).expect("round trip");
        assert_eq!(back.options.mc_iters, 37);
        assert_eq!(back.options.beam_width, 5);
        assert_eq!(back.options.search.seed, 0xDEAD_BEEF);
        assert_eq!(back.options.search.budget.ticks, Some(1.5e9));
        assert_eq!(back.options.search.budget.wall_seconds, None);
        assert_eq!(back.options.search.pool_reserve, Some(96));
        let rc = back.options.retry.expect("retry config");
        assert_eq!(rc.max_attempts, 3);
        assert_eq!(encode_engine(&deco), encode_engine(&back));
    }

    #[test]
    fn workflow_round_trip_rebuilds_an_identical_dag() {
        let mut wf = Workflow::new("wire-test");
        let a = wf.add_task("a", "exe-a", TaskProfile::new(10.0, 1e6, 2e6));
        let b = wf.add_task("b", "exe-b", TaskProfile::new(0.0, 0.0, 0.0));
        let c = wf.add_task("c", "exe-c", TaskProfile::new(5.5, 7.25, 0.125));
        wf.add_edge(a, b, 1.5e9).unwrap();
        wf.add_edge(a, c, 0.0).unwrap();
        wf.add_edge(b, c, 42.0).unwrap();
        let back = decode_workflow(&encode_workflow(&wf)).expect("round trip");
        assert_eq!(back, wf);
        assert_eq!(encode_workflow(&back), encode_workflow(&wf));
    }

    #[test]
    fn errors_round_trip_display_exact() {
        let cases = vec![
            DecoError::Program("bad goal".into()),
            DecoError::Translate("degenerate histogram".into()),
            DecoError::Plan("no feasible assignment".into()),
            DecoError::Infeasible("deadline too tight".into()),
            DecoError::Store("wal unreadable".into()),
            DecoError::Transport("pipe closed".into()),
            DecoError::Overloaded {
                queued: 64,
                capacity: 64,
            },
            DecoError::QuotaExceeded {
                tenant: 3,
                queued: 4,
                quota: 4,
            },
        ];
        for e in cases {
            let mut out = Vec::new();
            encode_error(&mut out, &e);
            let mut r = Reader::new(&out);
            let back = decode_error(&mut r).expect("round trip");
            assert!(r.done());
            assert_eq!(back.to_string(), e.to_string(), "display-exact");
        }
    }

    #[test]
    fn corrupt_payloads_return_transport_errors() {
        let wf = {
            let mut wf = Workflow::new("t");
            wf.add_task("a", "x", TaskProfile::new(1.0, 0.0, 0.0));
            wf
        };
        let bytes = encode_workflow(&wf);
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode_workflow(&bytes[..cut]), Err(DecoError::Transport(_))),
                "truncation at {cut} must be a transport error"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_workflow(&trailing),
            Err(DecoError::Transport(_))
        ));

        let store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 5);
        let mut enc = encode_store(&store);
        enc[0] = 99;
        assert!(
            matches!(decode_store(&enc), Err(DecoError::Transport(m)) if m.contains("version"))
        );
    }
}
