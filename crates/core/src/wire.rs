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

use crate::codec::{
    decode_all, on_pipe, put_f64, put_opt, put_str, put_u32, put_u64, put_u8, Reader,
};
use crate::engine::{Deco, DecoOptions};
use crate::error::DecoError;
use deco_cloud::{CloudSpec, InstanceType, MetadataStore, Region, RetryConfig};
use deco_prob::Histogram;
use deco_solver::{SearchBudget, SearchOptions};
use deco_workflow::{TaskId, TaskProfile, Workflow};

/// Wire format version; bump when any encoded shape changes.
const WIRE_VERSION: u8 = 1;

fn corrupt(detail: impl std::fmt::Display) -> DecoError {
    DecoError::Transport(format!("wire payload corrupt: {detail}"))
}

fn read_version(r: &mut Reader<'_>, what: &str) -> Result<(), DecoError> {
    match r.u8()? {
        WIRE_VERSION => Ok(()),
        v => Err(corrupt(format!(
            "{what} codec version {v}, expected {WIRE_VERSION}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// SearchBudget
// ---------------------------------------------------------------------------

/// Append a [`SearchBudget`] to `out` (no version byte — budgets are
/// always embedded in a versioned parent payload). A retired slot
/// follows the ticks, where a wall-clock guard used to sit: it is always
/// written as `None`, so the format (and every journal on disk) stays
/// unchanged.
pub fn encode_budget(out: &mut Vec<u8>, b: &SearchBudget) {
    put_opt(out, b.ticks, put_f64);
    put_opt(out, None, put_f64);
}

/// Decode a [`SearchBudget`] written by [`encode_budget`]. Reader-level:
/// failures keep the reader's error type, for the enclosing decoder to
/// map at its boundary. A set retired slot is corruption.
pub fn decode_budget(r: &mut Reader<'_>) -> Result<SearchBudget, DecoError> {
    let ticks = r.opt(Reader::f64)?;
    if r.opt(Reader::f64)?.is_some() {
        return Err(DecoError::Store(
            "retired wall-clock budget slot is set".into(),
        ));
    }
    Ok(SearchBudget { ticks })
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
    decode_all(bytes, read_workflow).map_err(on_pipe)
}

fn read_workflow(r: &mut Reader<'_>) -> Result<Workflow, DecoError> {
    read_version(r, "workflow")?;
    let mut wf = Workflow::new(r.str()?);
    for _ in 0..r.len("tasks")? {
        let tname = r.str()?;
        let exec = r.str()?;
        let (cpu, read, write) = (r.f64()?, r.f64()?, r.f64()?);
        if !(cpu >= 0.0 && read >= 0.0 && write >= 0.0) {
            return Err(corrupt(format!(
                "task {tname} has a negative profile component"
            )));
        }
        wf.add_task(tname, exec, TaskProfile::new(cpu, read, write));
    }
    for _ in 0..r.len("edges")? {
        let (from, to) = (TaskId(r.u32()?), TaskId(r.u32()?));
        wf.add_edge(from, to, r.f64()?)
            .map_err(|e| corrupt(format!("edge: {e}")))?;
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

fn read_hist(r: &mut Reader<'_>) -> Result<Histogram, DecoError> {
    let lo = r.f64()?;
    let width = r.f64()?;
    let n = r.len("histogram bins")?;
    if !width.is_finite() || width <= 0.0 || n == 0 {
        return Err(corrupt(format!(
            "degenerate histogram geometry (width {width}, {n} bins)"
        )));
    }
    let mut probs = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        let p = r.f64()?;
        if !(p >= 0.0 && p.is_finite()) {
            return Err(corrupt("negative histogram mass"));
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

fn read_spec(r: &mut Reader<'_>) -> Result<CloudSpec, DecoError> {
    let n_types = r.len("instance types")?;
    let mut types = Vec::with_capacity(n_types.min(4096));
    for _ in 0..n_types {
        types.push(InstanceType {
            name: r.str()?,
            price_per_hour: r.f64()?,
            ecu: r.f64()?,
            seq_io_gamma: (r.f64()?, r.f64()?),
            rand_io_normal: (r.f64()?, r.f64()?),
            net_normal: (r.f64()?, r.f64()?),
        });
    }
    let n_regions = r.len("regions")?;
    let mut regions = Vec::with_capacity(n_regions.min(4096));
    for _ in 0..n_regions {
        regions.push(Region {
            name: r.str()?,
            price_multiplier: r.f64()?,
        });
    }
    Ok(CloudSpec {
        types,
        regions,
        inter_region_net: (r.f64()?, r.f64()?),
        inter_region_price_per_gb: r.f64()?,
        billing_quantum: r.f64()?,
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
    decode_all(bytes, read_store).map_err(on_pipe)
}

fn read_store(r: &mut Reader<'_>) -> Result<MetadataStore, DecoError> {
    read_version(r, "store")?;
    let spec = read_spec(r)?;
    let (n_types, n_regions) = (spec.types.len(), spec.regions.len());
    let n_hists = r.len("histogram sets")?;
    if n_hists != n_types {
        return Err(corrupt(format!(
            "{n_hists} histogram sets for {n_types} instance types"
        )));
    }
    let mut hists = Vec::with_capacity(n_hists);
    for _ in 0..n_hists {
        hists.push([read_hist(r)?, read_hist(r)?, read_hist(r)?]);
    }
    let cross = read_hist(r)?;
    let n_rows = r.len("fail-rate rows")?;
    if n_rows != n_types {
        return Err(corrupt(format!(
            "{n_rows} fail-rate rows for {n_types} types"
        )));
    }
    let mut fail_rates = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let n_cols = r.len("fail-rate columns")?;
        if n_cols != n_regions {
            return Err(corrupt(format!(
                "{n_cols} fail-rate columns for {n_regions} regions"
            )));
        }
        let mut row = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            row.push(r.f64()?);
        }
        fail_rates.push(row);
    }
    let epoch = r.u64()?;
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
    put_opt(&mut out, o.retry.as_ref(), |out, rc| {
        put_u32(out, rc.max_attempts);
        put_f64(out, rc.backoff_base);
        put_f64(out, rc.backoff_cap);
    });
    out
}

/// Decode an engine written by [`encode_engine`].
pub fn decode_engine(bytes: &[u8]) -> Result<Deco, DecoError> {
    decode_all(bytes, read_engine).map_err(on_pipe)
}

fn read_engine(r: &mut Reader<'_>) -> Result<Deco, DecoError> {
    let store = read_store(r)?;
    let mc_iters = r.u64()? as usize;
    if mc_iters == 0 {
        return Err(DecoError::Store(
            "engine has zero Monte-Carlo iterations per state".into(),
        ));
    }
    let beam_width = r.u64()? as usize;
    let wlog_bins = r.u64()? as usize;
    let mut deco = Deco::new(store);
    deco.options = DecoOptions {
        mc_iters,
        beam_width,
        wlog_bins,
        search: SearchOptions {
            max_states: r.u64()? as usize,
            patience: r.u64()? as usize,
            batch: r.u64()? as usize,
            seed: r.u64()?,
            budget: decode_budget(r)?,
        },
        retry: r.opt(|r| {
            Ok(RetryConfig {
                max_attempts: r.u32()?,
                backoff_base: r.f64()?,
                backoff_cap: r.f64()?,
            })
        })?,
    };
    Ok(deco)
}

// ---------------------------------------------------------------------------
// DecoError (display-exact)
// ---------------------------------------------------------------------------

/// Append a [`DecoError`] to `out`. Display-exact for every variant a
/// solve can produce; the structured parser/evaluator variants degrade to
/// a rendered-message passthrough (tag 9). Tag 8 is retired (a
/// per-tenant quota refusal) and decodes as an unknown tag.
pub fn encode_error(out: &mut Vec<u8>, e: &DecoError) {
    let (tag, msg) = match e {
        DecoError::Program(m) => (1, m),
        DecoError::Translate(m) => (2, m),
        DecoError::Plan(m) => (3, m),
        DecoError::Infeasible(m) => (4, m),
        DecoError::Store(m) => (5, m),
        DecoError::Transport(m) => (6, m),
        DecoError::Overloaded { queued, capacity } => {
            put_u8(out, 7);
            put_u64(out, *queued as u64);
            put_u64(out, *capacity as u64);
            return;
        }
        // Structured source-position errors never occur on a worker's
        // solve path (workflows arrive pre-parsed); keep the rendered
        // message so nothing is silently lost if one ever does.
        other @ (DecoError::Parse(_) | DecoError::Eval(_) | DecoError::Dax(_)) => {
            put_u8(out, 9);
            put_str(out, &other.to_string());
            return;
        }
    };
    put_u8(out, tag);
    put_str(out, msg);
}

/// Decode an error written by [`encode_error`]. Reader-level, like
/// [`decode_budget`].
pub fn decode_error(r: &mut Reader<'_>) -> Result<DecoError, DecoError> {
    Ok(match r.u8()? {
        1 => DecoError::Program(r.str()?),
        2 => DecoError::Translate(r.str()?),
        3 => DecoError::Plan(r.str()?),
        4 => DecoError::Infeasible(r.str()?),
        5 => DecoError::Store(r.str()?),
        6 => DecoError::Transport(r.str()?),
        7 => DecoError::Overloaded {
            queued: r.u64()? as usize,
            capacity: r.u64()? as usize,
        },
        9 => DecoError::Transport(format!("remote solve failed: {}", r.str()?)),
        t => return Err(corrupt(format!("unknown error tag {t}"))),
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
    fn an_engine_without_monte_carlo_iterations_is_rejected() {
        let store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 10);
        let mut deco = Deco::new(store);
        deco.options.mc_iters = 0;
        match decode_engine(&encode_engine(&deco)) {
            Err(DecoError::Transport(_)) => {}
            Err(other) => panic!("expected a transport error, got {other}"),
            Ok(_) => panic!("an engine with mc_iters = 0 decoded"),
        }
    }

    #[test]
    fn engine_round_trip_preserves_every_option() {
        let store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 10);
        let mut deco = Deco::new(store);
        deco.options.mc_iters = 37;
        deco.options.beam_width = 5;
        deco.options.search.seed = 0xDEAD_BEEF;
        deco.options.search.budget = SearchBudget { ticks: Some(1.5e9) };
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
        let rc = back.options.retry.expect("retry config");
        assert_eq!(rc.max_attempts, 3);
        assert_eq!(encode_engine(&deco), encode_engine(&back));
    }

    #[test]
    fn a_set_retired_wall_slot_is_a_store_error() {
        let mut out = Vec::new();
        encode_budget(&mut out, &SearchBudget::ticks(40.0));
        // ticks: tag + f64; the retired slot: one `None` tag.
        assert_eq!(out.len(), 1 + 8 + 1);
        assert_eq!(out[9], 0, "the retired slot is written as None");
        let back = decode_budget(&mut Reader::new(&out)).expect("round trip");
        assert_eq!(back, SearchBudget::ticks(40.0));
        out.truncate(9);
        put_opt(&mut out, Some(2.5), put_f64);
        match decode_budget(&mut Reader::new(&out)) {
            Err(DecoError::Store(msg)) => assert!(msg.contains("retired"), "{msg}"),
            other => panic!("expected a store error, got {other:?}"),
        }
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
        ];
        for e in cases {
            let mut out = Vec::new();
            encode_error(&mut out, &e);
            let mut r = Reader::new(&out);
            let back = decode_error(&mut r).expect("round trip");
            assert!(r.done());
            assert_eq!(back.to_string(), e.to_string(), "display-exact");
        }
        // The retired quota tag with its three `u64` fields.
        let mut retired = vec![8u8];
        retired.extend_from_slice(&[0; 24]);
        assert!(decode_error(&mut Reader::new(&retired)).is_err());
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
