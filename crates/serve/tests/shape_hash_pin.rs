//! Pinned workflow shape digests.
//!
//! `workflow_shape_hash` is the structural part of every plan-cache key,
//! and keys are persisted: plan-store WALs and supervisor journals hold
//! them, so a recovered tier looks its plans up by digests computed by
//! an earlier binary. Any change to the digest's seed, field order or
//! canonical edge order strands every persisted entry. This test fixes
//! the digest of generated, DAX-parsed and hand-built workflows.

use deco_serve::workflow_shape_hash;
use deco_workflow::dax::parse_dax;
use deco_workflow::{generators, TaskProfile, Workflow};

/// A three-job DAX document: a fan-in whose jobs share files.
const FAN_IN_DAX: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<adag xmlns="http://pegasus.isi.edu/schema/DAX" name="fan-in" jobCount="3">
  <job id="ID01" name="left" runtime="5.5">
    <uses file="in.a" link="input" size="1000"/>
    <uses file="l.out" link="output" size="2000"/>
  </job>
  <job id="ID02" name="right" runtime="7.25">
    <uses file="in.b" link="input" size="300"/>
    <uses file="r.out" link="output" size="1500"/>
  </job>
  <job id="ID03" name="join" runtime="3">
    <uses file="l.out" link="input" size="2000"/>
    <uses file="r.out" link="input" size="1500"/>
    <uses file="out" link="output" size="50"/>
  </job>
  <child ref="ID03">
    <parent ref="ID01"/>
    <parent ref="ID02"/>
  </child>
</adag>
"#;

/// A diamond whose edges are added against `(from, to)` order: the digest
/// sorts edges, so insertion order must not reach it.
fn out_of_order_diamond() -> Workflow {
    let mut w = Workflow::new("diamond");
    let t: Vec<_> = (0..4)
        .map(|i| {
            w.add_task(
                format!("t{i}"),
                "x",
                TaskProfile::new(1.0 + i as f64, 10.0 * i as f64, 5.0),
            )
        })
        .collect();
    w.add_edge(t[2], t[3], 4.0).unwrap();
    w.add_edge(t[1], t[3], 3.0).unwrap();
    w.add_edge(t[0], t[2], 2.0).unwrap();
    w.add_edge(t[0], t[1], 1.0).unwrap();
    w
}

#[test]
fn shape_digests_are_pinned() {
    let cases: Vec<(&str, Workflow, u64)> = vec![
        (
            "montage(1, 80)",
            generators::montage(1, 80),
            0xebd8_0ac2_bff0_d2bc,
        ),
        (
            "ligo(12, 80)",
            generators::ligo(12, 80),
            0xa81c_b504_5076_2463,
        ),
        (
            "ligo(1000, 80)",
            generators::ligo(1000, 80),
            0x7048_e4c7_c349_4cd2,
        ),
        (
            "epigenomics(1000, 80)",
            generators::epigenomics(1000, 80),
            0xadb9_e3f1_a914_54b9,
        ),
        (
            "random_dag(40, 0.15, 7)",
            generators::random_dag(40, 0.15, 7),
            0x8183_b1cf_557d_fe96,
        ),
        (
            "FAN_IN_DAX",
            parse_dax(FAN_IN_DAX).unwrap(),
            0xe9a1_28a9_740b_c7c2,
        ),
        (
            "out_of_order_diamond",
            out_of_order_diamond(),
            0xce53_934b_d7b7_d0d0,
        ),
    ];
    let got: Vec<String> = cases
        .iter()
        .map(|(name, wf, _)| format!("{name}: {:#018x}", workflow_shape_hash(wf)))
        .collect();
    for (line, (name, _, want)) in got.iter().zip(&cases) {
        assert!(
            line.ends_with(&format!("{want:#018x}")),
            "{name} moved; every digest now:\n{}",
            got.join("\n")
        );
    }
}

#[test]
fn edge_insertion_order_and_names_do_not_reach_the_digest() {
    let mut w = Workflow::new("renamed");
    let t: Vec<_> = (0..4)
        .map(|i| {
            w.add_task(
                format!("other{i}"),
                "y",
                TaskProfile::new(1.0 + i as f64, 10.0 * i as f64, 5.0),
            )
        })
        .collect();
    w.add_edge(t[0], t[1], 1.0).unwrap();
    w.add_edge(t[0], t[2], 2.0).unwrap();
    w.add_edge(t[1], t[3], 3.0).unwrap();
    w.add_edge(t[2], t[3], 4.0).unwrap();
    assert_eq!(
        workflow_shape_hash(&w),
        workflow_shape_hash(&out_of_order_diamond())
    );
}
