//! Workflow generators.
//!
//! The paper evaluates on Montage (built from the Montage source and 2MASS
//! images at 1, 4 and 8 degrees), and on synthetic Ligo and Epigenomics
//! workflows produced with the Pegasus workflow generator, in sizes of
//! roughly 20, 100 and 1000 tasks. These builders reproduce the published
//! structures and the per-task profile statistics of Juve et al.,
//! "Characterizing and Profiling Scientific Workflows" (FGCS 2013). A small
//! seeded jitter differentiates workflow *instances* (the paper generates
//! 20 instances per setting).

use crate::dag::Workflow;
use crate::task::{TaskId, TaskProfile, MB};
use deco_prob::rng::{split_indexed, DecoRng};
use rand::Rng;

/// Why every generator edge is accepted: both ends were just added, each
/// edge runs from an earlier task to a later one, and no pair repeats.
const EDGE: &str = "generator edges join existing tasks forward, once each";

/// Scale factor applied to the scientific applications' per-task profiles
/// (CPU seconds and bytes alike). The published profile statistics (Juve et
/// al.) describe the per-task *shape*; the paper's inputs are far larger
/// (Montage and Ligo process hundreds of GB, making workflows run for
/// hours on first-generation instances), and hour-granular billing only
/// discriminates between plans at that scale.
pub const PROFILE_SCALE: f64 = 30.0;

/// Montage moves far more data than the other applications (the paper: its
/// inputs run to hundreds of GB, and the Figure 2 variance comes from disk
/// and network interference). Data volumes grow harder than CPU so the
/// I/O share of task runtime is significant on fast instances while the
/// instance-type speedup (Dmax/Dmin) stays wide.
pub const MONTAGE_CPU_SCALE: f64 = 30.0;
pub const MONTAGE_BYTES_SCALE: f64 = 300.0;

/// Multiplicative jitter in `[1-j, 1+j]` applied to CPU seconds so distinct
/// instances of the same application differ.
fn jitter(rng: &mut DecoRng, j: f64) -> f64 {
    1.0 + j * (rng.gen::<f64>() * 2.0 - 1.0)
}

/// A linear pipeline of `n` identical tasks; the Figure 4 example shape.
pub fn pipeline(n: usize, cpu_seconds: f64, stage_bytes: u64) -> Workflow {
    assert!(n > 0);
    let mut w = Workflow::new(format!("pipeline-{n}"));
    let b = stage_bytes as f64;
    let mut prev: Option<TaskId> = None;
    for i in 0..n {
        let t = w.add_task(
            format!("ID{:02}", i + 1),
            format!("process{}", i + 1),
            TaskProfile::new(cpu_seconds, b, b),
        );
        if let Some(p) = prev {
            w.add_edge(p, t, b).expect(EDGE);
        }
        prev = Some(t);
    }
    w
}

/// A fork-join: one source, `width` parallel workers, one sink.
pub fn fork_join(width: usize, cpu_seconds: f64, bytes: f64) -> Workflow {
    assert!(width > 0);
    let mut w = Workflow::new(format!("forkjoin-{width}"));
    let src = w.add_task(
        "src",
        "split",
        TaskProfile::new(cpu_seconds, bytes, bytes * width as f64),
    );
    let sink_profile = TaskProfile::new(cpu_seconds, bytes * width as f64, bytes);
    let mut workers = Vec::with_capacity(width);
    for i in 0..width {
        let t = w.add_task(
            format!("w{i}"),
            "work",
            TaskProfile::new(cpu_seconds, bytes, bytes),
        );
        w.add_edge(src, t, bytes).expect(EDGE);
        workers.push(t);
    }
    let sink = w.add_task("sink", "join", sink_profile);
    for t in workers {
        w.add_edge(t, sink, bytes).expect(EDGE);
    }
    w
}

// ---------------------------------------------------------------------------
// Montage
// ---------------------------------------------------------------------------

/// Montage mosaic workflow for a `degree x degree` square, seeded for
/// instance jitter.
///
/// The image grid is `g x g` with `g = 2 * degree`, giving the paper's three
/// sizes: Montage-1 ≈ 20 tasks, Montage-4 ≈ 250, Montage-8 ≈ 1000.
/// Structure (Juve et al., Fig. 2): mProjectPP per image, mDiffFit per
/// overlapping pair, mConcatFit, mBgModel, mBackground per image, mImgtbl,
/// mAdd, mShrink, mJPEG.
pub fn montage(degree: u32, seed: u64) -> Workflow {
    assert!(degree >= 1, "degree must be >= 1");
    montage_grid(2 * degree as usize, seed, format!("montage-{degree}"))
}

/// Montage with a target task count (used by the ensemble generator, which
/// needs sizes of exactly ~20/100/1000 regardless of mosaic degree).
pub fn montage_sized(target_tasks: usize, seed: u64) -> Workflow {
    // total(g) = g^2 (project) + 2g(g-1) (diff) + g^2 (background) + 5
    //          = 4g^2 - 2g + 5
    let mut g = 1usize;
    while 4 * (g + 1) * (g + 1) - 2 * (g + 1) + 5 <= target_tasks {
        g += 1;
    }
    montage_grid(g.max(1), seed, format!("montage-n{target_tasks}"))
}

fn montage_grid(g: usize, seed: u64, name: String) -> Workflow {
    let mut rng = split_indexed(seed, 0x6d6f6e74); // "mont"
    let mut w = Workflow::new(name);
    let p = g * g;
    let img = 4.0 * MB; // raw 2MASS J-band image
    let proj = 8.0 * MB; // reprojected image (doubles: data + area files)

    // Level 0: mProjectPP per input image.
    let mut project = Vec::with_capacity(p);
    for i in 0..p {
        let t = w.add_task(
            format!("mProjectPP_{i}"),
            "mProjectPP",
            TaskProfile::new(13.0 * jitter(&mut rng, 0.2), img, proj),
        );
        project.push(t);
    }

    // Level 1: mDiffFit per horizontally/vertically adjacent pair.
    let mut diffs = Vec::new();
    for r in 0..g {
        for c in 0..g {
            let here = project[r * g + c];
            if c + 1 < g {
                diffs.push(add_difffit(
                    &mut w,
                    &mut rng,
                    here,
                    project[r * g + c + 1],
                    proj,
                ));
            }
            if r + 1 < g {
                diffs.push(add_difffit(
                    &mut w,
                    &mut rng,
                    here,
                    project[(r + 1) * g + c],
                    proj,
                ));
            }
        }
    }

    // mConcatFit gathers every fit plane.
    let fit = 0.05 * MB;
    let concat = w.add_task(
        "mConcatFit",
        "mConcatFit",
        TaskProfile::new(8.0 * jitter(&mut rng, 0.2), fit * diffs.len() as f64, fit),
    );
    for &d in &diffs {
        w.add_edge(d, concat, fit).expect(EDGE);
    }

    // mBgModel computes background corrections.
    let bgmodel = w.add_task(
        "mBgModel",
        "mBgModel",
        TaskProfile::new(25.0 * jitter(&mut rng, 0.2), fit, fit),
    );
    w.add_edge(concat, bgmodel, fit).expect(EDGE);

    // mBackground per image: corrected image from projection + model.
    let mut background = Vec::with_capacity(p);
    for (i, &pr) in project.iter().enumerate() {
        let t = w.add_task(
            format!("mBackground_{i}"),
            "mBackground",
            TaskProfile::new(4.0 * jitter(&mut rng, 0.2), proj + fit, proj),
        );
        w.add_edge(pr, t, proj).expect(EDGE);
        w.add_edge(bgmodel, t, fit).expect(EDGE);
        background.push(t);
    }

    // mImgtbl builds the image table.
    let tbl = 0.1 * MB;
    let imgtbl = w.add_task(
        "mImgtbl",
        "mImgtbl",
        TaskProfile::new(4.0 * jitter(&mut rng, 0.2), tbl * p as f64, tbl),
    );
    for &b in &background {
        w.add_edge(b, imgtbl, tbl).expect(EDGE);
    }

    // mAdd co-adds the corrected images into the mosaic.
    let mosaic = proj * p as f64 * 0.6;
    let add = w.add_task(
        "mAdd",
        "mAdd",
        TaskProfile::new(
            (20.0 + 0.8 * p as f64) * jitter(&mut rng, 0.2),
            proj * p as f64 + tbl,
            mosaic,
        ),
    );
    w.add_edge(imgtbl, add, tbl).expect(EDGE);

    // mShrink and mJPEG finalize.
    let shrink = w.add_task(
        "mShrink",
        "mShrink",
        TaskProfile::new(12.0 * jitter(&mut rng, 0.2), mosaic, mosaic / 16.0),
    );
    w.add_edge(add, shrink, mosaic).expect(EDGE);
    let jpeg = w.add_task(
        "mJPEG",
        "mJPEG",
        TaskProfile::new(4.0 * jitter(&mut rng, 0.2), mosaic / 16.0, mosaic / 64.0),
    );
    w.add_edge(shrink, jpeg, mosaic / 16.0).expect(EDGE);
    w.scale_cpu_and_bytes(MONTAGE_CPU_SCALE, MONTAGE_BYTES_SCALE);
    w
}

fn add_difffit(w: &mut Workflow, rng: &mut DecoRng, a: TaskId, b: TaskId, proj: f64) -> TaskId {
    let t = w.add_task(
        format!("mDiffFit_{}", w.len()),
        "mDiffFit",
        TaskProfile::new(6.0 * jitter(rng, 0.2), 2.0 * proj, 0.1 * MB),
    );
    w.add_edge(a, t, proj).expect(EDGE);
    w.add_edge(b, t, proj).expect(EDGE);
    t
}

// ---------------------------------------------------------------------------
// Ligo (Inspiral analysis)
// ---------------------------------------------------------------------------

/// Synthetic Ligo Inspiral workflow with roughly `target_tasks` tasks.
///
/// Structure (Juve et al., Fig. 5): blocks of TmpltBank → Inspiral →
/// Thinca, then TrigBank → Inspiral (stage 2) → Thinca (stage 2). Each
/// block uses a group width `G = 9`; the number of blocks scales to the
/// target size.
pub fn ligo(target_tasks: usize, seed: u64) -> Workflow {
    assert!(target_tasks >= 10, "ligo needs at least ~10 tasks");
    let mut rng = split_indexed(seed, 0x6c69676f); // "ligo"
    let mut w = Workflow::new(format!("ligo-n{target_tasks}"));
    // Block of width G contributes 4G + 2 tasks.
    let g: usize = if target_tasks < 40 {
        ((target_tasks - 2) / 4).max(2)
    } else {
        9
    };
    let per_block = 4 * g + 2;
    let blocks = (target_tasks / per_block).max(1);
    let seg = 30.0 * MB; // gravitational-wave data segment per template bank
    let trig = 2.0 * MB;
    for b in 0..blocks {
        // Stage 1: TmpltBank -> Inspiral (1:1), all Inspirals -> Thinca.
        let mut inspirals = Vec::with_capacity(g);
        for i in 0..g {
            let bank = w.add_task(
                format!("TmpltBank_{b}_{i}"),
                "TmpltBank",
                TaskProfile::new(18.0 * jitter(&mut rng, 0.2), seg, 1.0 * MB),
            );
            let insp = w.add_task(
                format!("Inspiral1_{b}_{i}"),
                "Inspiral",
                TaskProfile::new(220.0 * jitter(&mut rng, 0.3), seg + 1.0 * MB, trig),
            );
            w.add_edge(bank, insp, 1.0 * MB).expect(EDGE);
            inspirals.push(insp);
        }
        let thinca1 = w.add_task(
            format!("Thinca1_{b}"),
            "Thinca",
            TaskProfile::new(5.0 * jitter(&mut rng, 0.2), trig * g as f64, trig),
        );
        for &i in &inspirals {
            w.add_edge(i, thinca1, trig).expect(EDGE);
        }
        // Stage 2: TrigBank -> Inspiral2 (1:1), all -> Thinca2.
        let mut insp2 = Vec::with_capacity(g);
        for i in 0..g {
            let tb = w.add_task(
                format!("TrigBank_{b}_{i}"),
                "TrigBank",
                TaskProfile::new(5.0 * jitter(&mut rng, 0.2), trig, 1.0 * MB),
            );
            w.add_edge(thinca1, tb, trig).expect(EDGE);
            let i2 = w.add_task(
                format!("Inspiral2_{b}_{i}"),
                "Inspiral",
                TaskProfile::new(180.0 * jitter(&mut rng, 0.3), seg + 1.0 * MB, trig),
            );
            w.add_edge(tb, i2, 1.0 * MB).expect(EDGE);
            insp2.push(i2);
        }
        let thinca2 = w.add_task(
            format!("Thinca2_{b}"),
            "Thinca",
            TaskProfile::new(5.0 * jitter(&mut rng, 0.2), trig * g as f64, trig),
        );
        for &i in &insp2 {
            w.add_edge(i, thinca2, trig).expect(EDGE);
        }
    }
    w.scale_profiles(PROFILE_SCALE);
    w
}

// ---------------------------------------------------------------------------
// Epigenomics
// ---------------------------------------------------------------------------

/// Synthetic Epigenomics workflow with roughly `target_tasks` tasks.
///
/// Structure (Juve et al., Fig. 4): fastQSplit fans out into `L` parallel
/// lanes of filterContams → sol2sanger → fastq2bfq → map, then mapMerge →
/// maqIndex → pileup. Total = 4L + 4. Epigenomics is the most CPU-bound of
/// the three applications (the paper notes it processes dozens of GB).
pub fn epigenomics(target_tasks: usize, seed: u64) -> Workflow {
    assert!(target_tasks >= 8, "epigenomics needs at least 8 tasks");
    let mut rng = split_indexed(seed, 0x65706967); // "epig"
    let lanes = ((target_tasks - 4) / 4).max(1);
    let mut w = Workflow::new(format!("epigenomics-n{target_tasks}"));
    let chunk = 400.0 * MB / lanes as f64 * 8.0; // split of a multi-GB read set
    let split = w.add_task(
        "fastQSplit",
        "fastQSplit",
        TaskProfile::new(
            35.0 * jitter(&mut rng, 0.2),
            chunk * lanes as f64,
            chunk * lanes as f64,
        ),
    );
    let mut maps = Vec::with_capacity(lanes);
    for i in 0..lanes {
        let filter = w.add_task(
            format!("filterContams_{i}"),
            "filterContams",
            TaskProfile::new(2.0 * jitter(&mut rng, 0.2), chunk, chunk * 0.9),
        );
        w.add_edge(split, filter, chunk).expect(EDGE);
        let sol = w.add_task(
            format!("sol2sanger_{i}"),
            "sol2sanger",
            TaskProfile::new(1.5 * jitter(&mut rng, 0.2), chunk * 0.9, chunk * 0.9),
        );
        w.add_edge(filter, sol, chunk * 0.9).expect(EDGE);
        let bfq = w.add_task(
            format!("fastq2bfq_{i}"),
            "fastq2bfq",
            TaskProfile::new(1.5 * jitter(&mut rng, 0.2), chunk * 0.9, chunk * 0.45),
        );
        w.add_edge(sol, bfq, chunk * 0.9).expect(EDGE);
        let map = w.add_task(
            format!("map_{i}"),
            "map",
            TaskProfile::new(
                320.0 * jitter(&mut rng, 0.3),
                chunk * 0.45 + 50.0 * MB,
                chunk * 0.2,
            ),
        );
        w.add_edge(bfq, map, chunk * 0.45).expect(EDGE);
        maps.push(map);
    }
    let merge = w.add_task(
        "mapMerge",
        "mapMerge",
        TaskProfile::new(
            12.0 * jitter(&mut rng, 0.2),
            chunk * 0.2 * lanes as f64,
            chunk * 0.2 * lanes as f64,
        ),
    );
    for &m in &maps {
        w.add_edge(m, merge, chunk * 0.2).expect(EDGE);
    }
    let index = w.add_task(
        "maqIndex",
        "maqIndex",
        TaskProfile::new(
            40.0 * jitter(&mut rng, 0.2),
            chunk * 0.2 * lanes as f64,
            100.0 * MB,
        ),
    );
    w.add_edge(merge, index, chunk * 0.2 * lanes as f64)
        .expect(EDGE);
    let pileup = w.add_task(
        "pileup",
        "pileup",
        TaskProfile::new(50.0 * jitter(&mut rng, 0.2), 100.0 * MB, 80.0 * MB),
    );
    w.add_edge(index, pileup, 100.0 * MB).expect(EDGE);
    w.scale_profiles(PROFILE_SCALE);
    w
}

/// A seeded random DAG for tests and fuzzing: `n` tasks, each pair
/// `(i, j), i < j` connected with probability `edge_prob`.
pub fn random_dag(n: usize, edge_prob: f64, seed: u64) -> Workflow {
    assert!(n > 0);
    assert!((0.0..=1.0).contains(&edge_prob));
    let mut rng = split_indexed(seed, 0x72616e64); // "rand"
                                                   // Decide adjacency and edge payloads first, so task profiles can cover
                                                   // their edges (read >= inbound, write >= distinct outbound payloads —
                                                   // the invariant the DAX emitter relies on).
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen::<f64>() < edge_prob {
                edges.push((i, j, (rng.gen::<f64>() * 8.0 * MB).ceil()));
            }
        }
    }
    let mut w = Workflow::new(format!("random-{n}"));
    let ids: Vec<TaskId> = (0..n)
        .map(|i| {
            let inbound: f64 = edges.iter().filter(|e| e.1 == i).map(|e| e.2).sum();
            let outbound: f64 = edges.iter().filter(|e| e.0 == i).map(|e| e.2).sum();
            let cpu = 1.0 + rng.gen::<f64>() * 30.0;
            let extra = rng.gen::<f64>() * 16.0 * MB;
            w.add_task(
                format!("r{i}"),
                "rand",
                TaskProfile::new(cpu, inbound + extra, outbound + extra * 0.5),
            )
        })
        .collect();
    for (i, j, bytes) in edges {
        w.add_edge(ids[i], ids[j], bytes).expect(EDGE);
    }
    w
}

/// The three applications of the evaluation, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    Montage,
    Ligo,
    Epigenomics,
}

impl App {
    /// Generate an instance with roughly `size` tasks.
    pub fn generate(self, size: usize, seed: u64) -> Workflow {
        match self {
            App::Montage => montage_sized(size, seed),
            App::Ligo => ligo(size, seed),
            App::Epigenomics => epigenomics(size, seed),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            App::Montage => "Montage",
            App::Ligo => "Ligo",
            App::Epigenomics => "Epigenomics",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_shape() {
        let w = pipeline(5, 10.0, 1024);
        assert_eq!(w.len(), 5);
        assert_eq!(w.edges().count(), 4);
        assert_eq!(w.depth(), 5);
        assert_eq!(w.width(), 1);
    }

    #[test]
    fn fork_join_shape() {
        let w = fork_join(8, 5.0, 1024.0);
        assert_eq!(w.len(), 10);
        assert_eq!(w.depth(), 3);
        assert_eq!(w.width(), 8);
        assert_eq!(w.roots().len(), 1);
        assert_eq!(w.sinks().len(), 1);
    }

    #[test]
    fn montage_sizes_match_paper_scales() {
        // Montage-1 ~ 20, Montage-4 ~ 250, Montage-8 ~ 1000 tasks.
        let m1 = montage(1, 0);
        let m4 = montage(4, 0);
        let m8 = montage(8, 0);
        assert!((15..=40).contains(&m1.len()), "m1 has {}", m1.len());
        assert!((180..=320).contains(&m4.len()), "m4 has {}", m4.len());
        assert!((850..=1100).contains(&m8.len()), "m8 has {}", m8.len());
    }

    #[test]
    fn montage_is_connected_single_sink() {
        let w = montage(1, 7);
        assert_eq!(w.sinks().len(), 1, "mJPEG is the only sink");
        assert_eq!(w.task(w.sinks()[0]).executable, "mJPEG");
        // All roots are projections.
        for r in w.roots() {
            assert_eq!(w.task(r).executable, "mProjectPP");
        }
    }

    #[test]
    fn montage_instances_differ_by_seed_but_share_structure() {
        let a = montage(1, 1);
        let b = montage(1, 2);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.edges().count(), b.edges().count());
        let cpu_a: f64 = a.tasks().map(|t| t.profile.cpu_seconds).sum();
        let cpu_b: f64 = b.tasks().map(|t| t.profile.cpu_seconds).sum();
        assert!((cpu_a - cpu_b).abs() > 1e-9, "instance jitter must differ");
        // Same seed reproduces exactly.
        assert_eq!(a, montage(1, 1));
    }

    #[test]
    fn montage_sized_hits_targets() {
        for &n in &[20usize, 100, 1000] {
            let w = montage_sized(n, 3);
            let got = w.len();
            assert!(
                got as f64 >= n as f64 * 0.5 && got <= n,
                "target {n}, got {got}"
            );
        }
    }

    #[test]
    fn ligo_sizes_and_structure() {
        for &n in &[20usize, 100, 1000] {
            let w = ligo(n, 4);
            let got = w.len();
            assert!(
                (got as f64 / n as f64 - 1.0).abs() < 0.5,
                "target {n}, got {got}"
            );
            assert!(w.depth() >= 6, "two-stage structure");
        }
        let w = ligo(100, 4);
        assert!(w.tasks().any(|t| t.executable == "TmpltBank"));
        assert!(w.tasks().any(|t| t.executable == "Thinca"));
    }

    #[test]
    fn epigenomics_sizes_and_structure() {
        for &n in &[20usize, 100, 1000] {
            let w = epigenomics(n, 5);
            let got = w.len();
            assert!(
                (got as f64 / n as f64 - 1.0).abs() < 0.3,
                "target {n}, got {got}"
            );
        }
        let w = epigenomics(100, 5);
        assert_eq!(w.roots().len(), 1);
        assert_eq!(w.sinks().len(), 1);
        assert_eq!(w.depth(), 8, "fastQSplit + 4 lane stages + 3 tail stages");
    }

    #[test]
    fn random_dag_is_valid() {
        let w = random_dag(50, 0.1, 9);
        assert_eq!(w.len(), 50);
        assert_eq!(w.topo_order().len(), 50);
    }

    #[test]
    fn app_generate_dispatches() {
        assert!(App::Montage.generate(100, 0).name.starts_with("montage"));
        assert!(App::Ligo.generate(100, 0).name.starts_with("ligo"));
        assert!(App::Epigenomics.generate(100, 0).name.starts_with("epig"));
    }
}
