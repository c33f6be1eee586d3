//! Wall-clock reads are confined to a checked list.
//!
//! Everything the planner decides or persists must come out the same on
//! every run, so the library crates may read the host clock only where a
//! measured wall time is reported next to deterministic results (the
//! search's `wall_seconds` and `host_eval_seconds`) or where liveness is a
//! matter of real time (the supervisor's heartbeats and hang timeout). This
//! test scans the non-test part of every `crates/*/src/**/*.rs` file
//! (`crates/bench` measures on purpose and is exempt), stopping at each
//! file's first `#[cfg(test)]`, and names any other file that reads the
//! clock.

use std::path::{Path, PathBuf};

/// Files, relative to `crates/`, that may read the clock.
const ALLOWED: [&str; 2] = ["shard/src/proc/supervisor.rs", "solver/src/search.rs"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn only_listed_files_read_the_clock() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates dir") {
        let krate = entry.expect("dir entry").path();
        if krate.file_name().is_some_and(|n| n != "bench") && krate.join("src").is_dir() {
            rust_files(&krate.join("src"), &mut files);
        }
    }
    assert!(files.len() > 50, "scanned only {} files", files.len());
    let mut readers = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file).expect("readable source");
        let lib = src.split("#[cfg(test)]").next().unwrap_or_default();
        if lib.contains("Instant::now") || lib.contains("SystemTime") {
            let rel = file.strip_prefix(&crates).expect("under crates/");
            readers.push(rel.to_string_lossy().into_owned());
        }
    }
    readers.sort();
    let unlisted: Vec<_> = readers
        .iter()
        .filter(|f| !ALLOWED.contains(&f.as_str()))
        .collect();
    assert!(
        unlisted.is_empty(),
        "files outside the allow-list read the wall clock: {unlisted:?}"
    );
    assert_eq!(
        readers, ALLOWED,
        "an allow-listed file no longer reads the clock"
    );
}
