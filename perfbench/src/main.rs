//! `pipeline`: the one command of the benchmark.
//!
//! ```text
//! pipeline --workload <name> --seed <u64> [--seconds 10] [--trace <0|1>]
//!     one run of one workload in this process; the last stdout line is
//!     the result: {"correct", "attempted", "failed", "metrics"}.
//! pipeline [--seed <u64>] [--runs <k>]
//!     every workload in turn, each run in its own process, untraced and
//!     traced, on seeds seed..seed+k; writes the result set to
//!     perfbench/out/pipeline.json.
//! pipeline --check <baseline.json>
//!     compares that result set with a committed baseline, row by row.
//! ```
//!
//! A run measures for `run_seconds` of BENCHMARK.json. The driver passes
//! that value as `--seconds`; any other is refused, because the number of
//! passes behind a median depends on it and two run lengths are two
//! benchmarks.

use deco_perfbench::check::{report, ResultSet};
use deco_perfbench::harness::{out_dir, peak_rss_mb, pin_to_one_cpu, remove_scratch};
use deco_perfbench::json::Json;
use deco_perfbench::metrics::{RUN_SECONDS, WORKLOADS};
use deco_perfbench::run::{Outcome, RunArgs};
use deco_perfbench::{plan, serving};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

struct Cli {
    workload: Option<String>,
    seed: u64,
    trace: bool,
    runs: usize,
    check: Option<PathBuf>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        trace: false,
        runs: 1,
        check: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if seconds != RUN_SECONDS {
                    return Err(format!("a run measures for {RUN_SECONDS} s, not {seconds}"));
                }
            }
            "--runs" => {
                cli.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&cli.runs) {
                    return Err("--runs must lie in 1..=100".into());
                }
            }
            "--check" => cli.check = Some(PathBuf::from(value("a baseline file")?)),
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.iter().any(|d| d.name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|d| d.name).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    // The supervised tier re-executes this binary as its shard workers;
    // a worker never returns from here.
    deco_shard::maybe_run_shard_worker();

    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("pipeline: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(baseline) = &cli.check {
        return check(baseline);
    }
    match &cli.workload {
        Some(workload) => run_one(&RunArgs {
            workload: workload.clone(),
            seed: cli.seed,
            trace: cli.trace,
        }),
        None => run_all(&cli),
    }
}

/// One workload, in this process.
fn run_one(args: &RunArgs) -> ExitCode {
    let cpu = pin_to_one_cpu();
    if cpu.is_none() {
        eprintln!(
            "pipeline: could not confine the run to one CPU; timings will follow the scheduler"
        );
    }
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("pipeline: cannot create {}: {e}", out_dir().display());
        return ExitCode::from(2);
    }
    let (mut out, tracer): (Outcome, _) = if args.workload.starts_with("plan_") {
        plan::run(args)
    } else {
        serving::run(args)
    };
    remove_scratch();
    if !args.trace {
        out.set("peak_rss_mb", peak_rss_mb());
    }

    // `<workload>.trace.json` is the span file; the detail goes beside it.
    let mode = if args.trace { "layers" } else { "result" };
    if let Some(tracer) = tracer {
        let path = out_dir().join(format!("{}.trace.json", args.workload));
        let doc = tracer.to_json(&args.workload, args.seed);
        if let Err(e) = std::fs::write(&path, doc.render()) {
            eprintln!("pipeline: cannot write {}: {e}", path.display());
        } else {
            eprintln!("spans written to {}", path.display());
        }
    }
    let line = out.result_line(args.trace);
    // The contract fixes the result line's keys, and a metric may never
    // read 0; `failed_frac` is therefore its `failed` over `attempted`.
    let count = |key: &str| line.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let failed_frac = count("failed") / count("attempted");
    let detail = Json::obj([
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(RUN_SECONDS)),
        ("trace", Json::Bool(args.trace)),
        ("cpu", cpu.map_or(Json::Null, |c| Json::Num(c as f64))),
        ("result", line.clone()),
        ("failed_frac", Json::Num(failed_frac)),
        (
            "failed_checks",
            Json::Arr(out.checks.failures.iter().map(Json::str).collect()),
        ),
        ("checks_passed", Json::Num(out.checks.passed as f64)),
        ("samples", Json::Obj(out.detail.clone())),
    ]);
    let path = out_dir().join(format!("{}.{mode}.json", args.workload));
    let _ = std::fs::write(&path, detail.render_pretty());

    // Every metric by name with its unit, for people; the result line,
    // last, for the driver.
    if let Some(Json::Obj(metrics)) = line.get("metrics") {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("{:<16} {name:<42} {value:>16.6} {unit}", args.workload);
        }
    }
    println!(
        "{:<16} {:<42} {failed_frac:>16.6} ratio",
        args.workload, "failed_frac"
    );
    println!("{}", line.render());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload in turn, each run in a process of its own so that
/// `peak_rss_mb` and the allocator's state belong to one workload.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("pipeline: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut set = ResultSet::default();
    let mut all_ok = true;
    for w in WORKLOADS {
        for run in 0..cli.runs {
            for trace in [false, true] {
                let seed = cli.seed + run as u64;
                eprintln!(
                    "== {} seed {seed} {}",
                    w.name,
                    if trace { "traced" } else { "untraced" }
                );
                let output = Command::new(&exe)
                    .args(["--workload", w.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit())
                    .output();
                let output = match output {
                    Ok(o) => o,
                    Err(e) => {
                        eprintln!("pipeline: cannot run {}: {e}", w.name);
                        return ExitCode::from(2);
                    }
                };
                all_ok &= output.status.success();
                let stdout = String::from_utf8_lossy(&output.stdout);
                let folded = stdout
                    .lines()
                    .last()
                    .ok_or_else(|| "no output".to_string())
                    .and_then(Json::parse)
                    .and_then(|line| set.add_run(w.name, trace, &line));
                if let Err(e) = folded {
                    eprintln!("pipeline: {} gave no usable result: {e}", w.name);
                    all_ok = false;
                }
            }
        }
    }
    let header = vec![
        (
            "benchmark".to_string(),
            Json::str("deco-perfbench pipeline"),
        ),
        ("git_rev".to_string(), Json::str(git_rev())),
        (
            "cores".to_string(),
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("seconds_per_run".to_string(), Json::Num(RUN_SECONDS)),
        ("runs_per_workload".to_string(), Json::Num(cli.runs as f64)),
        (
            "seeds".to_string(),
            Json::Arr(
                (0..cli.runs)
                    .map(|r| Json::Num((cli.seed + r as u64) as f64))
                    .collect(),
            ),
        ),
        (
            "quartiles".to_string(),
            Json::str("exclusive method, as Python's statistics.quantiles(values, n=4)"),
        ),
    ];
    let path = result_set_path();
    if let Err(e) = std::fs::write(&path, set.to_json(header).render_pretty()) {
        eprintln!("pipeline: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("result set written to {}", path.display());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where `run_all` leaves its result set and `--check` reads it.
fn result_set_path() -> PathBuf {
    out_dir().join("pipeline.json")
}

fn check(baseline: &std::path::Path) -> ExitCode {
    let load = |path: &std::path::Path| -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        ResultSet::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
    };
    match (load(baseline), load(&result_set_path())) {
        (Ok(base), Ok(new)) => {
            let (text, failing) = report(&base, &new);
            print!("{text}");
            if failing == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("pipeline --check: {e}");
            ExitCode::from(2)
        }
    }
}

/// The commit the numbers belong to, when the checkout is a repository.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
