//! End-to-end and per-layer benchmark of the SparseAdapt workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-cold-warm|record-replay|serve-cold-warm> --seed <n> \
//!     --seconds <s> --trace <0|1> [--repeat <N>]
//! ```
//!
//! Run from the repository root. Every workload runs in this one
//! process against the crates as they stand; nothing inside the program
//! is instrumented. The last line of standard output is the result
//! document (`correct`, `attempted`, `failed`, `metrics`); the line
//! before it is `{"meta": {...}}` with the run's facts: seed, `nproc`,
//! threads, connections, scale, the cache-dir filesystem, and the
//! sample count behind every median and percentile.
//!
//! Every workload is a cold operation followed by the same operation
//! answered from what the cold one stored, and every workload reports
//! the same end-to-end metrics:
//!
//! * `setup_s` — median of the run's set-up samples (inputs, model;
//!   for the daemon also its start and hot-set warm-up);
//! * `peak_rss_mb` — the process's peak resident set;
//! * `cold_ms` — median time of one cold operation;
//! * `warm_ms` — median time of one warm operation;
//! * `stored_mb` — what the cold operation stored for reuse.
//!
//! Workloads (why each exists is in `BENCHMARK.json`):
//!
//! * `sweep-cold-warm` — `eval::compare` on SpMSpM R02/R08 and SpMSpV
//!   R12/R16 with 24 sampled configurations. Cold: a pass over the four
//!   inputs with every cache empty. Warm: the same pass answered from
//!   the in-memory trace cache the cold pass filled (the live run still
//!   simulates). Stored: trace-cache resident MB.
//! * `record-replay` — the same compare path on SpMSpM R04 and SpMSpV
//!   R09/R12 with the trace and epoch caches attached to a fresh
//!   directory under `.perfbench/`. Cold: a record pass, which writes
//!   both stores. Warm: a replay pass from disk with both memory tiers
//!   cleared. Stored: MB on disk after the record pass.
//! * `serve-cold-warm` — an in-process reactor daemon on loopback driven
//!   by two closed-loop keep-alive connections. Cold: a `/v2/simulate`
//!   request for a unique key (median per round of 1000, then over
//!   rounds). Warm: a re-request of a cold key (median per round of
//!   16 000, then over rounds), with `/v2/recommend` interleaved.
//!   Stored: trace-cache resident MB after the cold phase.
//!
//! `--seed` drives matrix generation and, for `serve-cold-warm`, which
//! keys are requested and in what order. The sweep configuration sample
//! is fixed (see `sweep::CONFIG_SEED`).
//!
//! With `--trace 1` the same workload runs with spans around the
//! benchmark's calls into each layer (kept in memory, written to
//! `.perfbench/spans/` at exit): traced and untraced operations
//! alternate, giving `trace_overhead_pct`, and layer probes run on the
//! workload's own inputs, so every traced run reports every per-layer
//! metric. The metadata line carries the layer → end-to-end map.
//!
//! `--digests N` prints the `perfbench/digests.txt` lines for seeds
//! `seed .. seed+N-1`: the `sweep-cold-warm` reference rows, computed
//! through the scalar sweep engine. Regenerate the file only after a
//! deliberate change to simulated results (the golden digests move with
//! it).
//!
//! `--repeat N` runs the workload N times as child processes with seeds
//! `seed .. seed+N-1` and prints each metric's median and quartiles
//! (Python's `statistics.quantiles` method), which is how the bounds in
//! `BENCHMARK.json` were set.
//!
//! Candidate metrics left out: tail latencies (warm-hit p99 moved 58%
//! over ten seeds while other tenants of the host were busy; a cold p99
//! has no meaning for the comparison workloads, which make a handful of
//! passes), warm throughput (about two connections over `warm_ms`, an
//! alias), and the serve-only diagnostics (reactor wakeups per request,
//! recommend latency, hit latency under concurrent misses), which no
//! other workload can report.

mod layers;
mod replay;
mod serving;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use stats::Outcome;

/// Everything a workload run needs from the command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Worker threads and client connections (at most `nproc`, at most 2).
    pub threads: usize,
    /// Scratch directory inside the checkout, removed at exit.
    pub work_dir: PathBuf,
}

const WORKLOADS: [&str; 3] = ["sweep-cold-warm", "record-replay", "serve-cold-warm"];

const USAGE: &str = "usage: perfbench --workload <sweep-cold-warm|record-replay|serve-cold-warm> \
--seed <n> --seconds <s> --trace <0|1> [--repeat <N>]
       perfbench --workload sweep-cold-warm --seed <n> --seconds 1 --trace 0 --digests <N>";

fn main() -> ExitCode {
    // The daemon and the harness read their scale from the environment;
    // the benchmark is defined at quick scale.
    std::env::set_var("SA_SCALE", "quick");
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok((run, Some(Extra::Repeat(n)))) => repeat_mode(&args, &run, n),
        Ok((run, Some(Extra::Digests(n)))) => {
            match sweep::print_digests(run.seed, n as u64, run.threads) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Ok((run, None)) => match run_workload(&run) {
            Ok(out) => {
                for f in &out.failures {
                    eprintln!("perfbench: failed operation: {f}");
                }
                println!("{}", out.meta_json());
                println!("{}", out.result_json());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Modes besides a single measured run.
enum Extra {
    /// `--repeat N`: N child runs with consecutive seeds, then spreads.
    Repeat(usize),
    /// `--digests N`: print reference digests for N consecutive seeds.
    Digests(usize),
}

fn parse(args: &[String]) -> Result<(RunArgs, Option<Extra>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut extra = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_string()),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|_| bad("not a whole number"))?;
                if !(1..=600).contains(&s) {
                    return Err(bad("must be 1..=600"));
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--repeat" | "--digests" => {
                let n = value.parse::<usize>().map_err(|_| bad("not a count"))?;
                if n == 0 {
                    return Err(bad("must be at least 1"));
                }
                extra = Some(if flag == "--repeat" {
                    Extra::Repeat(n)
                } else {
                    Extra::Digests(n)
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let run = RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads,
        work_dir: PathBuf::from(".perfbench").join(format!("run-{}", std::process::id())),
    };
    Ok((run, extra))
}

fn run_workload(run: &RunArgs) -> Result<Outcome, String> {
    // The benchmark reads the committed models and writes its scratch
    // directory relative to the checkout root; refuse to run elsewhere.
    if !std::path::Path::new("perfbench/Cargo.toml").is_file()
        || !sa_bench::models::model_dir(sparse::suite::Scale::Quick).is_dir()
    {
        return Err("run from the root of a full checkout (models/quick, perfbench/)".to_string());
    }
    std::fs::create_dir_all(&run.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", run.work_dir.display()))?;
    let result = match run.workload.as_str() {
        "sweep-cold-warm" => sweep::run(run),
        "record-replay" => replay::run(run),
        "serve-cold-warm" => serving::run(run),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&run.work_dir);
    let mut out = result?;
    out.meta.splice(
        0..0,
        [
            ("workload".to_string(), run.workload.as_str().into()),
            ("seed".to_string(), run.seed.into()),
            ("trace".to_string(), usize::from(run.trace).into()),
            (
                "nproc".to_string(),
                std::thread::available_parallelism()
                    .map_or(1, |n| n.get())
                    .into(),
            ),
            ("threads".to_string(), run.threads.into()),
            ("scale".to_string(), "quick".into()),
        ],
    );
    Ok(out)
}

/// Runs the workload `n` times as child processes (seeds `seed ..
/// seed+n-1`) and prints each metric's median, quartiles and spread.
fn repeat_mode(args: &[String], run: &RunArgs, n: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut base: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().cloned().unwrap_or_default();
        if flag != "--repeat" && flag != "--seed" {
            base.push(flag.clone());
            base.push(value);
        }
    }
    let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut all_correct = true;
    for i in 0..n {
        let seed = run.seed + i as u64;
        let output = Command::new(&exe)
            .args(&base)
            .args(["--seed", &seed.to_string()])
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("perfbench: seed {seed} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        println!("seed {seed}: {last}");
        let Ok(doc) = serde_json::parse_value_str(last) else {
            eprintln!("perfbench: seed {seed} printed no result");
            return ExitCode::FAILURE;
        };
        let field = |v: &serde::Value, k: &str| -> Option<serde::Value> {
            v.as_obj()?
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, x)| x.clone())
        };
        all_correct &= matches!(field(&doc, "correct"), Some(serde::Value::Bool(true)));
        let Some(metrics) = field(&doc, "metrics") else {
            continue;
        };
        for (name, m) in metrics.as_obj().unwrap_or_default() {
            let value = match field(m, "value") {
                Some(serde::Value::Float(x)) => x,
                Some(serde::Value::UInt(x)) => x as f64,
                Some(serde::Value::Int(x)) => x as f64,
                _ => continue,
            };
            let unit = match field(m, "unit") {
                Some(serde::Value::Str(u)) => u,
                _ => String::new(),
            };
            match series.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, vals)) => vals.push(value),
                None => series.push((name.clone(), unit, vec![value])),
            }
        }
    }
    println!(
        "{:<44} {:>6} {:>14} {:>14} {:>14} {:>9}",
        "metric", "runs", "q1", "median", "q3", "iqr/med"
    );
    for (name, unit, vals) in &series {
        let (q1, q3) = stats::quartiles(vals);
        let med = stats::median(vals);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!(
            "{:<44} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>8.2}%  {unit}",
            name,
            vals.len(),
            q1,
            med,
            q3,
            spread * 100.0
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: at least one run reported correct=false");
        ExitCode::FAILURE
    }
}
