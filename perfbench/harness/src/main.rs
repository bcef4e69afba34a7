//! Benchmark harness for the singling-out workspace.
//!
//! ```text
//! perfbench --workload <lp_attack|serve_mixed|table_churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload's fixed operation sequence (generated from a constant
//! seed and sized by `--seconds`, so every run does identical work; `--seed`
//! is recorded with the configuration) in this process and prints, as its last line, one JSON
//! report: attempted / failed operations, the work fingerprint, exact work
//! counts, the recorded configuration and the metrics. `--trace 0` times
//! the end-to-end metrics with tracing off; `--trace 1` installs an
//! in-memory span subscriber and reports the per-layer metrics and the
//! reconciliation instead. `perfbench/run.py` is the entry point that builds
//! this binary and composes the benchmark's result line.

mod common;
mod lp_attack;
mod serve_mixed;
mod table_churn;
mod trace;

use common::{peak_rss_mb, Report};
use trace::Capture;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, capture: Option<&Capture>) -> Result<Report, String> {
    match args.workload.as_str() {
        "lp_attack" => lp_attack::run(args.seconds, capture),
        "serve_mixed" => serve_mixed::run(args.seconds, capture),
        "table_churn" => table_churn::run(args.seconds, capture),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let capture = args.trace.then(Capture::install);
    let mut report = match run(&args, capture.as_ref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    report.seal_fingerprint();
    if !args.trace {
        report.metric("ops_per_s", report.ops_per_s);
        report.metric("peak_rss_mb", peak_rss_mb());
    }
    let config = [
        ("seed", args.seed.to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "storage_engine",
            so_data::StorageEngine::from_env().name().to_owned(),
        ),
        (
            "plan_threads",
            so_plan::ParallelExecutor::from_env().threads().to_string(),
        ),
        (
            "compact_threshold",
            so_data::compact_threshold_from_env().to_string(),
        ),
    ];
    for note in &report.notes {
        println!("{note}");
    }
    for f in &report.failures {
        println!("failed: {f}");
    }
    let mode = if args.trace { "traced" } else { "timed" };
    println!("{}", report.to_json(&args.workload, mode, &config));
}
