//! `perfbench` — the repository's benchmark: one end-to-end + per-layer
//! ledger over six reference workloads. See `README.md` beside this crate.

mod host;
mod metrics;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use report::SetArgs;
use run::RunArgs;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out DIR] [--smoke]
  perfbench set [--runs K] [--seed N] [--seconds S] [--smoke] [--out FILE] [--trace-out DIR]
  perfbench compare A.json B.json";

/// Seconds one run measures unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 20.0;

/// The flags `run` and `set` share. Each parser takes the flags it knows
/// and rejects the rest.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        smoke: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("unknown argument '{flag}'\n{USAGE}"));
        }
        if flag == "--smoke" {
            f.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => f.workload = Some(value.clone()),
            "--seed" => f.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                f.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(f.seconds > 0.0 && f.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                f.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"takes 0 or 1")),
                }
            }
            "--runs" => {
                f.runs = value.parse().map_err(|e| bad(&e))?;
                if !(1..=100).contains(&f.runs) {
                    return Err(bad(&"must be in 1..=100"));
                }
            }
            "--trace-out" => f.trace_out = Some(PathBuf::from(value)),
            "--out" => f.out = Some(PathBuf::from(value)),
            _ => unreachable!("flag list and match arms agree"),
        }
    }
    // A smoke run is a check, not a measurement: one second is plenty.
    if f.smoke && !args.iter().any(|a| a == "--seconds") {
        f.seconds = 1.0;
    }
    Ok(f)
}

fn run_one(args: &[String]) -> Result<(), String> {
    let f = parse_flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--trace-out", "--smoke"],
    )?;
    let names = metrics::workload_names();
    let workload = f
        .workload
        .filter(|w| names.contains(&w.as_str()))
        .ok_or_else(|| format!("--workload must be one of {}", names.join(", ")))?;
    let run_args = RunArgs {
        workload,
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
        trace_out: f.trace_out,
        smoke: f.smoke,
    };
    let out = workloads::dispatch(&run_args).ok_or("workload table and dispatch disagree")?;
    println!("{}", out.detail.compact());
    println!("{}", out.result.compact());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => Err(USAGE.to_string()),
        Some("set") => parse_flags(
            &args[1..],
            &["--runs", "--seed", "--seconds", "--smoke", "--out", "--trace-out"],
        )
        .and_then(|f| {
            report::set(&SetArgs {
                runs: f.runs,
                seed: f.seed,
                seconds: f.seconds,
                smoke: f.smoke,
                out: f.out,
                trace_out: f.trace_out,
            })
        }),
        Some("compare") => match &args[1..] {
            [a, b] => report::compare(a, b),
            _ => Err(USAGE.to_string()),
        },
        Some(_) => run_one(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}
