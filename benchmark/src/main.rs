//! Runs one workload of the benchmark of record and prints its metrics;
//! the last line of standard output is the result object.
//!
//! ```text
//! orion-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--out-dir <dir>] [--results <file.jsonl>] [--commit <id>]
//! ```
//!
//! Normally started through `benchmark/run.py`, which builds it first.

use orion_benchmark::report::{cpu_ticks, stamp, Report};
use orion_benchmark::stats::Tally;
use orion_benchmark::{serve, RunOpts, WORKLOADS};
use serde::Value;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    opts: RunOpts,
    results: Option<PathBuf>,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut results = None;
    let mut commit = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            "--results" => results = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; choose one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        opts: RunOpts {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            out_dir,
            source_id: commit.clone(),
        },
        results,
        commit,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = &args.opts;
    let mut report = Report::default();
    let mut tally = Tally::default();
    let ticks_before = cpu_ticks();
    if let Err(e) = serve::run(opts, &mut report, &mut tally) {
        eprintln!("error: {} could not run: {e}", opts.workload);
        return ExitCode::FAILURE;
    }

    let ticks_after = cpu_ticks();
    let steal =
        (ticks_after.0 - ticks_before.0) as f64 / (ticks_after.1 - ticks_before.1).max(1) as f64;
    let mut head = vec![
        ("workload".to_string(), Value::Str(opts.workload.clone())),
        ("seed".to_string(), Value::Num(opts.seed as f64)),
        ("seconds".to_string(), Value::Num(opts.seconds)),
        ("trace".to_string(), Value::Bool(opts.trace)),
        ("commit".to_string(), Value::Str(args.commit.clone())),
    ];
    head.extend(stamp());
    head.push(("cpu_steal_frac".to_string(), Value::Num(steal)));
    let record = report.record(head, opts.trace, &tally);
    if let Some(path) = &args.results {
        let line = serde_json::to_string(&record).expect("record serializes");
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("warning: cannot append to {}: {e}", path.display());
        }
    }

    let stamp_line: Vec<String> = stamp()
        .into_iter()
        .map(|(k, v)| {
            format!(
                "{k}={}",
                serde_json::to_string(&v).expect("stamp serializes")
            )
        })
        .collect();
    println!(
        "{} seed={} trace={} commit={}",
        opts.workload, opts.seed, opts.trace, args.commit
    );
    println!("  {} cpu_steal_frac={steal:.4}", stamp_line.join(" "));
    println!(
        "  accounting: attempted={} ok={} failed={} error_rate={}",
        tally.attempted(),
        tally.succeeded(),
        tally.failed(),
        tally.error_rate()
    );
    report.print_table(opts.trace);
    println!("{}", report.result_line(opts.trace, &tally));
    ExitCode::SUCCESS
}
