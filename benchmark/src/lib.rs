//! The Orion benchmark of record: served encrypted latency, cold start and
//! compile time, broken down by module. See `BENCHMARK.md` next to this
//! crate for the workloads, the metric table and how to run it.
//!
//! Everything here drives the workspace's public API from outside; the
//! only in-program measurements read are the ones the crates already
//! expose (`ServeOutput`, `OpCounter`, `PageStats`, `Server::metrics()`,
//! the `orion-telemetry` op histograms and run reports).

pub mod compiler;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;

use spans::Spans;
use std::path::PathBuf;

/// The workloads, by the name `--workload` takes, as `BENCHMARK.json`
/// lists them.
pub const WORKLOADS: [&str; 2] = ["serve-mlp", "serve-lola-paged"];

/// Seed of every workload's network weights and calibration images. The
/// compiled programs are fixed because the compiler's work depends on them
/// (`fit_robust` stops iterating once the activation ranges settle): with
/// seeded weights, compile time moved by up to 2x from seed to seed. The
/// workload seed drives the traffic instead: request images and key
/// generation.
pub const PROGRAM_SEED: u64 = 7;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seeds request images and key generation (see [`PROGRAM_SEED`]).
    pub seed: u64,
    /// Length of the measured request phase.
    pub seconds: f64,
    /// Traced run: per-module metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where traces, count fingerprints and spill directories go.
    pub out_dir: PathBuf,
    /// Names the code under test (`--commit`); count fingerprints are
    /// filed under it.
    pub source_id: String,
}

/// `−log2 max|a − b|`: bits of agreement between an output and its
/// reference, capped at 64 for identical outputs. NaN when the lengths
/// differ or either side holds a non-finite value.
pub fn max_abs_bits(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::NAN;
    }
    let mut err = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        let e = (x - y).abs();
        if !e.is_finite() {
            return f64::NAN;
        }
        err = err.max(e);
    }
    (-err.log2()).min(64.0)
}

/// Index of the largest element (first on ties).
pub fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .fold((0, f64::NEG_INFINITY), |best, (i, &x)| {
            if x > best.1 {
                (i, x)
            } else {
                best
            }
        })
        .0
}

/// Writes a traced run's span log and the server's telemetry
/// (`metrics_json()`) under `<out_dir>/trace/`.
pub fn write_trace_files(opts: &RunOpts, spans: &Spans, telemetry: String) {
    let dir = opts.out_dir.join("trace");
    let stem = format!("{}-seed{}", opts.workload, opts.seed);
    // The collector's raw events are not exported; drop them so a long
    // traced run does not hold them.
    drop(orion_telemetry::drain());
    let spans_json = serde_json::to_string(&spans.to_value()).expect("spans serialize");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}-spans.json")), spans_json))
        .and_then(|()| std::fs::write(dir.join(format!("{stem}-telemetry.json")), telemetry));
    match written {
        Ok(()) => eprintln!("trace files written to {}", dir.display()),
        Err(e) => eprintln!(
            "warning: cannot write trace files under {}: {e}",
            dir.display()
        ),
    }
}
