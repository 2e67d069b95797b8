//! The metric registry, the run record and the result line.
//!
//! Every metric the benchmark prints is declared here with its unit;
//! `BENCHMARK.json` at the repository root must list exactly these names
//! (checked by `tests/selftest.rs`).

use crate::stats::{Tail, Tally};
use serde::Value;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_rps", "req/s"),
    ("precision_bits_min", "bits"),
    ("peak_rss_mb", "MiB"),
];

/// Per-module metrics, printed by traced runs: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // orion-serve
    ("serve.queue_wait_s", "s"),
    ("serve.exec_s", "s"),
    ("serve.batch_size_mean", "count"),
    ("serve.errors.queue_full", "count"),
    ("serve.errors.store_fault", "count"),
    ("serve.errors.panic", "count"),
    ("serve.errors.bad_input", "count"),
    ("serve.unattributed_frac", "fraction"),
    // client side (orion-ckks encode + encrypt)
    ("client.encrypt_s", "s"),
    // setup
    ("ckks.keygen_s", "s"),
    ("compile.rotation_keys", "count"),
    ("linear.prepare_s", "s"),
    ("linear.prepared_bytes", "bytes"),
    ("linear.page_out_s", "s"),
    // compiler
    ("nn.fit_s", "s"),
    ("nn.lower_s", "s"),
    ("graph.placement_s", "s"),
    ("verify.certify_s", "s"),
    ("sched.plan_s", "s"),
    ("opt.optimize_s", "s"),
    ("compile.bootstraps", "count"),
    ("compile.rotations", "count"),
    ("opt.fused_bootstraps", "count"),
    ("opt.bootstraps_moved", "count"),
    ("opt.rejected_passes", "count"),
    // op counts per request (orion-sim OpCounter)
    ("ops.hrot", "count"),
    ("ops.hrot_hoisted", "count"),
    ("ops.hoist", "count"),
    ("ops.pmult", "count"),
    ("ops.hmult", "count"),
    ("ops.rescale", "count"),
    ("ops.bootstrap", "count"),
    ("ops.encodes", "count"),
    ("ops.model_s", "s"),
    // scheduler run reports (per request)
    ("sched.busy_s", "s"),
    ("sched.ready_wait_s", "s"),
    ("sched.critical_path_s", "s"),
    ("sched.parallelism", "ratio"),
    // op-class histograms (per request)
    ("math.ntt_s", "s"),
    ("math.ntt_calls", "count"),
    ("math.pointwise_s", "s"),
    ("math.pointwise_calls", "count"),
    ("ckks.key_switch_s", "s"),
    ("ckks.key_switch_calls", "count"),
    ("ckks.rescale_s", "s"),
    ("ckks.rescale_calls", "count"),
    ("ckks.bootstrap_s", "s"),
    ("ckks.bootstrap_calls", "count"),
    ("linear.layer_s", "s"),
    ("linear.layer_calls", "count"),
    ("poly.stage_s", "s"),
    ("poly.stage_calls", "count"),
    ("linear.page_load_s", "s"),
    ("linear.page_load_calls", "count"),
    // pager (per request)
    ("page.faults", "count"),
    ("page.evictions", "count"),
    ("page.prefetch_hits", "count"),
    ("page.hit_ratio", "fraction"),
    // tracing cost
    ("trace.overhead_frac", "fraction"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Metric values plus free-form record fields of one run.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    notes: Vec<(String, Value)>,
}

impl Report {
    /// Sets a registered metric. Panics on an unregistered name (a bug in
    /// the benchmark, caught by the self-tests).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not registered");
        self.values.insert(name, value);
    }

    /// Attaches a record field (sample counts, tail rank, ...).
    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.to_string(), value));
    }

    /// Records where the tail latency came from: its rank, the sample
    /// count and whether the sample supported a real tail.
    pub fn note_tail(&mut self, t: Tail) {
        self.note(
            "latency_tail",
            Value::Obj(vec![
                ("rank".into(), Value::Num(t.rank as f64)),
                ("samples".into(), Value::Num(t.samples as f64)),
                ("beyond".into(), Value::Num(t.beyond as f64)),
                ("percentile".into(), Value::Num(t.percentile())),
                ("supported".into(), Value::Bool(t.supported())),
            ]),
        );
    }

    /// The metrics one mode prints, in registry order. End-to-end metrics
    /// must all have been set; a per-module metric a workload does not
    /// exercise reads 0 and is listed by [`Report::not_applicable`].
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        let list = if trace { PER_LAYER } else { END_TO_END };
        list.iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).copied();
                assert!(
                    trace || v.is_some(),
                    "end-to-end metric {name} was not measured"
                );
                (name, unit, v.unwrap_or(0.0))
            })
            .collect()
    }

    /// Per-module metrics this run did not measure.
    pub fn not_applicable(&self) -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.values.contains_key(n))
            .collect()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self, trace: bool, tally: &Tally) -> String {
        let metrics = self
            .metrics(trace)
            .into_iter()
            .map(|(name, unit, value)| {
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        let line = Value::Obj(vec![
            ("correct".into(), Value::Bool(tally.failed() == 0)),
            ("attempted".into(), Value::Num(tally.attempted() as f64)),
            ("failed".into(), Value::Num(tally.failed() as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ]);
        serde_json::to_string(&line).expect("result serializes")
    }

    /// The full run record: stamp, accounting, metrics and notes.
    pub fn record(&self, head: Vec<(String, Value)>, trace: bool, tally: &Tally) -> Value {
        let mut fields = head;
        fields.push(("attempted".into(), Value::Num(tally.attempted() as f64)));
        fields.push(("ok".into(), Value::Num(tally.succeeded() as f64)));
        fields.push(("failed".into(), Value::Num(tally.failed() as f64)));
        fields.push(("error_rate".into(), Value::Num(tally.error_rate())));
        fields.push((
            "violations".into(),
            Value::Arr(
                tally
                    .violations()
                    .iter()
                    .map(|v| Value::Str(v.clone()))
                    .collect(),
            ),
        ));
        fields.push((
            "metrics".into(),
            Value::Obj(
                self.metrics(trace)
                    .into_iter()
                    .map(|(n, _, v)| (n.to_string(), Value::Num(v)))
                    .collect(),
            ),
        ));
        if trace {
            fields.push((
                "not_applicable".into(),
                Value::Arr(
                    self.not_applicable()
                        .into_iter()
                        .map(|n| Value::Str(n.into()))
                        .collect(),
                ),
            ));
        }
        fields.extend(self.notes.iter().cloned());
        Value::Obj(fields)
    }

    /// Human-readable metric table.
    pub fn print_table(&self, trace: bool) {
        let na = self.not_applicable();
        for (name, unit, value) in self.metrics(trace) {
            let flag = if na.contains(&name) {
                "  (not exercised)"
            } else {
                ""
            };
            println!("  {name:<26} {value:>16.6} {unit}{flag}");
        }
    }
}

/// Host and build facts every record is stamped with.
pub fn stamp() -> Vec<(String, Value)> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = rayon::current_num_threads();
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let mut v = vec![
        ("host".to_string(), Value::Str(host)),
        (
            "available_parallelism".to_string(),
            Value::Num(cores as f64),
        ),
        ("rayon_threads".to_string(), Value::Num(pool as f64)),
        (
            "simd_dispatch".to_string(),
            Value::Str(orion_math::simd::dispatch_name().into()),
        ),
        // More threads than cores: timings are not scaling evidence.
        ("oversubscribed".to_string(), Value::Bool(pool > cores)),
    ];
    for var in ["RAYON_NUM_THREADS", "ORION_SIMD", "MALLOC_ARENA_MAX"] {
        if let Ok(val) = std::env::var(var) {
            v.push((var.to_string(), Value::Str(val)));
        }
    }
    v
}

/// Cumulative CPU ticks of the host: `(steal, total)` from `/proc/stat`.
/// On a virtual machine, steal is time the hypervisor ran something else
/// on this guest's CPUs; a run with a large share of it reads slow.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
