//! Self-tests of the benchmark's own rules: the tail percentile, outcome
//! accounting, and agreement between the printed metrics and
//! `BENCHMARK.json`.

use orion_benchmark::report::{Report, END_TO_END, PER_LAYER};
use orion_benchmark::stats::{median, tail, Tally, TAIL_MIN_BEYOND};
use orion_benchmark::{max_abs_bits, WORKLOADS};
use serde::Value;

fn samples(n: usize) -> Vec<f64> {
    // shuffled 1..=n, so the rule must sort
    (1..=n).map(|i| ((i * 7919) % n + 1) as f64).collect()
}

#[test]
fn tail_is_highest_rank_with_ten_beyond() {
    for n in [11, 12, 20, 57, 100, 1000] {
        let t = tail(&samples(n)).unwrap();
        assert_eq!(t.samples, n);
        assert_eq!(t.rank, n - TAIL_MIN_BEYOND, "n={n}");
        assert_eq!(t.beyond, TAIL_MIN_BEYOND);
        assert_eq!(t.value, t.rank as f64, "the rank-th smallest of 1..=n");
        assert!(t.supported());
        // one rank higher would leave only nine beyond
        assert!(n - (t.rank + 1) < TAIL_MIN_BEYOND);
    }
}

#[test]
fn tail_falls_back_to_median_without_enough_samples() {
    for n in 1..=TAIL_MIN_BEYOND {
        let s = samples(n);
        let t = tail(&s).unwrap();
        assert!(!t.supported(), "n={n}");
        assert_eq!(Some(t.value), median(&s));
    }
    assert!(tail(&[]).is_none());
}

#[test]
fn median_is_nearest_rank() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn attempted_is_ok_plus_failed() {
    let mut a = Tally::default();
    for i in 0..37 {
        if i % 5 == 0 {
            a.fail(format!("case {i}"));
        } else {
            a.ok();
        }
    }
    let mut b = Tally::default();
    b.check(Ok(()));
    b.check(Err("bad".into()));
    a.merge(b);
    assert_eq!(a.attempted(), a.succeeded() + a.failed());
    assert_eq!((a.attempted(), a.failed()), (39, 9));
    assert_eq!(a.violations().len() as u64, a.failed());
    assert!((a.error_rate() - 9.0 / 39.0).abs() < 1e-12);
    assert_eq!(Tally::default().error_rate(), 0.0);
}

#[test]
fn precision_bits_flag_non_finite_outputs() {
    assert_eq!(max_abs_bits(&[1.0, 2.0], &[1.0, 2.25]), 2.0);
    assert_eq!(max_abs_bits(&[1.0], &[1.0]), 64.0);
    assert!(max_abs_bits(&[f64::NAN], &[1.0]).is_nan());
    assert!(max_abs_bits(&[1.0], &[1.0, 2.0]).is_nan());
}

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(spec: &'a Value, key: &str) -> Vec<&'a Value> {
    match spec.get(key) {
        Some(Value::Arr(items)) => items.iter().collect(),
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn names_units(spec: &Value, key: &str) -> Vec<(String, String)> {
    entries(spec, key)
        .into_iter()
        .map(|e| {
            let s = |k: &str| {
                e.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn registry(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn printed_metrics_are_the_ones_benchmark_json_declares() {
    let spec = spec();
    assert_eq!(names_units(&spec, "end_to_end"), registry(END_TO_END));
    assert_eq!(names_units(&spec, "per_layer"), registry(PER_LAYER));
    let workloads: Vec<String> = entries(&spec, "workloads")
        .into_iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);

    // What a run prints comes from the registry and nothing else.
    let mut r = Report::default();
    for (name, _) in END_TO_END {
        r.set(name, 1.5);
    }
    for trace in [false, true] {
        let line = serde_json::parse_value(&r.result_line(trace, &Tally::default())).unwrap();
        let Value::Obj(top) = &line else {
            panic!("result is an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object")
        };
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.get("unit").and_then(Value::as_str).unwrap().to_string(),
                )
            })
            .collect();
        let declared = names_units(&spec, if trace { "per_layer" } else { "end_to_end" });
        assert_eq!(printed, declared, "trace={trace}");
    }
}

#[test]
#[should_panic(expected = "not registered")]
fn unregistered_metric_is_refused() {
    Report::default().set("made.up_s", 1.0);
}

#[test]
fn count_fingerprints_are_filed_per_source() {
    use orion_benchmark::compiler::{check_repeat_across_runs, fingerprint_key};
    use orion_benchmark::RunOpts;
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fingerprints");
    let _ = std::fs::remove_dir_all(&out_dir);
    let opts = |source: &str| RunOpts {
        workload: "serve-mlp".into(),
        seed: 3,
        seconds: 1.0,
        trace: false,
        out_dir: out_dir.clone(),
        source_id: source.into(),
    };
    let old = opts("abc123+src-0001");
    assert!(check_repeat_across_runs(&old, "ops=1").is_ok());
    assert!(check_repeat_across_runs(&old, "ops=1").is_ok());
    assert!(check_repeat_across_runs(&old, "ops=2").is_err());
    // changed sources may change the counts: a fingerprint of their own
    let new = opts("abc124+src-0002");
    assert!(check_repeat_across_runs(&new, "ops=2").is_ok());
    assert!(check_repeat_across_runs(&new, "ops=1").is_err());
    assert!(check_repeat_across_runs(&old, "ops=1").is_ok());
    // no usable source id: nothing to key on, nothing stored
    for bad in ["unknown", "", "../x", ".hidden", "a/b"] {
        assert_eq!(fingerprint_key(bad), None, "{bad:?}");
        assert!(check_repeat_across_runs(&opts(bad), "ops=9").is_ok());
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}
