#!/usr/bin/env python3
"""Benchmark of record for the Orion workspace.

Run one workload (builds the benchmark crate first; the last line of
standard output is the result object):

    python3 benchmark/run.py --workload serve-mlp --seed 1 --seconds 30 --trace 0

Run every workload over several seeds and print each metric's spread:

    python3 benchmark/run.py sweep --seeds 10 --out before.jsonl

Compare two result files written by runs or sweeps:

    python3 benchmark/run.py compare before.jsonl after.jsonl

Run from the repository root. See benchmark/BENCHMARK.md.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SPEC_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")
BINARY = "orion-benchmark"
# The binary must finish well inside the caller's 180 s limit.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def target_dir():
    # A relative CARGO_TARGET_DIR is resolved against the working
    # directory, as cargo does.
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark crate against the repository's sources."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"error: cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("error: building the benchmark failed")
        return None
    return os.path.join(target_dir(), "release", BINARY)


def source_id():
    """The commit if this is a git checkout, plus a hash of the sources
    the benchmark builds, so a result names the code it measured."""
    h = hashlib.sha256()
    roots = ["crates", "vendor", "benchmark/src", "benchmark/Cargo.toml",
             "benchmark/Cargo.lock", "Cargo.toml", "Cargo.lock"]
    for root in roots:
        path = os.path.join(REPO_ROOT, root)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml", ".lock")) and "/target/" not in d + "/")
        for name in files:
            h.update(os.path.relpath(name, REPO_ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    ident = "src-" + h.hexdigest()[:12]
    try:
        sha = subprocess.run(["git", "-C", REPO_ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            ident = sha.stdout.strip() + "+" + ident
    except (OSError, subprocess.TimeoutExpired):
        pass
    return ident


def run_once(args):
    binary = build()
    if binary is None:
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    results = args.results or os.path.join(OUT_DIR, "results.jsonl")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--results", results, "--commit", source_id()]
    # glibc opens more malloc arenas as threads contend, up to 8 per core,
    # and how many a run happens to open moved serve-lola-paged's peak RSS
    # by 15 % between runs. Capped at the core count it repeats to 0.1 %.
    env = dict(os.environ)
    env.setdefault("MALLOC_ARENA_MAX", str(len(os.sched_getaffinity(0))))
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        log(f"error: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        # Spill directories of this process, should it have died without
        # removing them itself.
        for d in glob.glob(os.path.join(OUT_DIR, "spill", f"spill-{child.pid}-*")):
            shutil.rmtree(d, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if child.returncode != 0:
        sys.stderr.write(out)
        log(f"error: {args.workload} exited with code {child.returncode}")
        return child.returncode if child.returncode > 0 else 1
    try:
        json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log("error: the benchmark printed no result line")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def load_results(path):
    """workload -> metric -> [values] over the untraced runs in a file."""
    by = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            for name, value in rec["metrics"].items():
                by.setdefault(rec["workload"], {}).setdefault(name, []).append(value)
    return by


def summarize(path):
    spec = load_spec()
    by = load_results(path)
    worst = 0.0
    for name in sorted(by):
        metrics = by[name]
        print(f"{name}  ({len(next(iter(metrics.values())))} runs)")
        for m in spec["end_to_end"]:
            vals = metrics.get(m["name"], [])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            ok = "ok" if s < m["bound"] / 3 else "WIDE"
            worst = max(worst, s / m["bound"])
            print(f"  {m['name']:<20} q1 {q1:<12.6g} median {med:<12.6g} q3 {q3:<12.6g} "
                  f"spread {s:7.2%}  bound {m['bound']:.0%}  {ok}")
    print(f"widest spread is {worst:.2f} of its bound (steady below 0.33)")


def compare(base_path, new_path):
    spec = load_spec()
    base, new = load_results(base_path), load_results(new_path)
    print(f"{'workload':<18} {'metric':<20} {'base median [q1,q3]':>34} "
          f"{'new median [q1,q3]':>34} {'delta':>8} {'bound':>6}  verdict")
    for name in sorted(set(base) & set(new)):
        a, b = base[name], new[name]
        for m in spec["end_to_end"]:
            va, vb = a.get(m["name"]), b.get(m["name"])
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("inf")
            worse = delta if m["better"] == "lower" else -delta
            if max(spread(va), spread(vb)) > m["bound"]:
                verdict = "unresolved (spread exceeds bound)"
            elif worse > m["bound"]:
                verdict = "WORSE beyond bound"
            elif worse < -m["bound"]:
                verdict = "better beyond bound"
            else:
                verdict = "within bound"
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g},{q[2]:.6g}]"
            print(f"{name:<18} {m['name']:<20} {fmt(qa):>34} {fmt(qb):>34} "
                  f"{delta:>+8.2%} {m['bound']:>6.0%}  {verdict}")


def sweep(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    for w in workloads:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace), "--results", args.out]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = done.stdout.rstrip("\n").split("\n")[-1]
            log(f"{w} seed {seed}: exit {done.returncode} {last[:160]}")
    if not args.trace:
        summarize(args.out)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("new")
        a = p.parse_args(sys.argv[2:])
        compare(a.base, a.new)
        return 0
    if len(sys.argv) > 1 and sys.argv[1] == "sweep":
        p = argparse.ArgumentParser(prog="run.py sweep")
        p.add_argument("--seeds", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--workloads", help="comma-separated; default all")
        p.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
        p.add_argument("--trace", type=int, choices=[0, 1], default=0)
        p.add_argument("--out", required=True, help="JSON-lines file the runs append to")
        a = p.parse_args(sys.argv[2:])
        sweep(a)
        return 0
    if len(sys.argv) > 1 and sys.argv[1] == "summary":
        summarize(sys.argv[2])
        return 0
    p = argparse.ArgumentParser(description="Orion benchmark of record")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--results", help="JSON-lines file to append the run record to "
                   "(default benchmark/out/results.jsonl)")
    return run_once(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
