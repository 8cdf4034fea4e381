#!/usr/bin/env python3
"""Repository benchmark runner (stdlib only).

Builds perfbench/workloads.cpp against the dtmsv sources of this checkout,
runs one workload per process (the harness sizes its own thread pool and
moves it across the CPUs; see README.md), and prints the result as the last
stdout line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Modes:

    run.py --workload W --seed S --seconds T --trace 0|1
        One run. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
        --trace 1 the per-layer ones (and writes a Chrome trace into the
        build directory).
    run.py --runs N [--workload W ...] [--seed S] [--seconds T] [--trace 0|1]
        N rounds over the workloads (default: those BENCHMARK.json lists;
        seeds S, S+1, ...), alternating the workload order, then per-metric
        median, quartiles and spread.
    run.py --check-repeat [--runs N] ...
        Two such sets with the same seeds, plus one traced run per workload.
        Fails if a median moved by more than its bound, or if any forecast
        digest differs between sets or between traced and untraced runs.
    run.py --smoke [--workload W ...]
        Every harness workload at ~1/50 size, traced and untraced, with all
        checks.

The build goes to $CARGO_TARGET_DIR (default .bench_build) in the checkout.
Exit status: 0 on success, 1 on a failed check or run, 2 on bad usage or a
checkout without the dtmsv sources.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Every workload the harness runs; BENCHMARK.json lists the gated ones.
WORKLOADS = ["serve_steady", "serve_degraded_1k", "fleet_steady", "fleet_flash_crowd"]
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A failed build, run or check; the message goes to stderr."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures once, then builds the harness (a no-op when up to date)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"run.py: no dtmsv source tree at {ROOT}")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_workloads",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            log(proc.stdout)
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "perfbench_workloads"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    return proc.stdout.strip() or "unknown"


def run_once(exe, workload, seed, seconds, trace, smoke=False):
    """Runs one workload process; returns its parsed result line."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--trace-out", str(build_dir() / f"trace_{workload}_seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload}: exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def check_metric_names(result, spec, trace):
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if got != wanted:
        raise BenchError(f"metric set mismatch: missing {sorted(wanted - got)}, "
                         f"unexpected {sorted(got - wanted)}")


def single(args, spec):
    if len(args.workload or []) != 1:
        raise BenchError("exactly one --workload is required")
    exe = build()
    result = run_once(exe, args.workload[0], args.seed, args.seconds, args.trace)
    check_metric_names(result, spec, args.trace)
    context = dict(result["context"], commit=git_commit())
    print(json.dumps({"context": context}))
    correct = result["correct"] and result["exit_code"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


def gated(args, spec):
    """The workloads named on the command line, else those BENCHMARK.json lists."""
    return args.workload or [w["name"] for w in spec["workloads"]]


def run_set(exe, args, spec, label):
    """--runs rounds; returns {(workload, metric): [values]}, {(workload, seed): digest}."""
    workloads = gated(args, spec)
    values, digests = {}, {}
    for r in range(args.runs):
        seed = args.seed + r
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for workload in order:
            result = run_once(exe, workload, seed, args.seconds, args.trace)
            check_metric_names(result, spec, args.trace)
            if not result["correct"] or result["exit_code"] != 0:
                raise BenchError(f"{label}: {workload} seed {seed} failed: "
                                 f"{result['context'].get('failures')}")
            digests[(workload, seed)] = result["context"]["digest"]
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
            log(f"{label} round {r + 1}/{args.runs} {workload} seed {seed}: " +
                ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    return values, digests


def summarise(values, spec):
    """Per-metric median and quartiles; returns {(workload, metric): median}."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    medians = {}
    print(f"{'workload':<20} {'metric':<24} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for (workload, name), xs in sorted(values.items()):
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        print(f"{workload:<20} {name:<24} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.4f} {'' if bound is None else bound:>6}")
        medians[(workload, name)] = med
    return medians


def runs(args, spec):
    exe = build()
    values, _ = run_set(exe, args, spec, "set")
    summarise(values, spec)
    return 0


def check_repeat(args, spec):
    exe = build()
    first, digests_a = run_set(exe, args, spec, "set 1")
    second, digests_b = run_set(exe, args, spec, "set 2")
    print("set 1")
    medians_a = summarise(first, spec)
    print("set 2")
    medians_b = summarise(second, spec)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = []
    for key, a in medians_a.items():
        bound = bounds.get(key[1])
        b = medians_b[key]
        if bound is not None and a and abs(b - a) / abs(a) > bound:
            problems.append(f"{key}: median {a:.6g} -> {b:.6g} exceeds bound {bound}")
    for key, digest in digests_a.items():
        if digests_b.get(key) != digest:
            problems.append(f"{key}: digest {digest} != {digests_b.get(key)}")
    for workload in gated(args, spec):
        traced = run_once(exe, workload, args.seed, args.seconds, True)
        if not traced["correct"] or traced["exit_code"] != 0:
            problems.append(f"{workload}: traced run failed: "
                            f"{traced['context'].get('failures')}")
        elif traced["context"]["digest"] != digests_a[(workload, args.seed)]:
            problems.append(f"{workload}: traced digest differs from untraced")
    for p in problems:
        log("REPEAT CHECK FAILED: " + p)
    print("check-repeat: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def smoke(args, spec):
    exe = build()
    problems = []
    for workload in args.workload or WORKLOADS:
        digests = []
        for trace in (False, True):
            result = run_once(exe, workload, args.seed, 0, trace, smoke=True)
            check_metric_names(result, spec, trace)
            ok = result["correct"] and result["exit_code"] == 0
            digests.append(result["context"]["digest"])
            print(f"smoke {workload:<20} trace={int(trace)} "
                  f"{'ok' if ok else 'FAIL'} digest={digests[-1]}")
            if not ok:
                problems.append(f"{workload}: {result['context'].get('failures')}")
        if digests[0] != digests[1]:
            problems.append(f"{workload}: traced digest differs from untraced")
    for p in problems:
        log("SMOKE FAILED: " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int)
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        log(f"run.py: cannot read BENCHMARK.json: {exc}")
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        if args.smoke:
            return smoke(args, spec)
        if args.check_repeat:
            args.runs = args.runs or 5
        if args.runs is not None and args.runs < 2:
            raise BenchError("--runs needs at least 2 rounds")
        if args.check_repeat:
            return check_repeat(args, spec)
        if args.runs is not None:
            return runs(args, spec)
        return single(args, spec)
    except BenchError as exc:
        log(f"run.py: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
