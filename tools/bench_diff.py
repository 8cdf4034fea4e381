#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and report per-benchmark deltas.

The CI bench-regression gate: a freshly produced BENCH_*.json is compared
against the committed baseline, per-benchmark time deltas are printed, and
anything slower than the threshold is flagged. By default regressions only
*warn* (hosted-runner noise must never hard-fail a PR); pass --strict to
exit non-zero when a regression exceeds the threshold (for dedicated perf
hardware).

Standard library only, by design.

Usage:
  tools/bench_diff.py BASELINE.json CURRENT.json [--threshold 15]
      [--metric cpu_time|real_time] [--filter REGEX] [--strict]

Rows are compared in nanoseconds after scaling each by its own
`time_unit` (ns, us, ms or s; ns when absent), so a ms-unit file prints in
ms and a baseline and current row in different units still compare.

Each user counter in COUNTERS gets its own table over the rows that carry
it in both files (none when no row does). Lower is better, as for times,
and the same threshold and --strict rule apply. A rise from a zero
baseline (a row that allocated nothing and now allocates) reads +inf% and
is always a regression.

Exit status: 0 OK (or warnings without --strict), 1 regression with
--strict, 2 unreadable/invalid input.
"""

import argparse
import json
import math
import os
import re
import sys


# google-benchmark's time_unit values, in nanoseconds.
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
# User counters compared like times (lower is better) wherever both rows
# carry them: twin ring bytes per user, from bench_e2e_scale, and heap
# allocations per iteration, from bench_micro_perf.
COUNTERS = ("twin_bytes_per_user", "allocs/iter")


def die(message):
    print(f"bench_diff: {message}", file=sys.stderr)
    sys.exit(2)


def load_entries(path):
    """Returns the plain iteration entries of `path` that have a name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        die(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        die(f"{path} is not valid JSON: {err}")
    # Skip aggregate rows (mean/median/stddev of --benchmark_repetitions);
    # manual emitter entries are run_type == "iteration" as well.
    return [entry for entry in doc.get("benchmarks", [])
            if entry.get("run_type", "iteration") == "iteration"
            and entry.get("name") is not None]


def load_times(path, entries, metric):
    """Returns {name: time_ns}."""
    out = {}
    for entry in entries:
        name = entry["name"]
        value = entry.get(metric, entry.get("real_time"))
        if value is None:
            continue
        unit = entry.get("time_unit", "ns")
        if unit not in UNIT_NS:
            die(f"{path}: {name} has unknown time_unit {unit!r}")
        out[name] = float(value) * UNIT_NS[unit]
    if not out:
        die(f"{path} holds no benchmark entries")
    return out


def load_counter(entries, counter):
    """Returns {name: value} for the entries carrying user counter `counter`."""
    return {entry["name"]: float(entry[counter])
            for entry in entries if isinstance(entry.get(counter), (int, float))}


def format_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if abs(ns) >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"


def compare(baseline, current, threshold, fmt, better="faster"):
    """Prints one delta row per shared name (lower is better); returns the
    (name, delta%) lists of regressions and improvements beyond threshold."""
    shared = [name for name in baseline if name in current]
    regressions = []
    improvements = []
    width = max((len(n) for n in shared), default=4)
    print(f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}  {'delta':>8}")
    for name in shared:
        base = baseline[name]
        cur = current[name]
        if base > 0:
            delta = (cur - base) / base * 100.0
        else:
            # No relative change exists from zero: any rise is unbounded.
            delta = math.inf if cur > base else 0.0
        flag = ""
        if delta > threshold:
            flag = "  <-- REGRESSION"
            regressions.append((name, delta))
        elif delta < -threshold:
            flag = f"  ({better})"
            improvements.append((name, delta))
        print(f"{name:<{width}}  {fmt(base):>10}  {fmt(cur):>10}  {delta:>+7.1f}%{flag}")
    return regressions, improvements


def main():
    parser = argparse.ArgumentParser(
        description="Per-benchmark delta report between two google-benchmark "
        "JSON files, with a warn/fail regression threshold."
    )
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument("current", help="freshly produced BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=15.0,
        help="regression threshold in percent (default: 15)",
    )
    parser.add_argument(
        "--metric",
        choices=("cpu_time", "real_time"),
        default="cpu_time",
        help="which benchmark time to compare (default: cpu_time; CI "
        "wall-clock is noisier than CPU time)",
    )
    parser.add_argument(
        "--filter", default="", help="only compare benchmarks matching this regex"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any regression exceeds the threshold (default: warn "
        "only — hosted-runner noise must not fail PRs)",
    )
    args = parser.parse_args()
    if args.threshold <= 0:
        parser.error("--threshold must be positive")

    baseline_entries = load_entries(args.baseline)
    current_entries = load_entries(args.current)
    baseline = load_times(args.baseline, baseline_entries, args.metric)
    current = load_times(args.current, current_entries, args.metric)
    if args.filter:
        pattern = re.compile(args.filter)
        baseline = {k: v for k, v in baseline.items() if pattern.search(k)}
        current = {k: v for k, v in current.items() if pattern.search(k)}
        baseline_entries = [e for e in baseline_entries if e["name"] in baseline]
        current_entries = [e for e in current_entries if e["name"] in current]

    shared = [name for name in baseline if name in current]
    only_baseline = sorted(set(baseline) - set(current))
    only_current = sorted(set(current) - set(baseline))

    print(f"bench_diff: {args.current} vs {args.baseline} "
          f"({args.metric}, threshold {args.threshold:g}%)\n")
    regressions, improvements = compare(baseline, current, args.threshold, format_ns)
    for counter in COUNTERS:
        counter_baseline = load_counter(baseline_entries, counter)
        counter_current = load_counter(current_entries, counter)
        if not any(name in counter_current for name in counter_baseline):
            continue
        print(f"\ncounter {counter} (lower is better)")
        counter_regressions, counter_improvements = compare(
            counter_baseline, counter_current,
            args.threshold, lambda v: f"{v:.6g}", better="better")
        regressions += [(f"{name} {counter}", d) for name, d in counter_regressions]
        improvements += [(f"{name} {counter}", d) for name, d in counter_improvements]

    if only_baseline:
        print(f"\nonly in baseline (removed?): {', '.join(only_baseline)}")
    if only_current:
        print(f"\nonly in current (new): {', '.join(only_current)}")

    annotate = os.environ.get("GITHUB_ACTIONS") == "true"
    # A benchmark added by the PR has nothing to be compared against: call
    # it out as informational (a notice, never a failure) instead of
    # skipping it silently — the committed baseline needs refreshing to
    # start gating it.
    for name in only_current:
        message = (
            f"{name} is new — no entry in the committed baseline; reported "
            f"informationally only (refresh the baseline to gate it)"
        )
        if annotate:
            print(f"::notice title=new benchmark::{message}")
        else:
            print(f"note: {message}", file=sys.stderr)

    print(
        f"\n{len(shared)} compared, {len(regressions)} regression(s) beyond "
        f"{args.threshold:g}%, {len(improvements)} improvement(s) beyond it"
    )
    for name, delta in regressions:
        message = (
            f"{name} regressed {delta:+.1f}% vs baseline "
            f"(threshold {args.threshold:g}%)"
        )
        if annotate:
            print(f"::warning title=bench regression::{message}")
        else:
            print(f"warning: {message}", file=sys.stderr)

    if regressions and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
