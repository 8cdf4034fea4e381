#!/usr/bin/env python3
"""Checks tools/bench_diff.py on two fixture files whose rows use ms, ns and
(for one benchmark) a different time_unit in baseline and current, and on
pairs of files whose rows carry the twin_bytes_per_user and allocs/iter
counters.

Usage: bench_diff_test.py REPO_ROOT
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run_files(root, baseline, current, *extra):
    return subprocess.run(
        [sys.executable, str(root / "tools" / "bench_diff.py"),
         str(baseline), str(current), *extra],
        capture_output=True, text=True, check=False)


def run(root, *extra):
    fixtures = root / "tests" / "fixtures"
    return run_files(root, fixtures / "bench_diff_baseline.json",
                     fixtures / "bench_diff_current.json", *extra)


def write_rows(path, rows, counter="twin_bytes_per_user"):
    """Writes one 1 ms iteration row per (name, `counter` value or None)."""
    benchmarks = []
    for name, value in rows:
        entry = {"name": name, "run_type": "iteration", "real_time": 1.0,
                 "cpu_time": 1.0, "time_unit": "ms"}
        if value is not None:
            entry[counter] = value
        benchmarks.append(entry)
    path.write_text(json.dumps({"benchmarks": benchmarks}), encoding="utf-8")


def row(stdout, name):
    for line in stdout.splitlines():
        if line.startswith(name + " "):
            return line.split()
    raise AssertionError(f"no row for {name} in:\n{stdout}")


def main():
    root = Path(sys.argv[1]).resolve()
    result = run(root)
    assert result.returncode == 0, result
    # name, baseline value + unit, current value + unit, delta[, flag]
    assert row(result.stdout, "BM_Millis")[:6] == [
        "BM_Millis", "18.5", "ms", "9.25", "ms", "-50.0%"], result.stdout
    assert row(result.stdout, "BM_Nanos")[:6] == [
        "BM_Nanos", "2", "us", "2.1", "us", "+5.0%"], result.stdout
    assert row(result.stdout, "BM_UnitChange") == [
        "BM_UnitChange", "2", "us", "3", "us", "+50.0%", "<--", "REGRESSION"], result.stdout
    assert "1 regression(s)" in result.stdout, result.stdout
    assert run(root, "--strict").returncode == 1
    # The fixtures carry no counter: no counter table.
    assert "counter" not in result.stdout, result.stdout

    # twin_bytes_per_user is compared like a time (lower is better), over
    # the rows that carry it in both files; times are all equal here.
    with tempfile.TemporaryDirectory() as tmp:
        baseline = Path(tmp) / "baseline.json"
        current = Path(tmp) / "current.json"
        write_rows(baseline, [("BM_Grew", 6000), ("BM_Shrank", 87000),
                              ("BM_OnlyBaseline", 100), ("BM_Plain", None)])
        write_rows(current, [("BM_Grew", 7200), ("BM_Shrank", 6000),
                             ("BM_OnlyBaseline", None), ("BM_Plain", None)])
        result = run_files(root, baseline, current, "--strict")
    assert result.returncode == 1, result
    counter_table = result.stdout.split("counter twin_bytes_per_user")[1]
    assert row(counter_table, "BM_Grew") == [
        "BM_Grew", "6000", "7200", "+20.0%", "<--", "REGRESSION"], result.stdout
    assert row(counter_table, "BM_Shrank") == [
        "BM_Shrank", "87000", "6000", "-93.1%", "(better)"], result.stdout
    assert "BM_OnlyBaseline" not in counter_table, result.stdout
    assert "BM_Plain" not in counter_table, result.stdout
    assert "1 regression(s)" in result.stdout, result.stdout
    assert "BM_Grew twin_bytes_per_user regressed +20.0%" in result.stderr, result

    # allocs/iter from a zero baseline: any rise is a regression (+inf%),
    # zero to zero is no change.
    with tempfile.TemporaryDirectory() as tmp:
        baseline = Path(tmp) / "baseline.json"
        current = Path(tmp) / "current.json"
        write_rows(baseline, [("BM_Fit", 0), ("BM_Embed", 0), ("BM_Act", 4)],
                   counter="allocs/iter")
        write_rows(current, [("BM_Fit", 50), ("BM_Embed", 0), ("BM_Act", 0)],
                   counter="allocs/iter")
        result = run_files(root, baseline, current, "--strict")
    assert result.returncode == 1, result
    counter_table = result.stdout.split("counter allocs/iter")[1]
    assert row(counter_table, "BM_Fit") == [
        "BM_Fit", "0", "50", "+inf%", "<--", "REGRESSION"], result.stdout
    assert row(counter_table, "BM_Embed") == [
        "BM_Embed", "0", "0", "+0.0%"], result.stdout
    assert row(counter_table, "BM_Act") == [
        "BM_Act", "4", "0", "-100.0%", "(better)"], result.stdout
    assert "1 regression(s)" in result.stdout, result.stdout
    assert "BM_Fit allocs/iter regressed +inf%" in result.stderr, result
    print("bench_diff_test: ok")


if __name__ == "__main__":
    main()
