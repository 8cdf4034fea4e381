#!/usr/bin/env python3
"""Checks tools/bench_diff.py on two fixture files whose rows use ms, ns and
(for one benchmark) a different time_unit in baseline and current.

Usage: bench_diff_test.py REPO_ROOT
"""

import subprocess
import sys
from pathlib import Path


def run(root, *extra):
    fixtures = root / "tests" / "fixtures"
    return subprocess.run(
        [sys.executable, str(root / "tools" / "bench_diff.py"),
         str(fixtures / "bench_diff_baseline.json"),
         str(fixtures / "bench_diff_current.json"), *extra],
        capture_output=True, text=True, check=False)


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
    print("bench_diff_test: ok")


if __name__ == "__main__":
    main()
