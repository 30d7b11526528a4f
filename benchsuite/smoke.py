#!/usr/bin/env python3
"""Smoke test of the benchmark suite.

Runs every workload named in BENCHMARK.json at --smoke size, once
end-to-end (--trace 0) and once traced (--trace 1), and checks that
each run emits every metric BENCHMARK.json names for that mode with
the unit it declares, and that no operation failed (fail_rate 0).

Usage: smoke.py QGPU_BENCH_BINARY BENCHMARK_JSON
"""

import json
import subprocess
import sys


def check_run(binary, workload, trace, expected):
    """Run one smoke-size workload; return a list of problems."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--smoke", "--seconds", "0.1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=False)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return [f"{where}: no output"]
    result = json.loads(lines[-1])
    problems = []
    got = result["metrics"]
    for name, unit in expected.items():
        if name not in got:
            problems.append(f"{where}: metric {name} missing")
        elif got[name]["unit"] != unit:
            problems.append(f"{where}: metric {name} has unit "
                            f"{got[name]['unit']}, expected {unit}")
    for name in sorted(set(got) - set(expected)):
        problems.append(f"{where}: metric {name} not in BENCHMARK.json")
    if result["attempted"] < 1:
        problems.append(f"{where}: no operations attempted")
    if result["failed"] != 0 or not result["correct"]:
        problems.append(f"{where}: {result['failed']} of "
                        f"{result['attempted']} operations failed")
    return problems


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    modes = ((0, "end_to_end"), (1, "per_layer"))
    problems = []
    for workload in spec["workloads"]:
        for trace, key in modes:
            expected = {m["name"]: m["unit"] for m in spec[key]}
            problems += check_run(binary, workload["name"], trace,
                                  expected)
    for problem in problems:
        print(f"smoke: FAILED: {problem}")
    if not problems:
        print(f"smoke: {len(spec['workloads'])} workloads x 2 modes ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
