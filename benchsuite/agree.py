#!/usr/bin/env python3
"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

Usage: agree.py SET_A SET_B [--benchmark PATH]

A set is a directory of result files written by
`run.sh --record DIR --seeds ...` (one JSON file per workload, seed and
mode). Set B is judged against set A.

End-to-end results (--trace 0 files): for every (metric, workload)
pair the tool prints each set's median and quartiles over its seeds
and one verdict:

  agree       B's median is within the metric's bound of A's
  worse       B's median is worse than A's by more than the bound
  better      B's median is better than A's by more than the bound
  unresolved  a set's spread (quartile distance over median) exceeds
              the bound, and the runs of one set do not all beat the
              runs of the other

Pairs whose values are equal at every common seed are marked
"identical"; the deterministic metric model_s must be.

Traced results (--trace 1 files): per-layer metrics have no bound, so
each (metric, workload) pair is reported as identical (equal at every
common seed, as every counter must be) or varies.

Exit status 1 when any verdict is worse or unresolved, a deterministic
metric differs, or any run failed an operation.
"""

import argparse
import json
import os
import statistics
import sys

EXACT = {"model_s"}


def load_set(path):
    """(workload, trace) -> {seed: result} for every result file."""
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(path, name), encoding="utf-8") as f:
            result = json.load(f)
        key = (result["workload"], result["trace"])
        runs.setdefault(key, {})[result["seed"]] = result
    return runs


def summary(values):
    """Median, first and third quartile."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(a, b, better, bound):
    """Judge B against A for one (metric, workload) pair."""
    ma, qa1, qa3 = summary(a)
    mb, qb1, qb3 = summary(b)
    spread = max((qa3 - qa1) / ma if ma else 0.0,
                 (qb3 - qb1) / mb if mb else 0.0)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (mb - ma) / ma if ma else 0.0  # > 0: B is worse
    if better == "lower":
        all_better, all_worse = max(b) < min(a), min(b) > max(a)
    else:
        all_better, all_worse = min(b) > max(a), max(b) < min(a)
    if spread > bound:
        if all_better:
            return "better", change, spread
        if all_worse:
            return "worse", change, spread
        return "unresolved", change, spread
    if change > bound:
        return "worse", change, spread
    if change < -bound:
        return "better", change, spread
    return "agree", change, spread


def compare_end_to_end(spec, runs_a, runs_b):
    bad = 0
    print(f"{'workload':<16} {'metric':<14} {'bound':>6} "
          f"{'A median [q1, q3]':>36} {'B median [q1, q3]':>36} "
          f"{'change':>8} {'spread':>7}  verdict")
    for wl in spec["workloads"]:
        key = (wl["name"], 0)
        if key not in runs_a or key not in runs_b:
            print(f"{wl['name']:<16} (missing from a set)")
            bad += 1
            continue
        ra, rb = runs_a[key], runs_b[key]
        seeds = sorted(set(ra) & set(rb))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [ra[s]["metrics"][name]["value"] for s in sorted(ra)]
            b = [rb[s]["metrics"][name]["value"] for s in sorted(rb)]
            identical = bool(seeds) and all(
                ra[s]["metrics"][name]["value"] ==
                rb[s]["metrics"][name]["value"] for s in seeds)
            word, change, spread = verdict(a, b, metric["better"],
                                           metric["bound"])
            if identical:
                word = "agree (identical)"
            elif name in EXACT:
                word += " (DIFFERS at equal seeds)"
                bad += 1
            if word.startswith(("worse", "unresolved")):
                bad += 1
            ma, qa1, qa3 = summary(a)
            mb, qb1, qb3 = summary(b)
            print(f"{wl['name']:<16} {name:<14} {metric['bound']:>6.3f} "
                  f"{ma:>12.6g} [{qa1:>9.6g}, {qa3:>9.6g}] "
                  f"{mb:>12.6g} [{qb1:>9.6g}, {qb3:>9.6g}] "
                  f"{change:>+8.2%} {spread:>7.2%}  {word}")
    return bad


def compare_per_layer(spec, runs_a, runs_b):
    identical, varies = [], []
    for wl in spec["workloads"]:
        key = (wl["name"], 1)
        if key not in runs_a or key not in runs_b:
            continue
        ra, rb = runs_a[key], runs_b[key]
        seeds = sorted(set(ra) & set(rb))
        for metric in spec["per_layer"]:
            name = metric["name"]
            same = bool(seeds) and all(
                ra[s]["metrics"][name]["value"] ==
                rb[s]["metrics"][name]["value"] for s in seeds)
            (identical if same else varies).append(f"{wl['name']}:{name}")
    if identical or varies:
        print(f"\nper-layer, identical at equal seeds "
              f"({len(identical)}):")
        print("  " + " ".join(identical))
        print(f"per-layer, varies ({len(varies)}):")
        print("  " + " ".join(varies))


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("set_a")
    parser.add_argument("set_b")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..",
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark, encoding="utf-8") as f:
        spec = json.load(f)
    runs_a, runs_b = load_set(args.set_a), load_set(args.set_b)

    failed = 0
    for runs in (runs_a, runs_b):
        for by_seed in runs.values():
            for result in by_seed.values():
                failed += result["failed"]
    print(f"A: {args.set_a}  B: {args.set_b}  "
          f"failed operations in either set: {failed}\n")
    bad = 0
    if any(trace == 0 for _, trace in runs_a):
        bad = compare_end_to_end(spec, runs_a, runs_b)
    compare_per_layer(spec, runs_a, runs_b)
    return 1 if bad or failed else 0


if __name__ == "__main__":
    sys.exit(main())
