#!/usr/bin/env python3
"""Compares two sets of itv_bench runs against the bounds in BENCHMARK.json.

    python3 itvbench/bench_diff.py BEFORE AFTER [--claim METRIC:WORKLOAD]
    python3 itvbench/bench_diff.py --summarize RUNS > itvbench/baseline.json

BEFORE and AFTER are each a directory of run results, one file per run named
<workload>-<seed>.json holding the last line run.py printed, or a summary
file written by --summarize (itvbench/baseline.json is one).

For every (workload, end-to-end metric) it prints the median and quartiles
of both sides and a verdict:
  better      the median improved by more than the parent's own spread
              (distance between its quartiles, as a share of its median);
  same        the median moved by less than the metric's bound;
  worse       the median got worse by more than the metric's bound;
  unresolved  either side's spread exceeds the bound, so the medians cannot
              tell (unless every AFTER run beats every BEFORE run).
With --claim it also applies the rule for claiming a gain: AFTER must win at
least 9 of every 10 pairs of runs (paired by seed; ties count for neither)
and its median must beat the parent's by more than the parent's spread.

Exits 1 when any pairing is worse, when AFTER fails a larger share of its
operations or reports an incorrect run, or when a claim is not met. Uses the
Python standard library only.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys


def load_spec(path):
    with open(path) as f:
        return json.load(f)


def load_runs(source):
    """Returns {workload: [run, ...]}; a run is the result JSON plus "seed"."""
    if os.path.isfile(source):
        with open(source) as f:
            return json.load(f)["runs"]
    runs = {}
    for path in sorted(glob.glob(os.path.join(source, "*.json"))):
        match = re.fullmatch(r"(.+)-(\d+)\.json", os.path.basename(path))
        if not match:
            continue
        with open(path) as f:
            text = f.read().strip()
        if not text:
            continue
        run = json.loads(text.splitlines()[-1])
        run["seed"] = int(match.group(2))
        runs.setdefault(match.group(1), []).append(run)
    for workload in runs:
        runs[workload].sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def summarize(spec, runs):
    summary = {}
    for workload, rs in runs.items():
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            values = metric_values(rs, metric["name"])
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            summary[workload][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread(values), "runs": len(values)}
    return summary


def better(metric, a, b):
    """True when value b is better than value a."""
    return b < a if metric["better"] == "lower" else b > a


def verdict(metric, before, after):
    bound = metric["bound"]
    _, m0, _ = quartiles(before)
    _, m1, _ = quartiles(after)
    s0, s1 = spread(before), spread(after)
    change = (m1 - m0) / abs(m0) if m0 else 0.0
    worse_by = change if metric["better"] == "lower" else -change
    if max(s0, s1) > bound:
        if all(better(metric, b, a) for a in after for b in before):
            return "better", change
        return "unresolved", change
    if worse_by > bound:
        return "worse", change
    if -worse_by > s0:
        return "better", change
    return "same", change


def failure_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return failed / attempted if attempted else 0.0


def check_claim(metric, before_runs, after_runs):
    by_seed = {r["seed"]: r for r in before_runs}
    pairs = [(by_seed[r["seed"]], r) for r in after_runs if r["seed"] in by_seed]
    if len(pairs) < len(after_runs):
        pairs = list(zip(before_runs, after_runs))
    name = metric["name"]
    wins = sum(1 for b, a in pairs if name in a["metrics"] and name in b["metrics"]
               and better(metric, b["metrics"][name]["value"],
                          a["metrics"][name]["value"]))
    before = metric_values(before_runs, name)
    after = metric_values(after_runs, name)
    _, m0, _ = quartiles(before)
    _, m1, _ = quartiles(after)
    gain = (m0 - m1) / abs(m0) if metric["better"] == "lower" else (m1 - m0) / abs(m0)
    met = len(pairs) >= 10 and wins * 10 >= 9 * len(pairs) and gain > spread(before)
    return met, wins, len(pairs), gain


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("sides", nargs="*", help="BEFORE AFTER")
    parser.add_argument("--spec", default="BENCHMARK.json")
    parser.add_argument("--summarize", metavar="RUNS",
                        help="print a summary file of the runs in RUNS")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC:WORKLOAD")
    args = parser.parse_args()
    spec = load_spec(args.spec)
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    if args.summarize:
        runs = load_runs(args.summarize)
        json.dump({"runs": runs, "summary": summarize(spec, runs)}, sys.stdout,
                  indent=1, sort_keys=True)
        print()
        return 0
    if len(args.sides) != 2:
        parser.error("give BEFORE and AFTER (or --summarize RUNS)")
    before_all, after_all = load_runs(args.sides[0]), load_runs(args.sides[1])

    regression = False
    print("%-15s %-12s %-32s %-32s %8s  %s" % (
        "workload", "metric", "before median [q1, q3]", "after median [q1, q3]",
        "change", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        before, after = before_all.get(workload, []), after_all.get(workload, [])
        if not before or not after:
            print("%-15s missing runs (before %d, after %d)" % (
                workload, len(before), len(after)))
            regression = regression or not after
            continue
        for name, metric in metrics.items():
            b, a = metric_values(before, name), metric_values(after, name)
            if not b or not a:
                print("%-15s %-12s missing" % (workload, name))
                regression = True
                continue
            result, change = verdict(metric, b, a)
            regression = regression or result == "worse"
            fmt = lambda v: "%.4g [%.4g, %.4g]" % (v[1], v[0], v[2])
            print("%-15s %-12s %-32s %-32s %+7.1f%%  %s" % (
                workload, name, fmt(quartiles(b)), fmt(quartiles(a)),
                100 * change, result))
        f0, f1 = failure_share(before), failure_share(after)
        incorrect = sum(1 for r in after if not r["correct"])
        if f1 > f0 or incorrect:
            regression = True
            print("%-15s failed share %.4g -> %.4g, %d incorrect runs: worse" % (
                workload, f0, f1, incorrect))

    claims_met = True
    for claim in args.claim:
        name, _, workload = claim.partition(":")
        if name not in metrics or not before_all.get(workload) or not after_all.get(workload):
            print("claim %s: unknown metric or workload without runs" % claim)
            claims_met = False
            continue
        met, wins, pairs, gain = check_claim(
            metrics[name], before_all[workload], after_all[workload])
        print("claim %s: %s (won %d of %d pairs, median gain %+.1f%%, parent "
              "spread %.1f%%)" % (claim, "met" if met else "NOT met", wins, pairs,
                                 100 * gain,
                                 100 * spread(metric_values(before_all[workload], name))))
        claims_met = claims_met and met
    return 1 if regression or not claims_met else 0


if __name__ == "__main__":
    sys.exit(main())
