#!/usr/bin/env python3
"""Compares two sets of benchmark results, e.g. a parent commit and a change.

    benchmark/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the result files run.sh writes to .bench_out/
(WORKLOAD_seedN.json; traced results are ignored). For every (workload,
end-to-end metric) pair it prints both sides' median and quartiles and a
verdict, using the bounds and directions in BENCHMARK.json. Workloads that
BENCHMARK.json does not gate (ring_echo, dlog_append, ring_failover) are
compared the same way when both sides have them, marked "(not gated)":

  better      the change wins at least 90% of the runs paired with the
              parent's (paired by seed, else by order; ties count for
              neither) and the medians differ by more than the parent's
              interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own spread (interquartile range over median) is
              wider than the bound, so "no regression" cannot be shown,
              and the change does not beat or lose to every parent run
  same        none of the above

Diagnostics that are not gated (p99, p999, failure share) are listed with
their medians and (max - min) / median spread. Exit status is 1 if any
gated pair is worse.
"""
import argparse
import collections
import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = collections.defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        try:
            r = json.load(open(path))
        except (OSError, ValueError):
            continue
        if not isinstance(r, dict) or r.get("trace") or "end_to_end" not in r:
            continue
        runs[r["workload"]].append(r)
    for rs in runs.values():
        rs.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(a_runs, b_runs, section, name):
    a = {r["seed"]: r[section][name]["value"] for r in a_runs}
    b = {r["seed"]: r[section][name]["value"] for r in b_runs}
    common = sorted(set(a) & set(b))
    if common:
        return [(a[s], b[s]) for s in common]
    av = [r[section][name]["value"] for r in a_runs]
    bv = [r[section][name]["value"] for r in b_runs]
    return list(zip(av, bv))


def verdict(metric, a_vals, b_vals, paired):
    sign = 1.0 if metric["better"] == "higher" else -1.0
    bound = metric["bound"]
    a_q1, a_med, a_q3 = quartiles(a_vals)
    b_med = statistics.median(b_vals)
    spread = (a_q3 - a_q1) / abs(a_med) if a_med else float("inf")
    wins = sum(1 for x, y in paired if sign * (y - x) > 0)
    gain = (paired and wins >= 0.9 * len(paired)
            and sign * (b_med - a_med) > (a_q3 - a_q1))
    all_better = min(sign * v for v in b_vals) > max(sign * v for v in a_vals)
    all_worse = max(sign * v for v in b_vals) < min(sign * v for v in a_vals)
    worse = sign * (b_med - a_med) < -bound * abs(a_med)
    if gain or (spread > bound and all_better):
        return "better", wins, spread
    if worse and (spread <= bound or all_worse):
        return "worse", wins, spread
    if spread > bound:
        return "unresolved", wins, spread
    return "same", wins, spread


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark",
                    default=os.path.join(here, "..", "BENCHMARK.json"))
    args = ap.parse_args()
    spec = json.load(open(args.benchmark))
    a_all, b_all = load(args.parent), load(args.change)
    if not a_all or not b_all:
        sys.exit("compare.py: no untraced result files in one of the directories")

    gated = [w["name"] for w in spec["workloads"]]
    names = gated + sorted((set(a_all) & set(b_all)) - set(gated))
    worse = 0
    counts = collections.Counter()
    print("%-12s %-11s %26s %26s %8s %6s %7s  %s" % (
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "delta", "wins", "spread", "verdict"))
    for name in names:
        a_runs, b_runs = a_all.get(name, []), b_all.get(name, [])
        if not a_runs or not b_runs:
            print("%-12s (missing on one side)" % name)
            continue
        for m in spec["end_to_end"]:
            a_vals = [r["end_to_end"][m["name"]]["value"] for r in a_runs]
            b_vals = [r["end_to_end"][m["name"]]["value"] for r in b_runs]
            paired = pairs(a_runs, b_runs, "end_to_end", m["name"])
            v, wins, spread = verdict(m, a_vals, b_vals, paired)
            if name in gated:
                counts[v] += 1
                worse += v == "worse"
            else:
                v += " (not gated)"
            a_q = quartiles(a_vals)
            b_q = quartiles(b_vals)
            print("%-12s %-11s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] "
                  "%+7.1f%% %3d/%-2d %6.1f%%  %s" % (
                      name, m["name"], a_q[1], a_q[0], a_q[2], b_q[1], b_q[0],
                      b_q[2], 100 * (b_q[1] / a_q[1] - 1) if a_q[1] else 0,
                      wins, len(paired), 100 * spread, v))
    print("\ngated verdicts: " +
          ", ".join("%s %d" % kv for kv in sorted(counts.items())))

    print("\nnot gated (median, (max - min) / median over each side):")
    for name in names:
        a_runs, b_runs = a_all.get(name, []), b_all.get(name, [])
        if not a_runs or not b_runs:
            continue
        for d in ("p99_ms", "p999_ms", "failed_frac"):
            cols = []
            for runs in (a_runs, b_runs):
                vals = [r["diagnostics"][d]["value"] for r in runs
                        if r["diagnostics"].get(d, {}).get("value") is not None]
                if not vals:
                    cols.append("%24s" % "-")
                    continue
                med = statistics.median(vals)
                rng = (max(vals) - min(vals)) / med if med else 0.0
                cols.append("%12.4g (%6.1f%%)" % (med, 100 * rng))
            print("%-12s %-12s %s   %s" % (name, d, cols[0], cols[1]))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
