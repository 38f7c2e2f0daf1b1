#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 perf/compare.py PARENT CHANGE

PARENT and CHANGE are result files of maicc_perf, or directories
searched recursively for them (perf/run.py writes them to perf/out/).
Only untraced results count. Runs of the two sides are paired in seed
order. For every workload and end-to-end metric of BENCHMARK.json the
report gives each side's median and quartiles, the change's median
against the parent's, the share of pairs the change won (ties count for
neither side), and a verdict:

  regression   the change's median is worse than the parent's by more
               than the metric's bound (and, for set-up time and
               memory, by more than an absolute floor, see FLOORS);
  unresolved   the parent's own quartile spread, as a share of its
               median, is wider than the bound, and the change's runs
               do not all beat the parent's;
  improvement  better by more than the bound, winning at least nine
               tenths of the pairs, with medians further apart than the
               parent's quartile spread;
  same         otherwise.

Exits 1 on any regression, any failed op, or a digest that differs
between runs of one workload at one seed.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

# Absolute changes below these never count against a metric: set-up
# times of tens of ms and peaks of a few MB move by this much between
# identical runs.
FLOORS = {"setup_s": 0.05, "peak_rss_mb": 1.0}


def load_results(path):
    """Untraced maicc_perf results under @p path, keyed by workload."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(d, f) for d, _, fs in os.walk(path)
                       for f in fs if f.endswith(".json"))
    runs = defaultdict(list)
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or "workload" not in doc \
                or doc.get("traced"):
            continue
        doc["file"] = f
        runs[doc["workload"]].append(doc)
    for docs in runs.values():
        docs.sort(key=lambda d: (d["seed"], d["file"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """(verdict, relative change, share of pairs the change won)."""
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    rel = (cm - pm) / pm if pm else 0.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) < 0)
    share = won / len(pairs) if pairs else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    worse_by = sign * rel
    if worse_by > bound:
        return "regression", rel, share
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved", rel, share
    if -worse_by > bound and share >= 0.9 and abs(cm - pm) > p3 - p1:
        return "improvement", rel, share
    return "same", rel, share


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    a = ap.parse_args()

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parent, change = load_results(a.parent), load_results(a.change)

    bad = False
    digests = defaultdict(set)
    for side in (parent, change):
        for workload, docs in side.items():
            for d in docs:
                digests[(workload, d["seed"])].add(d["digest"])
                if d["failed"]:
                    print(f"FAILED OPS: {d['file']}: {d['failed']} of "
                          f"{d['attempted']}")
                    bad = True
    for (workload, seed), ds in sorted(digests.items()):
        if len(ds) > 1:
            print(f"DIGEST MISMATCH: {workload} seed {seed}: "
                  + ", ".join(sorted(ds)))
            bad = True

    fmt = "{:<21} {:<18} {:>30} {:>30} {:>8} {:>5}  {}"
    print(fmt.format("workload", "metric", "parent median [q1, q3]",
                     "change median [q1, q3]", "change", "won",
                     "verdict"))
    for w in bench["workloads"]:
        name = w["name"]
        if name not in parent or name not in change:
            print(f"{name}: no runs on "
                  f"{'the parent' if name not in parent else 'the change'}")
            bad = True
            continue
        for m in bench["end_to_end"]:
            pv = [d["metrics"][m["name"]]["value"] for d in parent[name]]
            cv = [d["metrics"][m["name"]]["value"] for d in change[name]]
            bound = m["bound"]
            pm = statistics.median(pv)
            if m["name"] in FLOORS and pm:
                bound = max(bound, FLOORS[m["name"]] / abs(pm))
            v, rel, share = verdict(pv, cv, m["better"], bound)
            bad = bad or v == "regression"
            cols = []
            for vals in (pv, cv):
                q1, q2, q3 = quartiles(vals)
                cols.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
            print(fmt.format(name, m["name"], cols[0], cols[1],
                             f"{rel * 100:+.1f}%", f"{share:.0%}",
                             v + f" (bound {bound:.0%})"))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
