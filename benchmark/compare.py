#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or check one set's repeatability.

Each input file is one results.json written by `benchmark/run.py` (one run
of every workload). Typical use, from the repository root:

  python3 benchmark/compare.py --base parent/*.json --change change/*.json
  python3 benchmark/compare.py --repeatability parent/*.json

Compare prints one row per workload x metric: each side's median and
quartiles, the pairs the change won (runs are paired in the order given),
and a verdict:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the base's
              interquartile range;
  worse       the change's median is worse than the base's by more than
              the metric's BENCHMARK.json bound (per-layer metrics have no
              bound: the mirror of the `better` rule instead);
  unresolved  the base's own spread is wider than the bound and not every
              change run beats every base run;
  same        none of the above.

It exits 1 when any end-to-end metric is worse. --repeatability prints
each end-to-end metric's interquartile range as a share of its median
against the bound and exits 1 when one (other than setup_s) exceeds it.
Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(paths):
    runs = []
    for p in paths:
        with open(p, encoding="utf-8") as f:
            runs.append(json.load(f)["workloads"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(runs, workload, metric):
    return [r[workload]["metrics"][metric]["value"] for r in runs
            if workload in r and metric in r[workload]["metrics"]]


def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    specs.update({m["name"]: dict(m, bound=None) for m in bench["per_layer"]})
    return bench, specs


def verdict(base, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    moved = abs(cmed - bmed) > (b3 - b1)
    if pairs and wins >= 0.9 * len(pairs) and moved and sign * (cmed - bmed) > 0:
        return "better", wins, len(pairs)
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and moved:
            return "worse", wins, len(pairs)
        return "same", wins, len(pairs)
    spread = (b3 - b1) / abs(bmed) if bmed else 0.0
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    worse_by = -sign * (cmed - bmed) / abs(bmed) if bmed else 0.0
    if worse_by > bound:
        return "worse", wins, len(pairs)
    return "same", wins, len(pairs)


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(base_runs, change_runs, specs, workloads):
    worse = False
    print(f"{'workload':10} {'metric':36} {'base median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'wins':>7}  verdict")
    for w in workloads:
        names = [m for m in specs if series(base_runs, w, m)]
        for m in names:
            base = series(base_runs, w, m)
            change = series(change_runs, w, m)
            if not change or not any(base + change):
                continue  # absent, or a layer this workload does not use
            spec = specs[m]
            v, wins, n = verdict(base, change, spec["better"], spec["bound"])
            worse = worse or (v == "worse" and spec["bound"] is not None)
            print(f"{w:10} {m:36} {fmt(base):34} {fmt(change):34} "
                  f"{wins:>3}/{n:<3}  {v}")
    return 1 if worse else 0


def repeatability(runs, bench, workloads):
    failed = False
    print(f"{'workload':10} {'metric':24} {'median':>12} {'IQR/median':>11} "
          f"{'bound':>6}  verdict")
    for w in workloads:
        for spec in bench["end_to_end"]:
            values = series(runs, w, spec["name"])
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = spec["bound"]
            if spread <= bound / 3:
                v = "steady"
            elif spread <= bound:
                v = "within bound"
            else:
                v = "too noisy"
                failed = failed or spec["name"] != "setup_s"
            print(f"{w:10} {spec['name']:24} {med:12.5g} {spread:11.4f} "
                  f"{bound:6.3f}  {v}")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", nargs="+", help="results.json of the parent")
    ap.add_argument("--change", nargs="+", help="results.json of the change")
    ap.add_argument("--repeatability", nargs="+",
                    help="results.json files of one commit")
    args = ap.parse_args()
    bench, specs = declared()
    workloads = [w["name"] for w in bench["workloads"]]
    if args.repeatability:
        return repeatability(load_runs(args.repeatability), bench, workloads)
    if not args.base or not args.change:
        ap.error("give --base and --change, or --repeatability")
    return compare(load_runs(args.base), load_runs(args.change), specs,
                   workloads)


if __name__ == "__main__":
    sys.exit(main())
