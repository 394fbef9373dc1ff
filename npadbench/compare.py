#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 npadbench/compare.py A/ B/           # A: parent commit, B: change
    python3 npadbench/compare.py A/ B/ --same    # two sets of one commit

A and B hold the files `run.py --out DIR` writes, <workload>-s<seed>-t<trace>.json.
Run both sides with the same seeds and the same --seconds, alternating which
side runs first.

For every (workload, end-to-end metric) pair it prints each side's median and
quartiles, the share of same-seed pairs B wins (ties count for neither), and
a verdict:
  improved    B wins >= 90% of the pairs and the medians differ by more
              than A's own quartile distance;
  worse       B's median is worse than A's by more than the metric's bound
              in BENCHMARK.json;
  unresolved  either side's quartile distance, as a share of its median,
              exceeds the bound (unless every B run beats every A run);
  no worse    otherwise.

With --same, setup_s is judged on its medians only, and the per-layer counts
of traced runs (t1 files) that share a workload and seed are compared: every
count that differs is listed, since only a count that repeats exactly can
support a count-based claim.

Exits 1 if any pair is worse or unresolved.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(d, trace):
    runs = {}
    for f in glob.glob(os.path.join(d, f"*-t{trace}.json")):
        with open(f) as fh:
            r = json.load(fh)
        runs.setdefault(r["workload"], {})[r["seed"]] = r
    return runs


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], statistics.median(vals), q[2]


def verdict(a, b, pairs, bound, higher, gate_spread=True):
    better = (lambda x, y: x > y) if higher else (lambda x, y: x < y)
    q1a, ma, q3a = quartiles(a)
    q1b, mb, q3b = quartiles(b)
    won = sum(1 for x, y in pairs if better(y, x))
    frac = won / len(pairs) if pairs else 0.0
    worse_by = (ma - mb) / ma if higher else (mb - ma) / ma
    spread = max((q3a - q1a) / ma, (q3b - q1b) / mb)
    b_beats_all = all(better(y, x) for y in b for x in a)
    if gate_spread and spread > bound and not b_beats_all:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    elif frac >= 0.9 and abs(mb - ma) > q3a - q1a and better(mb, ma):
        v = "improved"
    else:
        v = "no worse"
    return v, (q1a, ma, q3a), (q1b, mb, q3b), frac, worse_by


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--same", action="store_true",
                   help="both sets come from one commit; also audit per-layer counts")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    A, B = load_runs(args.a, 0), load_runs(args.b, 0)
    bad = 0
    print(f"{'workload':12} {'metric':15} {'A q1/med/q3':>28} {'B q1/med/q3':>28} "
          f"{'won':>5} {'worse':>7}  verdict")
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in A or w not in B:
            print(f"{w:12} (no runs on one side)")
            continue
        seeds = sorted(set(A[w]) & set(B[w]))
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["reported"][name]["value"] for r in A[w].values()]
            b = [r["reported"][name]["value"] for r in B[w].values()]
            pairs = [(A[w][s]["reported"][name]["value"], B[w][s]["reported"][name]["value"])
                     for s in seeds]
            # Two sets of one commit: set-up time is judged on its medians only,
            # as the benchmark's acceptance does; its run-to-run spread is wide.
            gate = not (args.same and name == "setup_s")
            v, qa, qb, frac, worse_by = verdict(a, b, pairs, m["bound"], m["better"] == "higher",
                                                gate)
            bad += v in ("worse", "unresolved")
            fa = "/".join(f"{x:.4g}" for x in qa)
            fb = "/".join(f"{x:.4g}" for x in qb)
            print(f"{w:12} {name:15} {fa:>28} {fb:>28} {frac:5.0%} {worse_by:+7.1%}  {v}")

    if args.same:
        counts = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")}
        TA, TB = load_runs(args.a, 1), load_runs(args.b, 1)
        differs = {}
        compared = 0
        for w in TA:
            for s in set(TA[w]) & set(TB.get(w, {})):
                ra, rb = TA[w][s]["reported"], TB[w][s]["reported"]
                compared += 1
                for name in counts:
                    if ra[name]["value"] != rb[name]["value"]:
                        differs.setdefault(name, set()).add(w)
        print(f"\nper-layer count audit over {compared} same-seed traced pairs:")
        if compared == 0:
            print("  (no traced runs on both sides: run.py --trace 1 --out DIR)")
            counts = set()
        for name in sorted(counts):
            where = differs.get(name)
            print(f"  {name:34} {'differs on ' + ', '.join(sorted(where)) if where else 'exact'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
