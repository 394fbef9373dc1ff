#!/usr/bin/env python3
"""Launch-count regression guard over BENCH_*.json counter snapshots.

Every bench binary writes BENCH_<name>.json (bench/common.hpp) with the
interpreter's cumulative stats counters. This script enforces checked-in
ceilings on the launch and general-path counters that whole-lambda kernels
(inlined inner SOACs, sequential loops, row results) drove down, so a
regression that quietly reintroduces per-row or per-gate kernel launches, or
sends a nest back to one general apply() per element, fails CI instead of
only showing up in the perf trajectory.

Counters are cumulative over the whole binary run and google-benchmark picks
iteration counts from wall-clock (--benchmark_min_time), so absolute counter
values scale with machine speed. The ceilings are therefore *per measured
benchmark iteration*: total counter value divided by the summed iteration
count of the interpreter-driven benchmarks (matched by name substring).
Setup work (program optimization, warm-up runs) folds into the numerator, so
ceilings carry generous headroom over the measured steady-state rate — they
are meant to catch order-of-magnitude regressions, not noise.

A few counters instead carry a floor (FLOORS): a tier that only one bench
row exercises must keep being exercised, or a change that reroutes that row
to another tier would go unnoticed.

Usage: check_bench_counters.py [dir-with-BENCH-json-files]   (default: .)
"""

import json
import os
import sys

# (json file, counter, name substrings of interpreter-driven benchmarks,
#  per-iteration ceiling, measured per-iteration rate when the ceiling was
#  checked in).
#
# table6_lstm: before inlined inner SOACs, one objective+gradient
# evaluation issued ~60k batched spans per iteration pair (535k per smoke
# run); measured now ~680/iter. Ceiling 2000 keeps >10x of
# the win locked in.
#
# table3_kmeans: the AD grad/hvp programs used to issue ~120k spans per
# iteration at smoke scale — one launch per (point, centroid) pair inside
# the general per-point gradient lambdas. Row-stream kernel params plus
# virtual value-maps and multi-accumulator inline folds now compile those
# lambdas whole (the hvp's (primal, tangent) reduce pairs included), so the
# per-point SOAC nests run as single kernel launches: measured ~770/iter.
# Ceiling 10000 locks in >12x of the win while leaving headroom for
# slow-machine iteration-count effects. general_maps tracked the per-point
# reverse body the kernel tier used to leave general (the argmin-driven
# scatter body, ~1/iter, ceiling 50). One-hot virtual arrays, accumulator-
# threading inline maps and row-bound accumulators now compile it into the
# reverse map's kernel: measured 0/iter. Ceiling 0.5 fails CI as soon as
# that body falls back to one general map per gradient evaluation.
#
# table5_gmm: the GMM objective+gradient pair used to issue ~14.1k batched
# spans per measured iteration (per-(shape, K) launches of the log-sum-exp
# rows); inline SOAC kernelization brings it to ~430/iter. Ceiling 5000
# keeps >3x of the win locked in. The per-point reverse body (the argmax
# one-hot over a value map, the adjoint row) used to run on the general
# path, one lambda application per point (~213 per iteration), inside
# ~0.77 general_maps per iteration. As one kernel, with row results for
# the maps returning per-row value maps: measured 0 general_maps/iter.
# Ceiling 0.5 fails CI as soon as one general map per evaluation returns.
#
# table4_kmeans_sparse: the optimized sparse k-means gradient ran its
# adjoint "psum" redomap — a CSR segment loop updating accumulators — on the
# general reduce path, once per point: ~2,700 general_reduces per iteration.
# Sequential loops and accumulator-updating pre-lambdas now compile into
# kernels: measured 0/iter. Ceiling 100 fails CI long before a regression
# back to one general reduce per point.
#
# table6_lstm general_maps: the LSTM objective+gradient pair used to run
# ~20.8 general maps per measured iteration — per-row maps returning rank-1
# rows (zeros_bh, adds_376) and the per-step reverse map, whose inner maps
# zip a row with a differently-sourced extent, each one apply() per row. Row
# results and bind-time extent guards compile them all into kernels:
# measured 0/iter. Ceiling 0.5 (as for table3 kmeans) fails CI as soon as
# one of them falls back to a general map per evaluation.
#
# table5_gmm / table3_kmeans vexec_body_dispatches: the vexec tier runs an
# innermost inline loop's body once per tile of trips (runtime/vexec.hpp,
# trip tiles) instead of once per trip. Measured at --benchmark_min_time=0.01
# (three runs): 11.8k-13.1k/iter on table5 (npad rows) and 32.6k-40.5k/iter
# on table3 (ad rows); the same binaries with every body on the per-trip
# path read 64k and 204k/iter. Ceilings 30000 and 100000 sit between, so a
# body that silently falls back to per-trip dispatch fails CI.
#
# table6_lstm vexec_body_dispatches: LSTM's inner loops are short (16 to 24
# trips). Its dot products run as one fold pass and its dual scatter as two
# passes, each over the whole trip, because the tile code reads the loop's
# streams in place (runtime/vexec.hpp, trip tiles). Measured at
# --benchmark_min_time=0.01 (three runs): 12.4k-17.6k/iter on the npad rows;
# the same bodies on multi-pass tiles (a Gather pass per stream, a [T][W]
# block per value) read 40.0k/iter. Ceiling 28000 sits between, so a fall
# back to multi-pass tiles fails CI.
#
# mc_transport: XSBench's binary-search loop kept the optimized gradient's
# per-lookup lambda off the kernel tier, so a general map applied its body
# lookup by lookup: ~1,500 applications per iteration. With the loop inside
# the kernel: measured 0 general_maps/iter. Ceiling 0.5 fails CI as soon as
# the lookup map falls back to the general path once per evaluation.
CEILINGS = [
    ("BENCH_table6_lstm.json", "batched_launches", ["npad_"], 2000, 680),
    ("BENCH_table6_lstm.json", "general_maps", ["npad_"], 0.5, 0),
    ("BENCH_table3_kmeans.json", "batched_launches", ["ad_"], 10000, 770),
    ("BENCH_table3_kmeans.json", "general_maps", ["ad_"], 0.5, 0),
    ("BENCH_table5_gmm.json", "batched_launches", ["npad_"], 5000, 430),
    ("BENCH_table5_gmm.json", "general_maps", ["npad_"], 0.5, 0),
    ("BENCH_table5_gmm.json", "vexec_body_dispatches", ["npad_"], 30000, 12500),
    ("BENCH_table3_kmeans.json", "vexec_body_dispatches", ["ad_"], 100000, 36000),
    ("BENCH_table6_lstm.json", "vexec_body_dispatches", ["npad_"], 28000, 17600),
    ("BENCH_table4_kmeans_sparse.json", "general_reduces", ["/ad"], 100, 0),
    ("BENCH_mc_transport.json", "general_maps", ["npad_"], 0.5, 0),
]

# Counter-over-counter ceilings: (json file, numerator counters (summed),
# denominator counter, ceiling, measured ratio when checked in). Used where
# the natural per-unit denominator is itself a counter rather than benchmark
# iterations — for the serving snapshot, "per served request".
#
# serving/serve_batches: executed groups per request. Cross-request batching
# is the whole point of the serving tier — a lone closed-loop client runs at
# 1.0 (every request its own group), the 8- and 64-client levels fill
# max_batch-sized groups, and the measured blend sits near 0.28 (dispatch
# is work-conserving, so c1's many fast requests weigh more). A ratio
# drifting toward 1.0 means stacking silently stopped grouping (key
# mismatch, window regression), so 0.7 fails CI well before that.
#
# serving/launches: execution-tier span launches per request (vexec when the
# SIMD tier is on, the scalar batched kernel machine when it is off — one of
# the two is always zero). Measured ~28/request on the 3:1 objective:
# jacobian gmm mix; 500 guards against per-row launches sneaking into the
# stacked lowering while staying insensitive to the client-mix blend.
RATIO_CEILINGS = [
    (
        "BENCH_serving.json",
        ["serve_batches"],
        "serve_requests",
        0.7,
        0.28,
    ),
    (
        "BENCH_serving.json",
        ["vexec_launches", "batched_launches"],
        "serve_requests",
        500,
        28,
    ),
]

# Floors on raw counter totals: (json file, counter, floor, measured value
# when the floor was checked in).
#
# ablation_hist/lse8_kernel_hists: the log-sum-exp histogram row is the only
# bench that runs reduce_by_index on the compiled-kernel hist tier (its
# combine is not one of the four recognized binops). Measured 31 and 56 in two
# runs at --benchmark_min_time=0.01 (the total scales with iteration counts);
# 0 means LSE hists fell back to the general path.
FLOORS = [
    ("BENCH_ablation_hist.json", "lse8_kernel_hists", 1, 31),
]


def main() -> int:
    bench_dir = sys.argv[1] if len(sys.argv) > 1 else "."
    failures = []
    for fname, counter, name_subs, ceiling, measured in CEILINGS:
        path = os.path.join(bench_dir, fname)
        if not os.path.exists(path):
            failures.append(f"{fname}: missing (bench smoke did not produce it)")
            continue
        with open(path) as f:
            data = json.load(f)
        value = data.get("counters", {}).get(counter)
        if value is None:
            failures.append(f"{fname}: counter {counter!r} absent from JSON")
            continue
        iters = sum(
            r["n"]
            for r in data.get("results", [])
            if any(sub in r["name"] for sub in name_subs)
        )
        if iters <= 0:
            failures.append(
                f"{fname}: no benchmark matching {name_subs} reported iterations"
            )
            continue
        per_iter = value / iters
        status = "OK" if per_iter <= ceiling else "FAIL"
        print(
            f"{status:4} {fname}: {counter}={value} over {iters} iter(s) -> "
            f"{per_iter:.0f}/iter (ceiling {ceiling}, was {measured} when checked in)"
        )
        if per_iter > ceiling:
            failures.append(
                f"{fname}: {counter} at {per_iter:.0f}/iter exceeds ceiling {ceiling} "
                f"— a launch-count regression (per-row/per-gate launches reintroduced?)"
            )
    for fname, num_counters, den_counter, ceiling, measured in RATIO_CEILINGS:
        path = os.path.join(bench_dir, fname)
        if not os.path.exists(path):
            failures.append(f"{fname}: missing (bench smoke did not produce it)")
            continue
        with open(path) as f:
            counters = json.load(f).get("counters", {})
        missing = [c for c in num_counters + [den_counter] if c not in counters]
        if missing:
            failures.append(f"{fname}: counter(s) {missing} absent from JSON")
            continue
        den = counters[den_counter]
        if den <= 0:
            failures.append(f"{fname}: denominator {den_counter!r} is zero")
            continue
        num = sum(counters[c] for c in num_counters)
        rate = num / den
        status = "OK" if rate <= ceiling else "FAIL"
        print(
            f"{status:4} {fname}: {'+'.join(num_counters)}={num} / {den_counter}={den} "
            f"-> {rate:.2f}/request (ceiling {ceiling}, was {measured} when checked in)"
        )
        if rate > ceiling:
            failures.append(
                f"{fname}: {'+'.join(num_counters)} at {rate:.2f} per {den_counter} "
                f"exceeds ceiling {ceiling} — the serving batcher stopped amortizing"
            )
    for fname, counter, floor, measured in FLOORS:
        path = os.path.join(bench_dir, fname)
        if not os.path.exists(path):
            failures.append(f"{fname}: missing (bench smoke did not produce it)")
            continue
        with open(path) as f:
            value = json.load(f).get("counters", {}).get(counter)
        if value is None:
            failures.append(f"{fname}: counter {counter!r} absent from JSON")
            continue
        status = "OK" if value >= floor else "FAIL"
        print(
            f"{status:4} {fname}: {counter}={value} "
            f"(floor {floor}, was {measured} when checked in)"
        )
        if value < floor:
            failures.append(
                f"{fname}: {counter}={value} is below floor {floor} "
                f"— the only bench row of that tier no longer reaches it"
            )
    if failures:
        print("\nlaunch-count regression guard failed:", file=sys.stderr)
        for msg in failures:
            print(f"  - {msg}", file=sys.stderr)
        return 1
    print("launch-count regression guard passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
