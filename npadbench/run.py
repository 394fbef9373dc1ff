#!/usr/bin/env python3
"""Build and run the npad benchmark (npadbench/bench_npad).

One workload, the form BENCHMARK.json's "command" uses:

    python3 npadbench/run.py --workload W --seed N --seconds T --trace 0|1 [--out DIR]

builds bench_npad on first use (CMake, into $CARGO_TARGET_DIR or
.bench_build), runs workload W, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer
metric (--trace 1; the Chrome trace lands in <build>/traces/). setup_s is the
median over SETUP_RUNS processes. --out DIR also saves the full result as
DIR/<workload>-s<seed>-t<trace>.json for compare.py.

All workloads:

    python3 npadbench/run.py all --seed N [--seconds T] [--trace 0|1] [--out DIR]

prints "workload metric value unit n=samples" per metric and exits non-zero
if any operation failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_RUNS = 7  # set-up is timed in this many processes; setup_s is the median
WARMUP_SECONDS = 3
BUILD_TIMEOUT_S = 840
SETUP_TIMEOUT_S = 60


def log(*args):
    print("npadbench:", *args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds bench_npad; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("the npad sources (CMakeLists.txt, src/) are not next to npadbench/")
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", bdir, "--target", "bench_npad", "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "bench_npad")


def run_binary(exe, workload, seed, seconds, trace=False, setup_only=False, tag=""):
    """Runs bench_npad once and returns its JSON result."""
    bdir = build_dir()
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    out = os.path.join(bdir, "results", f"{workload}-s{seed}-t{int(trace)}{tag}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--json", out]
    if trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        cmd += ["--trace", os.path.join(bdir, "traces", f"{workload}-s{seed}.json")]
    if setup_only:
        cmd.append("--setup-only")
    timeout = SETUP_TIMEOUT_S if setup_only else seconds * 2 + 60
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"bench_npad {workload} exited with {proc.returncode}")
    with open(out) as f:
        return json.load(f)


def run_workload(exe, spec, workload, seed, seconds, trace):
    """One workload: a warm-up process, then the measured run with set-up-only
    processes (untraced runs) on either side of it."""
    # On a virtual machine the first process after the machine sat idle can
    # run slow from its start to its end (serving p90 latency 2x in every
    # window of a 24 s phase), while a process started right after a few
    # seconds of load does not. A short throwaway run comes first.
    run_binary(exe, workload, seed, WARMUP_SECONDS, tag="-warmup")

    def setup_s():
        return run_binary(exe, workload, seed, seconds, setup_only=True, tag="-setup")["setup_s"]

    extra = 0 if trace else SETUP_RUNS - 1
    setups = [setup_s() for _ in range(extra // 2)]
    res = run_binary(exe, workload, seed, seconds, trace)
    setups += [res["setup_s"]] + [setup_s() for _ in range(extra - extra // 2)]
    res["setup_samples"] = setups
    res["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                                 "n": len(setups)}
    for err in res["errors"]:
        log(f"{workload}: failed: {err}")

    declared = spec["end_to_end"] if not trace else spec["per_layer"]
    measured = res["metrics"] if not trace else res["per_layer"]
    metrics = {}
    for m in declared:
        # Per-layer metrics of a layer the workload does not use (serving
        # counters on a compute workload, ...) read 0.
        v = measured.get(m["name"], {"value": 0, "n": 0})
        metrics[m["name"]] = {"value": v["value"], "unit": m["unit"], "n": v["n"]}
        if m["name"] not in measured and not trace:
            raise RuntimeError(f"{workload} did not measure {m['name']}")
    known = {m["name"] for m in declared}
    for name in measured:
        if name not in known:
            log(f"{workload}: {name} is not declared in BENCHMARK.json")
    res["reported"] = metrics
    return res


def result_line(res):
    return json.dumps({
        "correct": res["failed"] == 0 and res["attempted"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in res["reported"].items()},
    })


def save(res, out_dir, workload, seed, trace):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-s{seed}-t{int(trace)}.json"), "w") as f:
        json.dump(res, f, indent=1)


def main(argv):
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("all", nargs="?", choices=("all",), help="run every workload")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    if bool(args.all) == bool(args.workload):
        p.error("give either `all` or --workload")

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        workloads = names if args.all else [args.workload]
        for w in workloads:
            if w not in names:
                raise RuntimeError(f"unknown workload {w!r} (have {', '.join(names)})")
        seconds = args.seconds or spec["run_seconds"]
        exe = build()
        results = [run_workload(exe, spec, w, args.seed, seconds, bool(args.trace))
                   for w in workloads]
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(e)
        return 1

    for w, res in zip(workloads, results):
        if args.out:
            save(res, args.out, w, args.seed, args.trace)
    if args.all:
        for w, res in zip(workloads, results):
            for name, m in res["reported"].items():
                print(f"{w} {name} {m['value']:.6g} {m['unit']} n={m['n']}")
            print(f"{w} attempted {res['attempted']} failed {res['failed']}")
        return 0 if all(r["failed"] == 0 for r in results) else 1
    print(result_line(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
