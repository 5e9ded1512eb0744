#!/usr/bin/env python3
"""Builds and runs the bench_e2e end-to-end benchmark.

One workload (prints one JSON line with the metrics BENCHMARK.json names;
--trace 1 gives the per-layer metrics instead of the end-to-end ones):

    python3 bench_e2e/run.py --workload adhoc --seed 1 --seconds 25 --trace 0

Every workload, --reps times each with the order rotated between
repetitions, then one traced run per workload; prints
`workload metric median q1 q3 n unit` per result and writes
bench-artifacts/BENCH_e2e.json:

    python3 bench_e2e/run.py [--reps 3] [--seed 1] [--seconds 25]

Compare two such files against the bounds in BENCHMARK.json:

    python3 bench_e2e/run.py --compare A.json B.json

The benchmark is built from the enclosing source tree into
.bench_build/e2e (a Release build). Exit status is non-zero when the build
fails, a run fails, or any result is wrong.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "bench_e2e"
ARTIFACTS = ROOT / "bench-artifacts"
WORKLOADS = ["adhoc", "host_loop", "report", "mixed_rw"]
RUN_TIMEOUT_S = 175
# --compare counts a change smaller than this absolute amount as within
# the bound. BENCHMARK.json holds relative bounds only; set-up takes well
# under a millisecond on adhoc, and on a shared machine it swings by up to
# 1.9x with the load other tenants put on it.
ABS_FLOOR = {"setup_s": 0.02}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bench_e2e; output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                    "-j4"], check=True, stdout=sys.stderr)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    """Runs one workload in its own process; returns the parsed result."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        ARTIFACTS.mkdir(exist_ok=True)
        cmd += ["--trace", str(ARTIFACTS / f"trace_{workload}_seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 and result.get("correct", False):
        raise RuntimeError(f"{workload}: exit {proc.returncode}")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def single_mode(args):
    spec = load_spec()
    build()
    result = run_once(args.workload, args.seed, args.seconds, args.trace)
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None:
            log(f"missing metric {m['name']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def runner_mode(args):
    build()
    runs = {w: [] for w in WORKLOADS}
    traced = {}
    ok = True
    for rep in range(args.reps):
        k = rep % len(WORKLOADS)
        for w in WORKLOADS[k:] + WORKLOADS[:k]:
            log(f"rep {rep + 1}/{args.reps}: {w}")
            r = run_once(w, args.seed, args.seconds, False)
            ok = ok and r["correct"]
            runs[w].append(r)
    for w in WORKLOADS:
        log(f"traced: {w}")
        traced[w] = run_once(w, args.seed, args.seconds, True)
        ok = ok and traced[w]["correct"]

    out = {"nproc": os.cpu_count(), "seed": args.seed, "git_sha": git_sha(),
           "reps": args.reps, "seconds": args.seconds, "correct": ok,
           "end_to_end": {}, "error_rate": {}, "per_layer": {}}
    print("workload metric median q1 q3 n unit")
    for w in WORKLOADS:
        # Every metric bench_e2e reported: the spec's end-to-end metrics
        # plus the mixed_rw writer's.
        out["end_to_end"][w] = {}
        for name, first in runs[w][0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs[w]]
            samples = min(r["metrics"][name]["n"] for r in runs[w])
            med, q1, q3 = quartiles(values)
            out["end_to_end"][w][name] = {"values": values, "median": med,
                                          "q1": q1, "q3": q3, "n": samples,
                                          "unit": first["unit"]}
            print(f"{w} {name} {med:.6g} {q1:.6g} {q3:.6g} {samples} "
                  f"{first['unit']}")
        errors = sum(r["failed"] for r in runs[w])
        attempted = sum(r["attempted"] for r in runs[w])
        out["error_rate"][w] = {"value": errors / attempted, "failed": errors,
                                "attempted": attempted}
        print(f"{w} error_rate {errors / attempted:.6g} - - {attempted} ratio")
        out["per_layer"][w] = traced[w]["metrics"]
        for name, m in traced[w]["metrics"].items():
            print(f"{w} {name} {m['value']:.6g} - - {m['n']} {m['unit']}")
    ARTIFACTS.mkdir(exist_ok=True)
    with open(ARTIFACTS / "BENCH_e2e.json", "w") as f:
        json.dump(out, f, indent=1)
    log(f"wrote {ARTIFACTS / 'BENCH_e2e.json'}")
    return 0 if ok else 1


def compare_mode(path_a, path_b):
    """Reports each metric x workload of B against A and the spec's bound.

    A result is unresolved when either side's quartile spread, as a share
    of its median, is wider than the bound, unless every run of B is
    better than every run of A. A change below the metric's ABS_FLOOR is
    within. error_rate has an absolute bound of 0: any rise is a
    regression.
    """
    spec = load_spec()
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    regressions = 0
    print("workload metric median_a median_b change bound verdict")
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        for w in WORKLOADS:
            ra = a["end_to_end"].get(w, {}).get(name)
            rb = b["end_to_end"].get(w, {}).get(name)
            if ra is None or rb is None or ra["median"] == 0:
                continue
            change = (rb["median"] - ra["median"]) / ra["median"]
            worse = change if lower else -change
            spread = max((r["q3"] - r["q1"]) / r["median"]
                         for r in (ra, rb) if r["median"])
            better_all = (max(rb["values"]) < min(ra["values"]) if lower
                          else min(rb["values"]) > max(ra["values"]))
            if abs(rb["median"] - ra["median"]) < ABS_FLOOR.get(name, 0):
                verdict = "within"
            elif spread > bound and not better_all:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "within"
            print(f"{w} {name} {ra['median']:.6g} {rb['median']:.6g} "
                  f"{100 * change:+.1f}% {100 * bound:.0f}% {verdict}")
    for w in WORKLOADS:
        ea = a.get("error_rate", {}).get(w)
        eb = b.get("error_rate", {}).get(w)
        if ea is None or eb is None:
            continue
        verdict = "within"
        if eb["value"] > ea["value"]:
            verdict = "REGRESSION"
            regressions += 1
        print(f"{w} error_rate {ea['value']:.6g} {eb['value']:.6g} "
              f"{eb['value'] - ea['value']:+.6g} 0 {verdict}")
    return 1 if regressions else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    try:
        if args.compare:
            return compare_mode(*args.compare)
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        if args.workload:
            return single_mode(args)
        return runner_mode(args)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"bench_e2e: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
