#!/usr/bin/env python3
"""Perf-ledger runner: builds intooa-bench and runs the ledger's workloads.

One run (the benchmark interface; the last stdout line is the result):

    python3 bench/ledger/run.py --workload campaign_cold --seed 2025 \\
        --seconds 15 --trace 0

The ledger (every workload, a summary table, one results JSON):

    python3 bench/ledger/run.py [--workloads a,b] [--seed S] [--runs N]
        [--sets N] [--seconds T] [--out FILE]
    python3 bench/ledger/run.py --smoke

Builds go to .bench_build/ledger at the repository root and each
workload runs in .bench_build/ledger/work/<workload>. With --bench-bin
(an intooa-bench built elsewhere, as the bench_ledger_smoke test passes
it) nothing is built and the work directories sit beside that binary.
bench/ledger/README.md documents the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD_DIR = ROOT / ".bench_build" / "ledger"
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 1.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the ledger; returns intooa-bench's path
    (the daemons it runs are built with it)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"run.py: no intooa source tree at {ROOT} "
                         "(src/CMakeLists.txt is missing)")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    # Few compile jobs: the build shares its machine.
    jobs = str(min(2, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD_DIR / "intooa-bench"


def stop_group(pgid):
    """Kills an intooa-bench process group and waits until it is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_bench(bench_bin, workload, seed, seconds, trace, smoke):
    """One intooa-bench invocation; returns (result, digest and info
    lines)."""
    work = bench_bin.parent / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    argv = [str(bench_bin), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    # A new process group, so the daemons it forks can be stopped together
    # if it fails to stop them itself.
    proc = subprocess.Popen(argv, cwd=work, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        raise RuntimeError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    stop_group(proc.pid)
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: intooa-bench exited "
                           f"{proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def select_metrics(result, specs, positive):
    """Keeps the metrics BENCHMARK.json names; a missing, non-finite,
    mislabelled (or, for end-to-end metrics, non-positive) value makes the
    result incorrect."""
    chosen = {}
    for spec in specs:
        name = spec["name"]
        got = result["metrics"].get(name)
        value = got.get("value") if got else None
        ok = (isinstance(value, (int, float)) and math.isfinite(value)
              and got.get("unit") == spec["unit"]
              and (value > 0 or not positive))
        if not ok:
            log(f"run.py: metric {name} missing or invalid: {got}")
            result["correct"] = False
            continue
        chosen[name] = {"value": value, "unit": spec["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": chosen}


def run_one(bench_bin, bench, workload, seed, seconds, trace, smoke):
    raw, lines = run_bench(bench_bin, workload, seed, seconds, trace, smoke)
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    return select_metrics(raw, specs, positive=not trace), lines


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def host_info(bench_bin):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    try:
        with open(bench_bin.parent / "CMakeCache.txt") as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    compiler = subprocess.run(
                        [path, "--version"], capture_output=True,
                        text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    describe = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
        capture_output=True, text=True).stdout.strip() or "unknown"
    return describe, {"nproc": os.cpu_count(), "cpu": cpu,
                      "compiler": compiler}


def summarize(results, bench):
    """Prints every metric by name and unit: quartiles of the end-to-end
    runs, then the traced run's per-layer numbers, then the digest and info
    lines."""
    for index, one_set in enumerate(results["sets"]):
        print(f"\n== set {index + 1}")
        for workload, runs in one_set.items():
            good = sum(r["correct"] and r["failed"] == 0 for r in runs["runs"])
            print(f"\n{workload}: {good}/{len(runs['runs'])} end-to-end runs "
                  f"correct")
            for spec in bench["end_to_end"]:
                name = spec["name"]
                values = [r["metrics"][name]["value"] for r in runs["runs"]
                          if name in r["metrics"]]
                if not values:
                    continue
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else float("nan")
                print(f"  {name:<32} {q2:>14.6g} {spec['unit']:<6} "
                      f"[{q1:.6g}, {q3:.6g}] spread {spread:.1%} "
                      f"(bound {spec['bound']:.0%}, n={len(values)})")
            traced = runs.get("traced")
            if traced:
                print(f"  per layer (traced, seed {traced['seed']}):")
                for spec in bench["per_layer"]:
                    metric = traced["metrics"].get(spec["name"])
                    if metric:
                        print(f"    {spec['name']:<30} "
                              f"{metric['value']:>14.6g} {spec['unit']}")
            every_run = runs["runs"] + ([traced] if traced else [])
            for line in sorted({d for r in every_run for d in r["digests"]}):
                print(f"  {line}")
            for r in runs["runs"]:
                for line in r["info"]:
                    print(f"  seed {r['seed']}: {line}")


def ledger(args, bench_bin):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        raise SystemExit(f"run.py: unknown workloads {unknown}")
    describe, host = host_info(bench_bin)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    runs = 1 if args.smoke else args.runs
    seeds = [args.seed + i for i in range(runs)]
    results = {"describe": describe, "host": host, "seconds": seconds,
               "smoke": args.smoke, "seeds": seeds}
    failures = 0
    started = time.monotonic()
    sets = 1 if args.smoke else args.sets
    results["sets"] = [{w: {"runs": []} for w in workloads}
                       for _ in range(sets)]

    def record(index, workload, seed, trace):
        result, lines = run_one(bench_bin, bench, workload, seed, seconds,
                                trace, args.smoke)
        entry = results["sets"][index][workload]
        run = {"seed": seed, **result,
               "digests": [x for x in lines if x.startswith("digest ")],
               "info": [x for x in lines if x.startswith("info ")]}
        if trace:
            entry["traced"] = run
        else:
            entry["runs"].append(run)
        log(f"run.py: {workload} seed {seed} trace {trace} set {index + 1}: "
            f"correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']}")
        return not result["correct"] or result["failed"] > 0

    # The workloads run one after another, never at the same time. The sets
    # take turns run by run, so a drift in the machine's speed lands on
    # every set alike instead of showing up as a difference between them.
    for workload in workloads:
        for seed in seeds:
            for index in range(sets):
                failures += record(index, workload, seed, 0)
        for index in range(sets):
            failures += record(index, workload, seeds[0], 1)
    elapsed = time.monotonic() - started

    out = (Path(args.out) if args.out
           else bench_bin.parent / "ledger-results.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    summarize(results, bench)
    print(f"\nresults: {out} ({elapsed:.1f} s, {failures} failed runs)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds per workload per set (seed, seed+1, ...)")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes; checks every metric is reported")
    parser.add_argument("--out", help="results JSON (ledger mode)")
    parser.add_argument("--bench-bin",
                        help="a built intooa-bench; skips the build")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    bench_bin = Path(args.bench_bin).resolve() if args.bench_bin else None

    if args.workload is None:
        return ledger(args, bench_bin or build())

    bench = load_benchmark()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        raise SystemExit(f"run.py: unknown workload {args.workload}")
    result, lines = run_one(bench_bin or build(), bench, args.workload,
                            args.seed, args.seconds, args.trace, args.smoke)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError) as error:
        log(f"run.py: {error}")
        sys.exit(1)
