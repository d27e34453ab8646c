#!/usr/bin/env python3
"""Compares two perf-ledger results files (bench/ledger/run.py --out).

    python3 bench/ledger/compare.py BEFORE.json AFTER.json
    python3 bench/ledger/compare.py RESULTS.json:0 RESULTS.json:1
    python3 bench/ledger/compare.py b1.json,b2.json a1.json,a2.json

FILE:N picks set N of a file written with --sets (default 0); files joined
by commas pool their runs into one side. For every workload and
end-to-end metric it prints each side's median and quartiles,
the change of the median, the pairs (runs with the same seed) the second
side won, and a verdict against the bound in BENCHMARK.json:

  improved    the second side wins at least nine tenths of at least ten
              pairs, and its median differs by more than the first side's
              quartile spread
  unresolved  the quartile spread of either side is wider than the bound
              (unless every run of the second side reads better than every
              run of the first)
  regressed   the median is worse by more than the bound
  unchanged   otherwise

It also checks that the digests and the traced runs' exact counts agree
for every seed both sides ran. Exits 1 on any regressed or unresolved
metric or any mismatch.
"""

import json
import sys

from run import load_benchmark, quartiles

MIN_PAIRS = 10  # fewer pairs never establish a gain


def load(arg):
    """FILE[:N][,FILE[:N]...] -> (label, set); the runs of several files
    (say, one per seed when the two sides were run alternately) merge."""
    merged = {}
    for part in arg.split(","):
        path, _, index = part.rpartition(":")
        if not path or not index.isdigit():
            path, index = part, "0"
        with open(path) as f:
            one_set = json.load(f)["sets"][int(index)]
        for workload, entry in one_set.items():
            into = merged.setdefault(workload, {"runs": []})
            into["runs"] += entry["runs"]
            if "traced" in entry and "traced" not in into:
                into["traced"] = entry["traced"]
    return arg, merged


def verdict(a, b, pairs, lower_is_better, bound):
    """a, b: values of each side; pairs: (a, b) values with the same seed."""
    qa, qb = quartiles(a), quartiles(b)
    ma, mb = qa[1], qb[1]
    better = (lambda x, y: y < x) if lower_is_better else (lambda x, y: y > x)
    wins = sum(better(x, y) for x, y in pairs)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and \
            better(ma, mb) and abs(mb - ma) > qa[2] - qa[0]:
        return "improved", wins
    spread = max((qa[2] - qa[0]) / ma, (qb[2] - qb[0]) / mb)
    if spread > bound:
        every = all(better(x, y) for x in a for y in b)
        return ("unchanged" if every else "unresolved"), wins
    worse_by = (mb - ma) / ma if lower_is_better else (ma - mb) / ma
    return ("regressed" if worse_by > bound else "unchanged"), wins


def digest_map(run):
    """'digest <label> <hex>' lines -> {label: hex}."""
    return dict(line.split()[1:3] for line in run["digests"])


def by_seed(runs, name):
    return {r["seed"]: r["metrics"][name]["value"] for r in runs
            if name in r["metrics"]}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_benchmark()
    name_a, set_a = load(argv[1])
    name_b, set_b = load(argv[2])
    print(f"A = {name_a}, B = {name_b}")
    print(f"{'workload':<14} {'metric':<18} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8} {'wins':>6}  verdict")
    bad = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in set_a or workload not in set_b:
            continue
        runs_a, runs_b = set_a[workload]["runs"], set_b[workload]["runs"]
        for spec in bench["end_to_end"]:
            name = spec["name"]
            sa, sb = by_seed(runs_a, name), by_seed(runs_b, name)
            if not sa or not sb:
                continue
            a, b = list(sa.values()), list(sb.values())
            pairs = [(sa[s], sb[s]) for s in sa if s in sb]
            result, wins = verdict(a, b, pairs, spec["better"] == "lower",
                                   spec["bound"])
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1]
            print(f"{workload:<14} {name:<18} "
                  f"{qa[1]:>11.5g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                  f"{qb[1]:>11.5g} [{qb[0]:.4g}, {qb[2]:.4g}]"
                  f"{change:>+8.1%} {wins:>3}/{len(pairs):<2}  {result}")
            bad += result in ("regressed", "unresolved")

        # Exact agreement for the seeds both sides ran: every digest both
        # printed (a window's length decides how many runs it holds), and
        # the count metrics of the traced run.
        digests_a = {r["seed"]: digest_map(r) for r in runs_a}
        for r in runs_b:
            theirs = digests_a.get(r["seed"], {})
            for label, value in digest_map(r).items():
                if label in theirs and theirs[label] != value:
                    print(f"{workload}: digest {label} differs for seed "
                          f"{r['seed']}: {theirs[label]} vs {value}")
                    bad += 1
        ta, tb = set_a[workload].get("traced"), set_b[workload].get("traced")
        if ta and tb and ta["seed"] == tb["seed"]:
            for spec in bench["per_layer"]:
                if spec["unit"] != "count":
                    continue
                va = ta["metrics"].get(spec["name"], {}).get("value")
                vb = tb["metrics"].get(spec["name"], {}).get("value")
                if va != vb:
                    print(f"{workload}: {spec['name']} differs: {va} vs {vb}")
                    bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
