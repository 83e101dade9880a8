#!/usr/bin/env python3
"""Alternating parent/change runs of two e2ebench binaries.

Usage:
    scripts/ab_pairs.py --parent PARENT_BIN --change CHANGE_BIN
        [--workloads paper-grid,crash-cuts,fault-rebuild] [--pairs 10]
        [--seconds 30] [--seed 1000] [--cwd DIR] [--json OUT]

Build each commit's e2ebench into its own target directory first, e.g.

    CARGO_TARGET_DIR=/tmp/parent cargo build --release --offline \\
        --manifest-path e2ebench/Cargo.toml

then pass the two `afraid-e2ebench` executables. Pair i runs both binaries
with seed `--seed + i`; the parent runs first in even pairs and the change
first in odd ones, so drift in the machine's load falls on both sides.

For every end-to-end metric the benchmark prints, the report gives each
side's median and quartiles, the change in the median, and how
many pairs the change won (ties count for neither side). A metric is
marked `gain` when the change wins at least nine tenths of the pairs and
the medians differ by more than the parent's interquartile range, and
`loss` under the same rule in the other direction; everything else is
`flat`. Which direction is better, and the bound by which a metric may
worsen, come from BENCHMARK.json; the `bound` column says whether the
change's median stays inside it. The report also checks that both sides printed the same output digest and the same
attempted/failed counts in every pair, and records the core count.

Standard library only.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

DIGEST = re.compile(r"output digest ([0-9a-f]+)")


def quartiles(xs):
    """(q1, median, q3) of a sample, by the inclusive method."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def run(binary, workload, seed, seconds, cwd):
    """One benchmark run: (metrics, units, digest, attempted, failed)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    match = DIGEST.search(out.stdout)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    return metrics, units, match.group(1) if match else None, \
        result["attempted"], result["failed"]


def directions(benchmark_json):
    """Metric name -> ('higher' or 'lower', bound or None), from
    BENCHMARK.json."""
    with open(benchmark_json) as f:
        spec = json.load(f)
    better = {}
    for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
        better[m["name"]] = (m["better"], m.get("bound"))
    return better


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workloads", default="paper-grid,crash-cuts,fault-rebuild")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument("--cwd", default=root,
                   help="directory the binaries run in (default: repo root)")
    p.add_argument("--benchmark", default=os.path.join(root, "BENCHMARK.json"))
    p.add_argument("--json", help="also write every run's numbers here")
    args = p.parse_args()
    if args.pairs < 1:
        sys.exit("--pairs must be at least 1")

    better = directions(args.benchmark)
    record = {"cores": os.cpu_count(), "pairs": args.pairs,
              "seconds": args.seconds, "workloads": {}}
    print(f"{os.cpu_count()} cores; {args.pairs} alternating pairs of "
          f"{args.seconds:g} s runs per workload, seeds {args.seed}.."
          f"{args.seed + args.pairs - 1}")
    for workload in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        same_digest = same_counts = True
        units = {}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            got = {}
            for side in order:
                binary = args.parent if side == "parent" else args.change
                got[side] = run(binary, workload, seed, args.seconds, args.cwd)
                units.update(got[side][1])
                runs[side].append(got[side][0])
            _, _, pd, pa, pf = got["parent"]
            _, _, cd, ca, cf = got["change"]
            same_digest &= pd == cd
            same_counts &= (pa, pf) == (ca, cf)
            print(f"  {workload} pair {i + 1}/{args.pairs} seed {seed}: "
                  f"digest {pd} / {cd}, attempted {pa}/{ca}, failed {pf}/{cf}",
                  flush=True)

        print(f"\n{workload}: digests equal in every pair: {same_digest}; "
              f"attempted/failed equal: {same_counts}")
        print(f"{'metric':<24}{'parent median [q1, q3]':>34}"
              f"{'change median [q1, q3]':>34}{'delta':>9}{'wins':>8}  verdict  bound")
        rows = {}
        for name in runs["parent"][0]:
            ps = [r[name] for r in runs["parent"]]
            cs = [r[name] for r in runs["change"]]
            pq = quartiles(ps)
            cq = quartiles(cs)
            direction, bound = better.get(name, ("lower", None))
            sign = 1 if direction == "higher" else -1
            wins = sum(1 for a, b in zip(ps, cs) if sign * (b - a) > 0)
            losses = sum(1 for a, b in zip(ps, cs) if sign * (b - a) < 0)
            delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0.0
            iqr = pq[2] - pq[0]
            apart = abs(cq[1] - pq[1]) > iqr
            if wins >= 0.9 * args.pairs and apart:
                verdict = "gain"
            elif losses >= 0.9 * args.pairs and apart:
                verdict = "loss"
            else:
                verdict = "flat"
            worse = -sign * delta / 100
            inside = "-" if bound is None else ("ok" if worse <= bound else "EXCEEDED")
            unit = units.get(name, "")
            print(f"{name + ' (' + unit + ')':<24}"
                  f"{pq[1]:>14.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                  f"{cq[1]:>14.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
                  f"{delta:>+8.1f}%{wins:>5}/{args.pairs}  {verdict:<7}  {inside}")
            rows[name] = {"unit": unit, "better": direction,
                          "parent": ps, "change": cs, "wins": wins,
                          "losses": losses, "delta_pct": delta,
                          "verdict": verdict, "bound": bound,
                          "within_bound": inside != "EXCEEDED"}
        print()
        record["workloads"][workload] = {
            "digests_equal": same_digest, "counts_equal": same_counts,
            "metrics": rows}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
