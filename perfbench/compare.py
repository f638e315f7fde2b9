#!/usr/bin/env python3
"""Compare two sets of perfbench result files (parent vs change).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the `<workload>-seed<n>-trace0.json` files that
`perfbench` writes (its `--out` directory). Runs are paired by workload
and seed. For every (workload, end-to-end metric) the tool prints both
sides' median and quartiles and one verdict:

* sim-clock metrics are deterministic per seed and compare exactly:
  `identical` when every pair is bit-equal, otherwise `better` or
  `worse` by the direction of the median change;
* wall-clock metrics:
  - `better`: the change wins at least 9 of every 10 pairs (ties count
    for neither side) and the gap between the medians is larger than
    the parent's interquartile range;
  - `unresolved`: the parent's own spread (IQR / median) is wider than
    the metric's bound, unless every change run beats every parent run;
  - `worse`: the change's median is worse than the parent's by more
    than the bound;
  - `within bound`: otherwise.

Exit status: 0 when no metric is `worse` or `unresolved`, 1 otherwise,
2 when the inputs cannot be compared (metadata or seeds differ).
"""

import argparse
import glob
import json
import os
import statistics
import sys

# End-to-end metrics measured on the simulated clock.
SIM_METRICS = {
    "sim_p50_latency_s",
    "sim_p99_latency_s",
    "slo_attainment",
    "sim_goodput_rps",
    "potrf_sim_gflops",
    "getrf_sim_gflops",
    "sim_energy_j",
}


# A run whose machine lost more than this share of its CPU time to other
# guests is flagged: its wall-clock figures reflect the neighbours.
STEAL_WARN = 0.05


def load(directory):
    """{(workload, seed): record} for the untraced result files."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            rec = json.load(f)
        run = rec["meta"]["run"]
        runs[(run["workload"], int(run["seed"]))] = rec
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(name, better, bound, parent, change):
    """Verdict for one metric; `parent` and `change` are seed-paired."""
    sign = 1.0 if better == "higher" else -1.0
    if name in SIM_METRICS:
        if all(p == c for p, c in zip(parent, change)):
            return "identical"
        gap = statistics.median(change) - statistics.median(parent)
        return "better" if sign * gap > 0 else "worse"
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    iqr = q3 - q1
    if wins >= 0.9 * len(parent) and sign * (med_c - med_p) > iqr:
        return "better"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if iqr / abs(med_p) > bound and not all_better:
        return "unresolved"
    if sign * (med_c - med_p) < -bound * abs(med_p):
        return "worse"
    return "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        sys.exit("compare: no *-trace0.json result files in one of the directories")
    if sorted(parent) != sorted(change):
        print("compare: the two sets do not cover the same (workload, seed) pairs", file=sys.stderr)
        print(f"  only in parent: {sorted(set(parent) - set(change))}", file=sys.stderr)
        print(f"  only in change: {sorted(set(change) - set(parent))}", file=sys.stderr)
        sys.exit(2)
    hosts = {json.dumps(r["meta"]["host"], sort_keys=True) for r in [*parent.values(), *change.values()]}
    if len(hosts) != 1:
        print("compare: refusing to compare runs whose metadata differ:", file=sys.stderr)
        for h in sorted(hosts):
            print(f"  {h}", file=sys.stderr)
        sys.exit(2)
    bad = [k for k, r in [*parent.items(), *change.items()] if not r["result"]["correct"]]
    if bad:
        print(f"compare: runs failed their correctness check: {sorted(bad)}", file=sys.stderr)
        sys.exit(2)

    stolen = sorted(
        (side, k, r["extra"]["cpu_steal_share"]["value"])
        for side, runs in (("parent", parent), ("change", change))
        for k, r in runs.items()
        if r["extra"]["cpu_steal_share"]["value"] > STEAL_WARN
    )
    for side, (workload, seed), share in stolen:
        print(f"warning: {side} {workload} seed {seed}: hypervisor stole {share:.0%} of the CPU; "
              "its wall figures are suspect", file=sys.stderr)
    commits = lambda runs: sorted({r["meta"]["run"]["commit"] for r in runs.values()})
    print(f"parent {', '.join(commits(parent))}  vs  change {', '.join(commits(change))}")
    print(f"host   {next(iter(hosts))}")
    failing = 0
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload)
        print(f"\n{workload} ({len(seeds)} seed pairs)")
        print(f"  {'metric':22} {'unit':8} {'parent q1 / median / q3':>38}   {'change q1 / median / q3':>38}  verdict")
        for name, m in spec.items():
            p = [parent[(workload, s)]["result"]["metrics"][name]["value"] for s in seeds]
            c = [change[(workload, s)]["result"]["metrics"][name]["value"] for s in seeds]
            v = verdict(name, m["better"], m["bound"], p, c)
            failing += v in ("worse", "unresolved")
            fmt = lambda q: " / ".join(f"{x:.5g}" for x in q)
            print(f"  {name:22} {m['unit']:8} {fmt(quartiles(p)):>38}   {fmt(quartiles(c)):>38}  {v}")
    sys.exit(1 if failing else 0)


if __name__ == "__main__":
    main()
