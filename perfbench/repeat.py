#!/usr/bin/env python3
"""Run workloads repeatedly and print each metric's median and quartiles.

    python3 perfbench/repeat.py --workloads grid,search --seeds 10
    python3 perfbench/repeat.py --workloads capacity --seeds 5 --first-seed 101

Each run is ``run.py`` in its own process with its own seed.  For every
metric the table gives the median, the quartiles (statistics.quantiles,
n=4), the spread (Q3 - Q1) / median, and the bound from BENCHMARK.json;
``!`` marks a spread above a third of its bound.  It also prints the share
of failed operations, which must be the same in every run.  The bounds in
BENCHMARK.json were set from this output.  Raw results go to
perfbench/results/repeat-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        with open(os.path.join(HERE, "results", f"repeat-{workload}.json"), "w") as fh:
            json.dump(runs, fh, indent=1)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed share {shares}")
        print(f"  {'metric':38s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} "
              f"{'bound':>6s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "!" if bound is not None and spread > bound / 3 else " "
            bound_text = f"{bound:6.3f}" if bound is not None else "     -"
            print(f"  {name:38s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{bound_text}{flag}")


if __name__ == "__main__":
    sys.exit(main())
