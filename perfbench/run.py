#!/usr/bin/env python3
"""Benchmark of chandeg: one workload per run.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run builds the workload's inputs from the
seed, warms up, then repeats the workload's fixed query list in whole rounds
until ``--seconds`` have passed, checking every output with the independent
checker.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the time
untraced and half with per-layer counters installed, and prints the per-layer
metrics (see README.md).  A per-run record goes to perfbench/results/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import checker  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("grid", "search", "cli", "capacity")
SETUP_CHILDREN = 2  # set-up is measured in this process and in this many others


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("run", "setup"), default="run", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Rounds:
    """Timings and check outcomes of whole rounds of the query list."""

    def __init__(self):
        self.samples = []  # seconds per query
        self.by_class = {}  # class -> seconds per query
        self.walls = []  # seconds per round: sum of its query times
        self.decided = []  # checked YES/NO answers per round
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # rejections that are not a known fault
        self.faults = {}
        self.outputs = []  # (class, output), kept only when asked for

    def run(self, wl, seconds, keep_outputs=False):
        end = time.perf_counter() + seconds
        while True:
            wall, decided = 0.0, 0
            for q in wl.queries:
                t0 = time.perf_counter()
                out = q.run()
                dt = time.perf_counter() - t0
                self.samples.append(dt)
                self.by_class.setdefault(q.cls, []).append(dt)
                wall += dt
                outcome = q.check(out)
                self.attempted += 1
                decided += outcome.decided
                if not outcome.ok:
                    self.failed += 1
                    self.faults[outcome.fault] = self.faults.get(outcome.fault, 0) + 1
                    if outcome.fault == checker.UNEXPECTED:
                        self.unexpected.append(f"{q.cls}: {outcome.why}")
                if keep_outputs:
                    self.outputs.append((q.cls, out))
            self.walls.append(wall)
            self.decided.append(decided)
            if time.perf_counter() >= end:
                return self


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    With fewer than 40 samples (a cli run) that percentile would be no tail,
    and the median is reported instead.
    """
    s = sorted(samples)
    return s[-11] if len(s) >= 40 else statistics.median(s)


def child_run(args, role, workdir):
    from workloads import spawn

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--role", role]
    p = spawn(cmd, workdir, timeout=170)
    if p.code != 0:
        raise RuntimeError(f"{role} child failed ({p.code}): {p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1]), p


def end_to_end(args, wl, setup_s, workdir):
    r = Rounds().run(wl, args.seconds)
    cli_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    children = [child_run(args, "setup", workdir) for _ in range(SETUP_CHILDREN)]
    setups = [setup_s] + [doc["setup_s"] for doc, _ in children]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r.walls), "s"),
        "query_ms_p50": (1e3 * statistics.median(r.samples), "ms"),
        "query_ms_tail": (1e3 * tail(r.samples), "ms"),
        "peak_mem_mb": (wl.memory_pass(), "MB"),
        # cli: the largest chandeg child of the timed rounds; otherwise the
        # set-up children, which run one query of each class.
        "child_rss_mb": (max(p.rss_mb for _, p in children) if wl.in_process else cli_rss, "MB"),
        "decided": (float(statistics.median(r.decided)), "count"),
    }
    extra = {"setups_s": setups, "rounds": len(r.walls), "queries": len(r.samples),
             "class_ms": {c: [1e3 * x for x in v] for c, v in r.by_class.items()}}
    return r, metrics, extra


def per_layer(args, wl, workdir):
    import tracer
    import workloads

    half = args.seconds / 2.0
    r = Rounds().run(wl, half)
    plain_walls, plain_queries = list(r.walls), len(r.samples)
    tr = tracer.Tracer()
    tr.install()
    wl.traced = True
    try:
        r.run(wl, half, keep_outputs=not wl.in_process)
    finally:
        tr.uninstall()
        wl.traced = False
    traced_walls = r.walls[len(plain_walls):]
    n_traced = len(r.samples) - plain_queries
    metrics = {k: (v, layer_unit(k)) for k, v in tr.metrics(n_traced).items()}
    if wl.in_process:
        p = workloads.spawn([sys.executable, "-X", "importtime", "-c", "import chandeg.cli"],
                            workdir, workloads.child_env())
        import_s, scipy_s = workloads.import_times(p.stderr)
        cli = {"cli.import_s": import_s, "cli.scipy_optimize_import_s": scipy_s,
               "cli.output_bytes": 0.0}
        cli.update({f"cli.{c}.ms": 0.0 for c in workloads.CLI_COMMANDS})
    else:
        cli = workloads.cli_layer_metrics(r.outputs, len(traced_walls))
    metrics.update({k: (v, layer_unit(k)) for k, v in cli.items()})
    untraced_wall, traced_wall = statistics.median(plain_walls), statistics.median(traced_walls)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    extra = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
             "spans": tr.summary()}
    return r, metrics, extra


def layer_unit(name):
    if name.endswith(".calls") or name.endswith("_calls") or name.endswith(".nfev") \
            or name.endswith(".nit"):
        return "calls/query"
    if name == "search.stack_mb":
        return "MB_computed"
    if name == "search.ms_per_eval":
        return "ms/eval"
    if name.endswith("_s"):
        return "s"
    if name == "cli.output_bytes":
        return "bytes/round"
    if name.startswith("cli."):
        return "ms"
    return "ms/query"


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chandeg", "__init__.py")):
        print("error: chandeg sources not found under src/; run from the repository root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.BY_NAME[args.workload](args.seed, workdir)
        for warm in wl.warmups:
            warm()
        setup_s = time.perf_counter() - T_START
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            r, metrics, extra = per_layer(args, wl, workdir)
        else:
            r, metrics, extra = end_to_end(args, wl, setup_s, workdir)
        bad_inputs = [o.why for o in (c() for c in wl.input_checks) if not o.ok]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not r.unexpected and not bad_inputs
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": r.attempted,
        "failed": r.failed, "faults": r.faults, "unexpected": r.unexpected[:20],
        "bad_inputs": bad_inputs[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    for k, (v, u) in metrics.items():
        print(f"{args.workload:9s} {k:38s} {v:14.6g} {u}", file=sys.stderr)
    print(f"{args.workload:9s} attempted {r.attempted} failed {r.failed} {r.faults} "
          f"correct {correct}", file=sys.stderr)
    for why in (r.unexpected + bad_inputs)[:5]:
        print(f"  unexpected: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
