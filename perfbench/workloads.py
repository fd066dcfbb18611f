"""The benchmark's workloads: seeded inputs, the queries, and their checks.

Every workload is a fixed list of queries built from the seed.  A query has a
class (queries of one class have the same shapes; one of each is the
warm-up and the memory probe), a ``run`` callable that is timed, and a ``check``
that judges the output with :mod:`checker`, never with chandeg itself.
Inputs that the two known faults hit are fixed, so the number of failed
operations per round does not depend on the seed.

chandeg is imported inside the build_* functions, so that its import time falls in
the measured set-up of each run.
"""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import checker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURE = os.path.join("fixtures", "antidegrading_certificate_qubit_td.json")

# grid: (d, TD parameters, depolarizing parameters, random channels) per round.
# d <= 3 is the cheap majority (the median falls inside the d = 3 class).  The
# slowest queries, the d = 5 TD/depolarizing (anti)degradable-type modes, are
# few enough that the tail percentile lands well inside their class.
GRID_SIZES = [(2, 12, 12, 38), (3, 24, 24, 77), (4, 10, 10, 22), (5, 2, 2, 10)]

# search: restarts of the penalty search; only the two past-the-edge queries,
# whose true answer is NO, use more than the first one.
SEARCH_RESTARTS = 2
JITTER = 0.005  # seeded offset of the search and capacity parameters

# capacity: Nelder-Mead restarts per one-shot optimization.  The first
# starts at the maximally mixed state; further ones start at seeded random
# points, which would make the cost of a round depend on the seed.
ONE_SHOT_RESTARTS = 1


@dataclass
class Query:
    cls: str
    run: Callable[[], Any]
    check: Callable[[Any], checker.Outcome]
    argv: list | None = None  # cli only: the command line after "chandeg"


@dataclass
class Workload:
    queries: list
    warmups: list  # one untimed call per query class
    input_checks: list = field(default_factory=list)  # callables -> Outcome
    in_process: bool = True
    traced: bool = False  # cli: run children under -X importtime

    def memory_pass(self):
        """Largest tracemalloc peak (MB) of one query, above the memory in use
        before it, over the warm-up queries (one per class; cli: every
        command, in-process).  A collection before each query keeps the
        cyclic collector from moving the peak between runs; freezing what
        exists beforehand keeps those collections cheap."""
        if self.in_process:
            calls = self.warmups
        else:
            from chandeg import cli

            calls = [lambda q=q: _cli_in_process(cli, q.argv) for q in self.queries]
        gc.collect()
        gc.freeze()
        tracemalloc.start()
        peak = 0
        for call in calls:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
        tracemalloc.stop()
        gc.unfreeze()
        return peak / 2**20


def _cli_in_process(cli, argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cli.main(argv)


# --------------------------------------------------------------------------
# Child processes


@dataclass
class Proc:
    code: int
    stdout: str
    stderr: str
    rss_mb: float
    wall_s: float
    out_bytes: int  # stdout plus any --output file


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def spawn(cmd, workdir, env=None, timeout=150):
    """Run ``cmd`` from the repository root to completion.

    Output goes to files (a pipe could fill and block the child); the child's
    own peak RSS comes from wait4.
    """
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    out_bytes = os.path.getsize(out_path)
    return Proc(proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0, wall, out_bytes)


def import_times(stderr):
    """(total import s, scipy.optimize cumulative s) from -X importtime output.

    The total is the sum of the cumulative times of top-level imports.
    """
    total_us, scipy_us = 0, 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not name[1:].startswith(" "):
            total_us += int(cumulative)
        if name.strip() == "scipy.optimize" and not scipy_us:
            scipy_us = int(cumulative)
    return total_us / 1e6, scipy_us / 1e6


# --------------------------------------------------------------------------
# Inputs


def random_stinespring(rng, d, r):
    """Kraus operators of a random channel C^d -> C^d with r of them: the
    blocks of a Haar-like isometry C^d -> C^r (x) C^d."""
    g = rng.standard_normal((d * r, d)) + 1j * rng.standard_normal((d * r, d))
    V, _ = np.linalg.qr(g)
    return [V[e * d:(e + 1) * d, :] for e in range(r)]


def _kraus(channel):
    return [np.asarray(K) for K in channel.kraus.operators]


def _verdict_dict(v):
    return {
        "status": v.status,
        "certificate": None if v.certificate is None else v.certificate.matrix,
        "candidate_eigs": v.candidate_choi_eigs,
        "unique": v.unique,
        "consistent": v.consistent,
        "kernel_dim": v.kernel_dim,
    }


def _doc_verdict(doc):
    cert = doc.get("certificate")
    matrix = None
    if cert is not None:
        matrix = np.array([[complex(re, im) for re, im in row] for row in cert["matrix"]])
    return {
        "status": doc["status"],
        "certificate": matrix,
        "candidate_eigs": doc["candidate_choi_eigenvalues"],
        "unique": doc["unique"],
        "consistent": doc["consistent"],
        "kernel_dim": doc["kernel_dim"],
    }


def _judge_decide(kraus, mode, family, d, param):
    systems = []  # the inputs never change: re-derive the system once

    def check(verdict):
        if not systems:
            systems.append(checker.build_system(kraus, mode))
        return checker.judge_verdict(systems[0], _verdict_dict(verdict), mode, family, d, param)

    return check


def _input_check(kraus, family=None, d=None, param=None):
    return lambda: checker.check_kraus(kraus, family, d, param)


# --------------------------------------------------------------------------
# grid: decide() without search, all four modes


def build_grid(seed, workdir):
    from chandeg import degradability, zoo
    from chandeg.channel import Channel, KrausSet

    rng = np.random.default_rng(seed)
    channels = []  # (class, channel, family, d, param)
    for d, n_td, n_depol, n_random in GRID_SIZES:
        for t in np.linspace(-1.0 / (d - 1), 1.0 / (d + 1), n_td + 2)[1:-1]:
            channels.append((f"td-d{d}", zoo.td_channel(zoo.TDParams(d, float(t))), "td", d, float(t)))
        for s in np.linspace(-1.0 / (d * d - 1), 1.0, n_depol + 2)[1:-1]:
            channels.append(
                (f"depol-d{d}", zoo.depolarizing(zoo.DepolParams(d, float(s))), "depol", d, float(s))
            )
        for i in range(n_random):
            # r <= d keeps every mode's solution unique, so these queries
            # always get a checkable YES or NO whatever the seed.  r cycles
            # so that the cost of a round does not depend on the seed.
            r = 1 + i % d
            ops = random_stinespring(rng, d, r)
            channels.append((f"random-d{d}-r{r}", Channel(KrausSet(d, d, tuple(ops))), None, d, None))
    queries, input_checks, warm = [], [], {}
    for cls, chan, family, d, param in channels:
        kraus = _kraus(chan)
        input_checks.append(_input_check(kraus, family, d, param))
        for mode in checker.MODES:
            q = degradability.Query(chan, degradability.Mode(mode))
            query = Query(
                f"{cls}-{mode}",
                lambda q=q: degradability.decide(q),
                _judge_decide(kraus, mode, family, d, param),
            )
            queries.append(query)
            warm.setdefault(query.cls, query.run)
    order = rng.permutation(len(queries))
    return Workload([queries[i] for i in order], list(warm.values()), input_checks)


# --------------------------------------------------------------------------
# search: decide(search=True) where the pseudoinverse candidate fails CP


def build_search(seed, workdir):
    from chandeg import capacity, degradability, zoo

    rng = np.random.default_rng(seed)

    def near(x):
        # Small enough that the iteration counts, and so the cost of a
        # round, hardly depend on the seed.
        return float(x + JITTER * rng.uniform(-1.0, 1.0))

    specs = [
        # (class, family, d, parameter); the edges -2/3 and 2/3 and the two
        # queries past them stay fixed.  With the capacity pair below, a round
        # has 1 cheap, 3 fast, 9 middle (8 "qubit" and the optimization), 3
        # slow and 2 slowest queries: in a run the median falls in the middle
        # group and the tail inside "past-edge".
        ("qubit-fast", "td", 2, near(-0.51)),
        ("qubit-fast", "td", 2, near(-0.53)),
        ("qubit-fast", "depol", 2, near(0.51)),
        ("qubit", "td", 2, -2.0 / 3.0),
        ("qubit", "td", 2, near(-0.65)),
        ("qubit", "td", 2, near(-0.6)),
        ("qubit", "td", 2, near(-0.55)),
        ("qubit", "depol", 2, 2.0 / 3.0),
        ("qubit", "depol", 2, near(0.65)),
        ("qubit", "depol", 2, near(0.6)),
        ("qubit", "depol", 2, near(0.55)),
        ("qutrit", "td", 3, near(-0.45)),
        ("qutrit", "td", 3, near(-0.4)),
        ("qutrit", "td", 3, near(-0.35)),
        ("past-edge", "td", 2, -0.7),
        ("past-edge", "depol", 2, 0.7),
    ]
    cfg = degradability.SearchConfig(seed=seed, restarts=SEARCH_RESTARTS)
    warm_cfg = degradability.SearchConfig(seed=seed, restarts=1)
    queries, input_checks, warm = [], [], {}
    for cls, family, d, p in specs:
        chan = (
            zoo.td_channel(zoo.TDParams(d, p))
            if family == "td"
            else zoo.depolarizing(zoo.DepolParams(d, p))
        )
        kraus = _kraus(chan)
        input_checks.append(_input_check(kraus, family, d, p))
        q = degradability.Query(chan, degradability.Mode.ANTIDEGRADABLE)
        queries.append(
            Query(
                cls,
                lambda q=q: degradability.decide(q, cfg, search=True),
                _judge_decide(kraus, "antidegradable", family, d, p),
            )
        )
        # Warm-ups run one restart: the others succeed there, and one warms
        # L-BFGS for the past-edge queries.
        warm.setdefault(cls, lambda q=q: degradability.decide(q, warm_cfg, search=True))
    # One covariant value and one one-shot optimization of the qubit TD
    # complement inside its degradable region, so that the capacity layer
    # is measured too; the optimization costs about as much as a "qubit"
    # search query.
    t = near(-0.55)
    chan = zoo.td_complement_qubit(t)
    kraus = _kraus(chan)
    input_checks.append(_input_check(kraus))
    cfg_opt = capacity.OptimizerConfig(seed=seed, restarts=ONE_SHOT_RESTARTS)
    for cls, run, check in [
        ("covariant-qubit", lambda: capacity.covariant_capacity(chan, base=2),
         lambda r: checker.judge_covariant(kraus, 2, t, r.value)),
        ("one-shot-qubit", lambda: capacity.one_shot_optimize(chan, cfg_opt, base=2),
         lambda r: checker.judge_one_shot(kraus, 2, t, r.value, r.input_state)),
    ]:
        queries.append(Query(cls, run, check))
        warm.setdefault(cls, run)
    return Workload(queries, list(warm.values()), input_checks)


# --------------------------------------------------------------------------
# capacity: covariant values and one-shot optimization on TD complements


def build_capacity(seed, workdir):
    from chandeg import capacity, zoo
    from chandeg.channel import complement

    rng = np.random.default_rng(seed)

    def channel(d, t):
        if d == 2:
            return zoo.td_complement_qubit(t)
        return complement(zoo.td_channel(zoo.TDParams(3, t)))

    # (class, d, t).  The qubit complement is degradable for t in [-2/3, 1/3]
    # and not below it; the qutrit one on its whole CP range [-1/2, 1/4].
    # Per round 4 cheap, 4 middle and 4 slow queries: the median falls in
    # "one-shot-qubit", the tail inside "one-shot-qutrit".
    specs = [("covariant-qubit", 2, -0.5), ("covariant-qubit", 2, 0.2),
             ("covariant-qubit", 2, -0.85), ("covariant-qutrit", 3, -0.3)]
    specs += [("one-shot-qubit", 2, t) for t in (-0.55, 0.15, -0.8, -0.9)]
    specs += [("one-shot-qutrit", 3, t) for t in (-0.4, -0.2, 0.0, 0.15)]
    queries, input_checks, warm = [], [], {}
    for i, (cls, d, t0) in enumerate(specs):
        t = float(t0 + JITTER * rng.uniform(-1.0, 1.0))
        chan = channel(d, t)
        kraus = _kraus(chan)
        input_checks.append(_input_check(kraus))
        if cls.startswith("covariant"):
            run = lambda c=chan, d=d: capacity.covariant_capacity(c, base=d)
            check = lambda r, k=kraus, d=d, t=t: checker.judge_covariant(k, d, t, r.value)
        else:
            cfg = capacity.OptimizerConfig(seed=seed + i, restarts=ONE_SHOT_RESTARTS)
            run = lambda c=chan, cfg=cfg, d=d: capacity.one_shot_optimize(c, cfg, base=d)
            check = lambda r, k=kraus, d=d, t=t: checker.judge_one_shot(
                k, d, t, r.value, r.input_state
            )
        queries.append(Query(cls, run, check))
        warm.setdefault(cls, run)
    return Workload(queries, list(warm.values()), input_checks)


# --------------------------------------------------------------------------
# cli: fresh `python -m chandeg.cli` processes


def build_cli(seed, workdir):
    from chandeg import zoo

    rng = np.random.default_rng(seed)
    env = child_env()
    wl = Workload([], [], in_process=False)

    def td_kraus(d, t):
        return _kraus(zoo.td_channel(zoo.TDParams(d, t)))

    def command(cls, argv, check):
        def run():
            prefix = ["-X", "importtime"] if wl.traced else []
            p = spawn([sys.executable, *prefix, "-m", "chandeg.cli", *argv], workdir, env)
            if "--output" in argv:
                path = os.path.join(ROOT, argv[argv.index("--output") + 1])
                if os.path.exists(path):
                    p.out_bytes += os.path.getsize(path)
            return p

        wl.queries.append(Query(cls, run, check, argv))

    def decide_check(d, t, mode, output=None):
        kraus = td_kraus(d, t)
        wl.input_checks.append(_input_check(kraus, "td", d, t))

        def check(p):
            try:
                if output is None:
                    doc = json.loads(p.stdout)
                else:
                    with open(output) as fh:
                        doc = json.load(fh)
                verdict = _doc_verdict(doc)
            except (OSError, ValueError, KeyError) as exc:
                return checker.reject(checker.UNEXPECTED, f"decide output unreadable: {exc}")
            if p.code != {"YES": 0, "NO": 1, "INCONCLUSIVE": 2}.get(verdict["status"]):
                return checker.reject(checker.UNEXPECTED, f"exit {p.code} for {verdict['status']}")
            system = checker.build_system(kraus, mode)
            return checker.judge_verdict(system, verdict, mode, "td", d, t)

        return check

    def verify_check(path, d, t, mode):
        kraus = td_kraus(d, t)

        def check(p):
            if p.code == 3 and "unreadable certificate" in p.stderr:
                return checker.reject(checker.ROUND_TRIP, p.stderr.strip())
            try:
                with open(os.path.join(ROOT, path)) as fh:
                    doc = json.load(fh)
                cert = doc["certificate"]["matrix"] if "certificate" in doc else doc["matrix"]
                D = np.array([[complex(re, im) for re, im in row] for row in cert])
                report = json.loads(p.stdout)
            except (OSError, ValueError, KeyError) as exc:
                return checker.reject(checker.UNEXPECTED, f"verify output unreadable: {exc}")
            own = checker.judge_certificate(checker.build_system(kraus, mode), D)
            if p.code != 0 or not report.get("ok") or not own.ok:
                return checker.reject(
                    checker.UNEXPECTED, f"verify exit {p.code}, report {report}, own {own}"
                )
            return checker.accept()

        return check

    def spec(d, t):
        return f"td:d={d},t={t!r}"

    # decide: YES, NO and INCONCLUSIVE at d = 2, 3, 4, each parameter drawn
    # from an interval where the answer (and its fault) does not change.
    intervals = {
        2: {"YES": (-0.4, -0.1), "NO": (-0.9, -0.1), "INCONCLUSIVE": (-0.95, -0.55)},
        3: {"YES": (-0.2, -0.05), "NO": (-0.45, -0.05), "INCONCLUSIVE": (-0.48, -0.3)},
        4: {"YES": (-0.15, -0.05), "NO": (-0.3, -0.05), "INCONCLUSIVE": (-0.32, -0.22)},
    }
    for d, answers in intervals.items():
        for answer, (lo, hi) in answers.items():
            t = float(rng.uniform(lo, hi))
            mode = "degradable" if answer == "NO" else "antidegradable"
            command("decide", ["decide", "--channel", spec(d, t), "--mode", mode],
                    decide_check(d, t, mode))

    d_sweep = 3
    start = float(rng.uniform(-0.49, -0.4))
    stop = float(rng.uniform(0.1, 0.24))
    points = 30

    def sweep_check(p):
        rows = p.stdout.strip().splitlines()[1:]
        if p.code != 0 or len(rows) != points:
            return checker.reject(checker.UNEXPECTED, f"sweep-eigs exit {p.code}, {len(rows)} rows")
        for row in rows:
            values = [float(x) for x in row.split(",")]
            outcome = checker.judge_candidate_spectrum(td_kraus(d_sweep, values[0]), values[1:])
            if not outcome.ok:
                return outcome
        return checker.accept()

    command("sweep-eigs", ["sweep-eigs", "--d", str(d_sweep), "--t-start", repr(start),
                           "--t-stop", repr(stop), "--t-points", str(points)], sweep_check)

    d_cap = 2
    cap_points = int(rng.integers(150, 250))

    def capacity_check(p):
        rows = p.stdout.strip().splitlines()[1:]
        if p.code != 0 or len(rows) != cap_points:
            return checker.reject(checker.UNEXPECTED, f"capacity exit {p.code}, {len(rows)} rows")
        for row in rows:
            t, q, base, _, status, _ = row.split(",")
            outcome = checker.judge_capacity_row(d_cap, float(t), float(q), float(base), status)
            if not outcome.ok:
                return outcome
        return checker.accept()

    command("capacity", ["capacity", "--d", str(d_cap), "--t-points", str(cap_points)],
            capacity_check)

    t_screen = float(rng.uniform(-0.6, 0.3))
    screen_kraus = _kraus(zoo.td_complement_qubit(t_screen))
    wl.input_checks.append(_input_check(screen_kraus))

    def screen_check(p):
        try:
            report = json.loads(p.stdout)
        except ValueError as exc:
            return checker.reject(checker.UNEXPECTED, f"screen output unreadable: {exc}")
        if p.code != 0:
            return checker.reject(checker.UNEXPECTED, f"screen exit {p.code}")
        return checker.judge_screen(screen_kraus, report)

    command("screen", ["screen", "--channel", f"td-comp:t={t_screen!r}"], screen_check)

    command("verify", ["verify", "--certificate", FIXTURE],
            verify_check(FIXTURE, 2, -2.0 / 3.0, "antidegradable"))

    # decide --output then verify: the round trip a user makes.  Fixed input:
    # the qutrit TD channel at t = -1/2 is degradable with a CPTP candidate.
    trip = os.path.relpath(os.path.join(workdir, "verdict.json"), ROOT)
    command("decide", ["decide", "--channel", spec(3, -0.5), "--mode", "degradable",
                       "--output", trip],
            decide_check(3, -0.5, "degradable", output=os.path.join(ROOT, trip)))
    command("verify", ["verify", "--certificate", trip],
            verify_check(trip, 3, -0.5, "degradable"))

    # Every command pays the same interpreter start and imports; one child
    # warms the file cache and the bytecode cache for all of them.
    wl.warmups.append(lambda: spawn([sys.executable, "-m", "chandeg.cli", "screen", "--channel",
                                     "td:d=2,t=0.1"], workdir, env))
    return wl


def cli_layer_metrics(outputs, n_rounds):
    """cli.* metrics from (class, Proc) pairs of children run under -X importtime:
    medians over children, output bytes per round."""
    imports = [import_times(p.stderr) for _, p in outputs]
    metrics = {
        "cli.import_s": float(np.median([i[0] for i in imports])),
        "cli.scipy_optimize_import_s": float(np.median([i[1] for i in imports])),
        "cli.output_bytes": sum(p.out_bytes for _, p in outputs) / n_rounds,
    }
    for cls in CLI_COMMANDS:
        walls = [p.wall_s for c, p in outputs if c == cls]
        metrics[f"cli.{cls}.ms"] = 1e3 * float(np.median(walls)) if walls else 0.0
    return metrics


CLI_COMMANDS = ("decide", "sweep-eigs", "capacity", "screen", "verify")

BY_NAME = {
    "grid": build_grid,
    "search": build_search,
    "cli": build_cli,
    "capacity": build_capacity,
}
