"""Command-line interface.

Commands: decide, sweep-eigs, capacity, screen, verify.  Exit codes: 0 = YES
(or success), 1 = NO (or failed verification), 2 = INCONCLUSIVE, 3 = input
error.  All seeded commands are deterministic: identical arguments (including
--seed) produce byte-identical output.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import capacity as cap
from . import zoo
from .channel import SCHEMA_VERSION, Channel, channel_from_dict, complement
from .degradability import (
    Mode,
    Query,
    SearchConfig,
    candidate_map,
    decide,
    ecd_screen,
    superop_from_pairs,
    verdict_to_dict,
    verify_certificate,
)
from .channel import superop_to_choi
from .linalg import DEFAULT_TOL, Tolerance, hermitian_eigs

EXIT_YES = 0
EXIT_NO = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3


class CliError(ValueError):
    pass


def _tolerance_from_env(args) -> Tolerance:
    """Each tolerance from its flag, else CHANDEG_<NAME>, else the default."""
    values = {}
    for name in ("rank_tol", "psd_tol", "residual_tol"):
        values[name] = getattr(args, name)
        if values[name] is None:
            raw = os.environ.get(f"CHANDEG_{name.upper()}")
            values[name] = float(raw) if raw else getattr(DEFAULT_TOL, name)
    return Tolerance(**values)


def _parse_kv(body, keys):
    out = {}
    for part in body.split(","):
        if "=" not in part:
            raise CliError(f"malformed parameter {part!r}")
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in keys:
            raise CliError(f"unknown parameter {key!r} (expected {sorted(keys)})")
        out[key] = val.strip()
    missing = set(keys) - set(out)
    if missing:
        raise CliError(f"missing parameters {sorted(missing)}")
    return out


def parse_channel(spec: str) -> Channel:
    """Build a channel from a spec string.

    Formats: td:d=2,t=0.2 | depol:d=3,s=-0.1 | td-comp:t=0.25 |
    cloner:p=0.5 | file:<path to channel JSON>.
    """
    kind, sep, body = spec.partition(":")
    if not sep:
        raise CliError(f"malformed channel spec {spec!r} (expected kind:params)")
    try:
        if kind == "td":
            kv = _parse_kv(body, {"d", "t"})
            return zoo.td_channel(zoo.TDParams(int(kv["d"]), float(kv["t"])))
        if kind == "depol":
            kv = _parse_kv(body, {"d", "s"})
            return zoo.depolarizing(zoo.DepolParams(int(kv["d"]), float(kv["s"])))
        if kind == "td-comp":
            kv = _parse_kv(body, {"t"})
            return zoo.td_complement_qubit(float(kv["t"]))
        if kind == "cloner":
            kv = _parse_kv(body, {"p"})
            params = zoo.cloner_params(float(kv["p"]))
            return zoo.td_complement_qubit(params.t)
        if kind == "file":
            with open(body) as fh:
                return channel_from_dict(json.load(fh))
    except CliError:
        raise
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(f"cannot build channel from {spec!r}: {exc}") from exc
    raise CliError(f"unknown channel kind {kind!r}")


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cmd_decide(args) -> int:
    tol = _tolerance_from_env(args)
    chan = parse_channel(args.channel)
    mode = Mode(args.mode)
    if args.search and args.seed is None:
        raise CliError("--search requires --seed for reproducibility")
    cfg = SearchConfig(
        seed=args.seed if args.seed is not None else 0,
        restarts=args.restarts,
        max_iters=args.max_iters,
        tol=tol,
    )
    verdict = decide(Query(chan, mode), cfg, search=args.search)
    doc = verdict_to_dict(verdict)
    doc["channel"] = args.channel
    if args.search:
        doc["seed"] = args.seed
    _emit(_json(doc), args.output)
    return {"YES": EXIT_YES, "NO": EXIT_NO, "INCONCLUSIVE": EXIT_INCONCLUSIVE}[verdict.status]


def _grid(args, default_start, default_stop, default_points):
    start = default_start if args.t_start is None else args.t_start
    stop = default_stop if args.t_stop is None else args.t_stop
    points = default_points if args.t_points is None else args.t_points
    if points < 2 or stop <= start:
        raise CliError("need t_stop > t_start and at least 2 grid points")
    return np.linspace(start, stop, points)


def cmd_sweep_eigs(args) -> int:
    tol = _tolerance_from_env(args)
    d = args.d
    lo, hi = -1.0 / (d - 1), 1.0 / (d + 1)
    grid = _grid(args, lo + 1e-3, hi, 100)
    if grid[0] < lo - 1e-12 or grid[-1] > hi + 1e-12:
        raise CliError(f"grid outside the CP range [{lo:.6g}, {hi:.6g}] for d={d}")
    rows = []
    header = None
    for t in grid:
        chan = zoo.td_channel(zoo.TDParams(d, float(t)))
        comp = complement(chan)
        cand, _, _ = candidate_map(comp.superop, chan.superop, tol)
        w, _ = hermitian_eigs(superop_to_choi(cand).matrix, tol)
        if header is None:
            header = "t," + ",".join(f"lambda_{i+1}" for i in range(len(w)))
        rows.append(",".join([_fmt(float(t))] + [_fmt(float(x)) for x in w]))
    _emit(header + "\n" + "\n".join(rows) + "\n", args.output)
    return EXIT_YES


def cmd_capacity(args) -> int:
    d = args.d
    lo, hi, _ = zoo.known_antidegradable_range(d)
    grid = _grid(args, lo, hi, 100)
    cloner_hi = 1.0 / 3.0 if d == 2 else 0.25
    rows = ["t,Q,base,method,status,cloner"]
    for t in grid:
        res = cap.td_complement_capacity(d, float(t))
        cloner = 1 if 0.0 <= t <= cloner_hi + 1e-12 else 0
        rows.append(
            ",".join(
                [
                    _fmt(float(t)),
                    _fmt(res.value),
                    _fmt(res.base),
                    res.method,
                    res.status,
                    str(cloner),
                ]
            )
        )
    _emit("\n".join(rows) + "\n", args.output)
    return EXIT_YES


def cmd_screen(args) -> int:
    tol = _tolerance_from_env(args)
    chan = parse_channel(args.channel)
    report = ecd_screen(chan, tol)
    report["schema_version"] = SCHEMA_VERSION
    report["channel"] = args.channel
    _emit(_json(report), args.output)
    return EXIT_YES


def cmd_verify(args) -> int:
    tol = _tolerance_from_env(args)
    try:
        with open(args.certificate) as fh:
            doc = json.load(fh)
        chan = parse_channel(doc["channel"])
        mode = Mode(doc["mode"])
        # A decide verdict nests its certificate; a stored certificate is flat.
        body = doc["certificate"] if "certificate" in doc else doc
        cert = superop_from_pairs(body["d_in"], body["d_out"], body["matrix"])
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"unreadable certificate: {exc}") from exc
    ok, report = verify_certificate(chan, mode, cert, tol)
    report["schema_version"] = SCHEMA_VERSION
    report["channel"] = doc["channel"]
    report["mode"] = doc["mode"]
    _emit(_json(report), args.output)
    return EXIT_YES if ok else EXIT_NO


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chandeg",
        description="Degradability decisions and capacity curves for quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        p.add_argument("--rank-tol", type=float, default=None)
        p.add_argument("--psd-tol", type=float, default=None)
        p.add_argument("--residual-tol", type=float, default=None)

    p = sub.add_parser("decide", help="decide one degradability mode")
    p.add_argument("--channel", required=True)
    p.add_argument("--mode", required=True, choices=[m.value for m in Mode])
    p.add_argument("--search", action="store_true", help="search the solution family")
    p.add_argument("--seed", type=int, default=None, help="required with --search; only echoed, the search is deterministic")
    p.add_argument("--restarts", type=int, default=32, help="ignored")
    p.add_argument("--max-iters", type=int, default=2000, help="search iteration bound")
    common(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("sweep-eigs", help="candidate Choi eigenvalues vs t (CSV)")
    p.add_argument("--d", type=int, required=True, choices=[2, 3])
    p.add_argument("--t-start", type=float, default=None)
    p.add_argument("--t-stop", type=float, default=None)
    p.add_argument("--t-points", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_sweep_eigs)

    p = sub.add_parser("capacity", help="capacity curve of the TD complement (CSV)")
    p.add_argument("--d", type=int, required=True, choices=[2, 3])
    p.add_argument("--t-start", type=float, default=None)
    p.add_argument("--t-stop", type=float, default=None)
    p.add_argument("--t-points", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("screen", help="exclusive-conjugate-degradability screen")
    p.add_argument("--channel", required=True)
    common(p)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("verify", help="re-verify a stored certificate")
    p.add_argument("--certificate", required=True, help="path to a certificate JSON")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
