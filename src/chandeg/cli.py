"""Command-line interface.

Commands: decide, sweep-eigs, capacity, screen, verify.  Exit codes: 0 = YES
(or success), 1 = NO (or failed verification), 2 = INCONCLUSIVE, 3 = input
error, a malformed command line or input too large to build included.  Every
command is deterministic: identical arguments produce byte-identical output.
Each command takes only the tolerance flags its code reads.
"""

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import capacity as cap
from . import zoo
from .channel import (
    SCHEMA_VERSION,
    Channel,
    SuperOp,
    channel_from_dict,
    check_schema_version,
    from_pairs,
    json_pieces,
)
from .degradability import (
    Mode,
    Query,
    SearchConfig,
    candidate_spectrum,
    decide,
    ecd_screen,
    verdict_to_dict,
    verify_certificate,
)
from .linalg import Tolerance

EXIT_YES = 0
EXIT_NO = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3


class CliError(Exception):
    pass


def _tolerance(args) -> Tolerance:
    """The tolerance flags given; Tolerance's own defaults for the rest."""
    given = {f.name: getattr(args, f.name) for f in fields(Tolerance) if f.name in args}
    return Tolerance(**given)


def _parse_kv(body, keys):
    out = {}
    for part in body.split(","):
        if "=" not in part:
            raise CliError(f"malformed parameter {part!r}")
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in keys:
            raise CliError(f"unknown parameter {key!r} (expected {sorted(keys)})")
        if key in out:
            raise CliError(f"repeated parameter {key!r}")
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
            params = zoo.ClonerParams(float(kv["p"]))
            return zoo.td_complement_qubit(params.t)
        if kind == "file":
            with open(body) as fh:
                return channel_from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, RecursionError) as exc:  # deeply nested JSON recurses
        raise CliError(f"cannot build channel from {spec!r}: {exc}") from exc
    raise CliError(f"unknown channel kind {kind!r}")


def _emit(pieces, path):
    """Write the text pieces to sys.stdout, or to the file at path.  A regular
    file is written to a ".part" file beside it and renamed over it once
    complete, so a run that fails part way leaves any earlier file intact."""
    if not path:
        sys.stdout.writelines(pieces)
        return
    if os.path.exists(path) and not os.path.isfile(path):  # a pipe or device
        with open(path, "w") as fh:
            fh.writelines(pieces)
        return
    target = os.path.realpath(path)
    part = target + ".part"
    try:
        with open(part, "w") as fh:
            fh.writelines(pieces)
        os.replace(part, target)
    finally:
        if os.path.exists(part):
            os.remove(part)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_decide(args) -> int:
    tol = _tolerance(args)
    chan = parse_channel(args.channel)
    mode = Mode(args.mode)
    verdict = decide(Query(chan, mode), SearchConfig(max_iters=args.max_iters, tol=tol))
    doc = verdict_to_dict(verdict)
    doc["channel"] = args.channel
    _emit(json_pieces(doc), args.output)
    return {"YES": EXIT_YES, "NO": EXIT_NO, "INCONCLUSIVE": EXIT_INCONCLUSIVE}[verdict.status]


def _grid(args, default_start, default_stop):
    start = default_start if args.t_start is None else args.t_start
    stop = default_stop if args.t_stop is None else args.t_stop
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise CliError("t_start and t_stop must be finite")
    if args.t_points < 2 or stop <= start:
        raise CliError("need t_stop > t_start and at least 2 grid points")
    return np.linspace(start, stop, args.t_points)


def cmd_sweep_eigs(args) -> int:
    tol = _tolerance(args)
    d = args.d
    lo, hi = zoo.td_cp_range(d)
    grid = _grid(args, lo + 1e-3, hi)
    rows = []
    header = None
    # TDParams checks every grid point against the CP range before any work.
    for params in [zoo.TDParams(d, float(t)) for t in grid]:
        _, w, _ = candidate_spectrum(Query(zoo.td_channel(params), Mode.ANTIDEGRADABLE), tol)
        if header is None:
            header = "t," + ",".join(f"lambda_{i+1}" for i in range(len(w)))
        rows.append(",".join([_fmt(params.t)] + [_fmt(float(x)) for x in w]))
    _emit([header + "\n" + "\n".join(rows) + "\n"], args.output)
    return EXIT_YES


def cmd_capacity(args) -> int:
    d = args.d
    lo, hi, _ = zoo.known_antidegradable_range(d)
    grid = _grid(args, lo, hi)
    rows = ["t,Q,base,method,status,cloner"]
    for t in grid:
        res = cap.td_complement_capacity(d, float(t))
        # The cloners cover t in [0, 1/(d+1)], the top of the TD CP range;
        # td_complement_capacity has rejected every t outside that range.
        cloner = 1 if 0.0 <= t else 0
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
    _emit(["\n".join(rows) + "\n"], args.output)
    return EXIT_YES


def cmd_screen(args) -> int:
    tol = _tolerance(args)
    chan = parse_channel(args.channel)
    report = ecd_screen(chan, tol)
    report["schema_version"] = SCHEMA_VERSION
    report["channel"] = args.channel
    _emit(json_pieces(report), args.output)
    return EXIT_YES


def cmd_verify(args) -> int:
    tol = _tolerance(args)
    try:
        with open(args.certificate) as fh:
            doc = json.load(fh)
        check_schema_version(doc)
        chan = parse_channel(doc["channel"])
        mode = Mode(doc["mode"])
        # A decide verdict nests its certificate; a stored certificate is flat.
        # Only a YES verdict claims that its certificate checks out.
        if "status" in doc:
            if "certificate" not in doc:
                raise CliError(f"verdict {doc['status']} carries no certificate")
            if doc["status"] != "YES":
                raise CliError(f"verdict {doc['status']} is not YES; only a YES verdict is verified")
        body = doc["certificate"] if "certificate" in doc else doc
        cert = SuperOp(body["d_in"], body["d_out"], from_pairs(body["matrix"]))
    except (
        OSError, KeyError, TypeError, ValueError, AttributeError, OverflowError,
        RecursionError,  # deeply nested JSON
    ) as exc:
        raise CliError(f"unreadable certificate: {exc}") from exc
    ok, report = verify_certificate(chan, mode, cert, tol)
    report["schema_version"] = SCHEMA_VERSION
    report["channel"] = doc["channel"]
    report["mode"] = doc["mode"]
    _emit(json_pieces(report), args.output)
    return EXIT_YES if ok else EXIT_NO


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chandeg",
        description="Degradability decisions and capacity curves for quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *tolerances):
        """--output, and a --<name>-tol flag for each tolerance the command reads."""
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        for name in tolerances:
            p.add_argument(f"--{name}-tol", type=float, default=argparse.SUPPRESS)

    def grid(p):
        """--d and the t grid flags of a TD curve."""
        p.add_argument("--d", type=int, required=True, choices=[2, 3])
        p.add_argument("--t-start", type=float, default=None)
        p.add_argument("--t-stop", type=float, default=None)
        p.add_argument("--t-points", type=int, default=100)

    p = sub.add_parser("decide", help="decide one degradability mode")
    p.add_argument("--channel", required=True)
    p.add_argument("--mode", required=True, choices=[m.value for m in Mode])
    p.add_argument(
        "--max-iters", type=int, default=SearchConfig.max_iters, help="search iteration bound"
    )
    common(p, "rank", "psd", "residual")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("sweep-eigs", help="candidate Choi eigenvalues vs t (CSV)")
    grid(p)
    common(p, "rank")
    p.set_defaults(func=cmd_sweep_eigs)

    p = sub.add_parser("capacity", help="capacity curve of the TD complement (CSV)")
    grid(p)
    common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("screen", help="exclusive-conjugate-degradability screen")
    p.add_argument("--channel", required=True)
    common(p, "rank", "psd")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("verify", help="re-verify a stored certificate")
    p.add_argument("--certificate", required=True, help="path to a certificate JSON")
    common(p, "psd", "residual")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_INPUT_ERROR if exc.code else EXIT_YES
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:  # exit 1 would read as NO
        print(f"error: input too large to build: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
