"""A fixed corpus of command lines, run in-process through ``cli.main``.

Each ``decide`` writes its verdict with ``--output`` and is followed by a
``verify`` of that file.  For every command the expectation file
``cli_corpus.json`` stores the exit code, the status, the key set, every
value of the output except the certificate and witness matrices (``verify``'s
``ok`` covers those), and the sha256 of the exact output bytes.

``test_cli_corpus.py`` compares codes, statuses, keys and non-numeric values
exactly and numbers within ``REL_TOL`` / ``ABS_TOL``, so that other numpy and
BLAS builds pass.  To check that a change keeps every byte, regenerate the
file on the parent commit and on the change, on one machine, and diff:

    PYTHONPATH=src python tests/cli_corpus.py
    git diff tests/cli_corpus.json

A regenerated expectation is a recorded change.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from chandeg.cli import main

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "cli_corpus.json"
FIXTURE = HERE.parent / "fixtures" / "antidegrading_certificate_qubit_td.json"

REL_TOL = 1e-6
ABS_TOL = 1e-9

MODES = ("degradable", "antidegradable", "conj-degradable", "conj-antidegradable")
# Each family's CP range, its ends and the known region edges included.
CHANNELS = (
    [f"td:d=2,t={t!r}" for t in (-1.0, -0.9, -0.7, -2 / 3, -0.6, -0.5, -0.25, 0.0, 0.1, 0.2,
                                  1 / 3)]
    + [f"td:d=3,t={t!r}" for t in (-0.5, -0.45, -0.31, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.25)]
    + [f"td:d=4,t={t!r}" for t in (-1 / 3, -0.3, -0.2, -0.1, -0.05, 0.0, 0.1, 0.2)]
    + [f"depol:d=2,s={s!r}" for s in (-1 / 3, -0.2, 0.0, 0.5, 1.0)]
    + [f"depol:d=3,s={s!r}" for s in (-0.125, -0.1, 0.0, 0.2, 0.5)]
    + [f"td-comp:t={t!r}" for t in (-1.0, -0.5, 0.0, 1 / 3)]
    + [f"cloner:p={p!r}" for p in (0.0, 0.25, 0.5, 1.0)]
)
# The edge needs more than 5 search iterations: INCONCLUSIVE.
INCONCLUSIVE = ["decide", "--channel", "td:d=2,t=-0.6666666666666666",
                "--mode", "antidegradable", "--max-iters", "5"]
OTHERS = (
    [["screen", "--channel", spec] for spec in ("td:d=2,t=0.2", "td:d=3,t=-0.1",
                                                  "depol:d=2,s=0.5", "cloner:p=0.5")]
    + [
        ["sweep-eigs", "--d", "2", "--t-points", "5"],
        ["sweep-eigs", "--d", "3", "--t-start", "-0.4", "--t-stop", "0.2", "--t-points", "3"],
        ["capacity", "--d", "2", "--t-points", "5"],
        ["capacity", "--d", "3", "--t-points", "2"],
        ["verify", "--certificate", str(FIXTURE)],
        # tolerance flags
        ["decide", "--channel", "td:d=2,t=-0.7", "--mode", "antidegradable", "--rank-tol", "0.9"],
        ["decide", "--channel", "td:d=2,t=-0.7", "--mode", "antidegradable", "--psd-tol", "0.5"],
        ["decide", "--channel", "td:d=2,t=-0.7", "--mode", "antidegradable",
         "--residual-tol", "1e-30"],
        ["sweep-eigs", "--d", "2", "--t-points", "2", "--rank-tol", "0.9"],
        ["screen", "--channel", "td:d=2,t=0.2", "--psd-tol", "0.5"],
        ["verify", "--certificate", str(FIXTURE), "--residual-tol", "1e-30"],
        # input errors
        [],
        ["decide", "--mode", "antidegradable"],
        ["decide", "--channel", "td:d=2,t=0", "--mode", "bogus"],
        ["decide", "--channel", "td:d=2,t=0.9", "--mode", "degradable"],
        ["decide", "--channel", "nope:x=1", "--mode", "degradable"],
        ["decide", "--channel", "td:d=3,t=-0.1", "--mode", "antidegradable", "--max-iters", "-1"],
        ["decide", "--channel", "td:d=2,t=0", "--mode", "antidegradable", "--search"],
        ["decide", "--channel", "td:d=2,t=0", "--mode", "antidegradable", "--seed", "7"],
        ["decide", "--channel", "td:d=2,t=0", "--mode", "antidegradable", "--restarts", "1"],
        ["decide", "--channel", "td:d=2,t=-0.9", "--mode", "antidegradable", "--psd-tol", "inf"],
        ["sweep-eigs", "--d", "4"],
        ["sweep-eigs", "--d", "2", "--t-start", "-0.5", "--t-stop", "0.5", "--t-points", "3"],
        ["capacity", "--d", "2", "--t-stop", "inf"],
        ["capacity", "--d", "2", "--psd-tol", "0.5"],
        ["verify", "--certificate", str(HERE / "no-such-file.json")],
    ]
)


def _run(argv):
    """(exit code, stdout) of one command line through cli.main."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _strip_matrices(doc):
    """The document without the certificate and witness matrices."""
    doc = dict(doc)
    for part, matrix in (("certificate", "matrix"), ("witness", "choi")):
        if part in doc:
            doc[part] = {k: v for k, v in doc[part].items() if k != matrix}
    return doc


def _keys(doc, prefix=""):
    keys = []
    for k, v in doc.items():
        keys.append(prefix + k)
        if isinstance(v, dict):
            keys += _keys(v, prefix + k + ".")
    return sorted(keys)


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def record(argv, code, text):
    """The expectation for one command: code, status, keys, values, sha256."""
    rec = {"argv": argv, "code": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if text.startswith("{"):
        doc = json.loads(text)
        rec.update(status=doc.get("status"), keys=_keys(doc), values=_strip_matrices(doc))
    elif text:  # CSV: the header is the key set
        header, *rows = text.splitlines()
        rec.update(status=None, keys=header.split(","),
                   values=[[_cell(c) for c in row.split(",")] for row in rows])
    else:
        rec.update(status=None, keys=[], values=None)
    return rec


def run_corpus(workdir):
    """Records of every command line, in order; each decide's --output file
    is verified next."""
    records = []
    for i, (spec, mode) in enumerate((s, m) for s in CHANNELS for m in MODES):
        out = workdir / f"verdict{i}.json"
        argv = ["decide", "--channel", spec, "--mode", mode, "--output", str(out)]
        code, _ = _run(argv)
        records.append(record(argv[:-2], code, out.read_text()))
        records.append(record(["verify", "--certificate", "<verdict>"],
                              *_run(["verify", "--certificate", str(out)])))
    records.append(record(INCONCLUSIVE, *_run(INCONCLUSIVE)))
    for argv in OTHERS:
        shown = [a.replace(str(HERE.parent), "<root>") for a in argv]
        records.append(record(shown, *_run(argv)))
    return records


def _close(a, b):
    """a and b equal, numbers within the corpus tolerance."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def mismatches(records, expected):
    """Human-readable differences between records and expected records."""
    if len(records) != len(expected):
        return [f"{len(records)} commands, expected {len(expected)}"]
    found = []
    for got, want in zip(records, expected):
        for field in ("argv", "code", "status", "keys"):
            if got[field] != want[field]:
                found.append(f"{want['argv']}: {field} {got[field]!r} != {want[field]!r}")
        if not _close(got["values"], want["values"]):
            found.append(f"{want['argv']}: values differ beyond the tolerance")
    return found


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        corpus = run_corpus(Path(tmp))
    # One command a line, so that a diff names the commands that changed.
    lines = ",\n".join(json.dumps(rec, sort_keys=True) for rec in corpus)
    EXPECTED.write_text("[\n" + lines + "\n]\n")
    print(f"{len(corpus)} commands written to {EXPECTED}", file=sys.stderr)
