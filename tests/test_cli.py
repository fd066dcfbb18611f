import gc
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chandeg.channel import Channel, KrausSet, NotTP, channel_to_dict, complement
from chandeg.cli import build_parser, main, parse_channel
from chandeg.linalg import DEFAULT_TOL
from chandeg.zoo import TDParams, td_channel

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "fixtures" / "antidegrading_certificate_qubit_td.json"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_channel_specs():
    assert parse_channel("td:d=2,t=0.2").d_out == 2
    assert parse_channel("depol:d=3,s=-0.1").d_in == 3
    assert parse_channel("td-comp:t=0.25").d_out == 4
    assert parse_channel("cloner:p=0.5").d_out == 4
    from chandeg.cli import CliError

    for bad in ("td", "td:d=2", "td:d=2,t=0.9", "nope:x=1", "file:/does/not/exist"):
        with pytest.raises(CliError):
            parse_channel(bad)


@pytest.mark.parametrize(
    "spec", ["td:d=2,t=0.2", "td:d=3,t=0.25", "depol:d=3,s=-0.1", "td-comp:t=-0.3", "cloner:p=0.5"]
)
def test_parse_channel_calls_no_eigensolver(spec, monkeypatch):
    # Every zoo channel is built from a closed-form Kraus set, so its
    # environment basis does not depend on the LAPACK build.
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called while building a channel")

    for name in ("eigh", "eigvalsh", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)
    parse_channel(spec)


def test_decide_exit_codes(capsys):
    code, out, _ = run_cli(
        ["decide", "--channel", "td:d=2,t=-1", "--mode", "degradable"], capsys
    )
    assert code == 0
    assert json.loads(out)["status"] == "YES"

    code, out, _ = run_cli(
        ["decide", "--channel", "td:d=2,t=0.2", "--mode", "degradable"], capsys
    )
    assert code == 1
    assert json.loads(out)["status"] == "NO"

    # the qubit edge: the search settles it in under 50 iterations
    args = ["decide", "--channel", "td:d=2,t=-0.6666666666666666", "--mode", "antidegradable"]
    code, out, _ = run_cli(args + ["--max-iters", "5"], capsys)
    assert code == 2
    assert json.loads(out)["status"] == "INCONCLUSIVE"

    code, out, _ = run_cli(args, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "YES" and "certificate" in doc

    # the options of the removed seeded, restarted search
    for flag in (["--search"], ["--seed", "7"], ["--restarts", "1"]):
        code, out, err = run_cli(args + flag, capsys)
        assert code == 3 and out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in err


def test_decide_rejects_negative_max_iters(capsys):
    argv = ["decide", "--channel", "td:d=3,t=-0.1", "--mode", "antidegradable"]
    code, out, err = run_cli(argv + ["--max-iters", "-1"], capsys)
    assert code == 3 and out == "" and "max_iters" in err
    code, out, _ = run_cli(argv + ["--max-iters", "0"], capsys)
    assert code == 0 and json.loads(out)["status"] == "YES"


def test_decide_bad_channel(capsys):
    code, _, err = run_cli(
        ["decide", "--channel", "td:d=2,t=0.9", "--mode", "degradable"], capsys
    )
    assert code == 3 and "error:" in err
    # The last t used to win: t = -0.5 answered YES, exit 0, although the
    # spec also names t = 0.9, outside the qubit CP range.
    code, out, err = run_cli(
        ["decide", "--channel", "td:d=2,t=0.9,t=-0.5", "--mode", "antidegradable"], capsys
    )
    assert code == 3 and out == "" and err == "error: repeated parameter 't'\n"


def test_sweep_eigs_output(capsys):
    code, out, _ = run_cli(
        ["sweep-eigs", "--d", "2", "--t-start", "-0.5", "--t-stop", "0.25", "--t-points", "4"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t," + ",".join(f"lambda_{i}" for i in range(1, 9))
    assert len(lines) == 5
    row0 = lines[1].split(",")
    assert float(row0[0]) == -0.5


def test_sweep_eigs_flat_spectrum_at_zero(capsys):
    code, out, _ = run_cli(
        ["sweep-eigs", "--d", "2", "--t-start", "-0.1", "--t-stop", "0.1", "--t-points", "3"],
        capsys,
    )
    assert code == 0
    mid = out.strip().split("\n")[2].split(",")
    assert float(mid[0]) == 0.0
    np.testing.assert_allclose([float(x) for x in mid[1:]], [0.5] * 8, atol=1e-10)


def test_sweep_eigs_rejects_grid_outside_cp_range(capsys):
    code, _, err = run_cli(
        ["sweep-eigs", "--d", "2", "--t-start", "-0.5", "--t-stop", "0.5", "--t-points", "3"],
        capsys,
    )
    assert code == 3 and "error:" in err


def test_capacity_csv(capsys):
    code, out, _ = run_cli(
        ["capacity", "--d", "2", "--t-start", "0", "--t-stop", "0.33333333333333331",
         "--t-points", "2"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,Q,base,method,status,cloner"
    t0 = lines[1].split(",")
    assert float(t0[1]) == 1.0 and t0[4] == "PROVEN" and t0[5] == "1"
    t1 = lines[2].split(",")
    assert np.isclose(float(t1[1]), np.log2(3) - 1)


def test_capacity_qutrit_status(capsys):
    code, out, _ = run_cli(
        ["capacity", "--d", "3", "--t-points", "3"], capsys
    )
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        fields = line.split(",")
        assert fields[2] == "3" and fields[4] == "NUMERICAL_EVIDENCE"


def test_screen_json(capsys):
    code, out, _ = run_cli(["screen", "--channel", "td:d=2,t=0.2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["hopeless"] is True and doc["reasons"]


def test_verify_fixture(capsys):
    code, out, _ = run_cli(["verify", "--certificate", str(FIXTURE)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["residual"] < 1e-9
    assert doc["tp"] is True and doc["tp_deviation"] < 1e-9


@pytest.mark.parametrize(
    "spec, mode",
    [
        ("td:d=2,t=-0.25", "antidegradable"),
        ("td:d=3,t=-0.1", "antidegradable"),
        ("td:d=4,t=-0.1", "antidegradable"),
        ("td:d=3,t=-0.5", "degradable"),
        ("td:d=3,t=-0.1", "conj-antidegradable"),
    ],
)
def test_decide_output_verifies(tmp_path, capsys, spec, mode):
    verdict = tmp_path / "verdict.json"
    code, _, _ = run_cli(
        ["decide", "--channel", spec, "--mode", mode, "--output", str(verdict)], capsys
    )
    assert code == 0 and json.loads(verdict.read_text())["status"] == "YES"
    code, out, err = run_cli(["verify", "--certificate", str(verdict)], capsys)
    assert code == 0, err
    report = json.loads(out)
    assert report["ok"] is True and report["tp"] is True


def test_verify_corrupted_certificate(tmp_path, capsys):
    doc = json.loads(FIXTURE.read_text())
    doc["matrix"][0][0][0] += 0.1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(["verify", "--certificate", str(bad)], capsys)
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_verify_non_finite_certificate(tmp_path, capsys):
    doc = json.loads(FIXTURE.read_text())
    doc["matrix"][0][0][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(["verify", "--certificate", str(bad)], capsys)
    assert code == 1 and err == ""
    assert json.loads(out)["error"] == "certificate has non-finite entries"


def test_verify_unreadable_certificate(tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    code, _, err = run_cli(["verify", "--certificate", str(garbage)], capsys)
    assert code == 3 and "error:" in err


def test_verify_of_a_verdict_without_certificate(tmp_path, capsys):
    verdict = tmp_path / "no.json"
    code, _, _ = run_cli(
        ["decide", "--channel", "td:d=2,t=-0.7", "--mode", "antidegradable",
         "--output", str(verdict)],
        capsys,
    )
    assert code == 1
    code, out, err = run_cli(["verify", "--certificate", str(verdict)], capsys)
    assert code == 3 and out == ""
    assert err == "error: verdict NO carries no certificate\n"


def _json_with(doc, key, literal):
    """doc as JSON text with the value of key written as the literal."""
    return json.dumps({**doc, key: "@"}).replace('"@"', literal)


VERIFY = ["verify", "--certificate"]
CERT = json.loads(FIXTURE.read_text())
CHANNEL = channel_to_dict(td_channel(TDParams(2, 0.2)))
ONE_TO_QUBIT = {"d_out": 2, "kraus": [[[[1.0, 0.0]], [[0.0, 0.0]]], [[[0.0, 0.0]], [[1.0, 0.0]]]]}


@pytest.mark.parametrize(
    "argv, text",
    [
        (VERIFY, _json_with(CERT, "channel", "123")),
        (VERIFY, _json_with(CERT, "d_in", "Infinity")),
        (VERIFY, FIXTURE.read_text().replace("1.0", "1" + "0" * 399, 1)),
        # -4 used to fail late in a reshape; 4.7 was truncated to 4 and verified.
        (VERIFY, _json_with(CERT, "d_in", "-4")),
        (VERIFY, _json_with(CERT, "d_in", "4.7")),
        (["decide", "--mode", "degradable", "--channel"], _json_with(CHANNEL, "d_in", "1e400")),
        (["decide", "--mode", "degradable", "--channel"], _json_with(CHANNEL, "d_in", "2.7")),
        # true is a bool, an int subclass: with 2 x 1 Kraus operators it passed
        # every shape check and failed late with a TypeError, exit 1.
        (["decide", "--mode", "degradable", "--channel"], _json_with(ONE_TO_QUBIT, "d_in", "true")),
        # json.load recursed past the interpreter's limit: a traceback, exit 1.
        (["decide", "--mode", "degradable", "--channel"], "[" * 100000 + "]" * 100000),
        (VERIFY, "[" * 100000 + "]" * 100000),
        (["decide", "--mode", "degradable", "--channel"], _json_with(CHANNEL, "kraus", "[]")),
        (["decide", "--mode", "degradable", "--channel"],
         _json_with(CHANNEL, "kraus", json.dumps([CHANNEL["kraus"][0][:1]]))),
        (VERIFY, _json_with(CERT, "matrix", json.dumps(CERT["matrix"][:4]))),
        # complex(True, False) is 1: both were accepted, exit 0.
        (VERIFY, json.dumps({**CERT, "matrix": [[[True, False]] + CERT["matrix"][0][1:]]
                                               + CERT["matrix"][1:]})),
        (["decide", "--mode", "degradable", "--channel"],
         json.dumps({"d_in": 2, "d_out": 2,
                     "kraus": [[[[True, False], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]})),
    ],
    ids=[
        "channel-not-a-string", "d_in-infinite", "entry-400-digits", "d_in-negative",
        "d_in-fractional", "channel-d_in-1e400", "channel-d_in-fractional",
        "channel-d_in-true", "channel-nested-deep", "nested-deep", "channel-no-kraus",
        "channel-kraus-wrong-shape", "matrix-wrong-shape", "entry-boolean",
        "channel-entry-boolean",
    ],
)
def test_malformed_stored_input_is_an_input_error(tmp_path, capsys, argv, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    arg = f"file:{path}" if argv[0] == "decide" else str(path)
    code, out, err = run_cli(argv + [arg], capsys)
    assert code == 3 and out == ""
    prefix = "error: unreadable certificate: " if argv == VERIFY else "error: "
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("scale, code", [(1 + 1e-8, 0), (1 + 1e-5, 3)])
def test_complement_applies_is_tps_bound(tmp_path, capsys, scale, code):
    # Scaled by 1 + 1e-8, sum K^dag K is off by 2.8e-8: within is_tp's 1e-6.
    # complement used to apply an absolute 1e-9 and rejected it, exit 3.
    chan = td_channel(TDParams(2, -0.5))
    scaled = Channel(KrausSet(2, 2, tuple(scale * K for K in chan.kraus.operators)))
    if code:
        with pytest.raises(NotTP):
            complement(scaled)
    else:
        assert complement(scaled).d_out == len(chan.kraus.operators)
    path = tmp_path / "near.json"
    path.write_text(json.dumps(channel_to_dict(scaled)))
    argv = ["decide", "--mode", "antidegradable", "--channel", f"file:{path}"]
    got, out, err = run_cli(argv, capsys)
    assert got == code
    if code:
        assert out == "" and "trace-preserving" in err
    else:
        assert json.loads(out)["status"] == "YES"


def test_decide_reads_a_channel_file(tmp_path, capsys):
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(channel_to_dict(td_channel(TDParams(3, -0.3)))))
    argv = ["decide", "--mode", "antidegradable", "--channel"]
    code, out, _ = run_cli(argv + ["td:d=3,t=-0.3"], capsys)
    code_file, out_file, _ = run_cli(argv + [f"file:{path}"], capsys)
    assert code_file == code == 0
    spec = f'"channel": {json.dumps(f"file:{path}")}'
    assert out_file.count(spec) == 1
    assert out_file.replace(spec, '"channel": "td:d=3,t=-0.3"') == out


@pytest.mark.parametrize(
    "flag, value",
    [("--psd-tol", "inf"), ("--psd-tol", "1e300"), ("--rank-tol", "1"), ("--residual-tol", "nan")],
)
def test_out_of_range_tolerance_is_an_input_error(flag, value, capsys):
    # At t = -0.9 the qubit TD channel is not antidegradable (below -2/3).
    decide = ["decide", "--channel", "td:d=2,t=-0.9", "--mode", "antidegradable"]
    verify = ["verify", "--certificate", str(FIXTURE)]
    for argv in [decide] if flag == "--rank-tol" else [decide, verify]:  # verify reads no rank_tol
        code, out, err = run_cli(argv + [flag, value], capsys)
        assert code == 3 and out == ""
        assert flag[2:].replace("-", "_") in err


# One quick command line per subcommand, and for each tolerance its code reads
# a value that changes the output of that command line.
COMMANDS = {
    "decide": (["decide", "--channel", "td:d=2,t=-0.7", "--mode", "antidegradable"],
               {"rank": "0.9", "psd": "0.5", "residual": "1e-30"}),
    "sweep-eigs": (["sweep-eigs", "--d", "2", "--t-points", "2"], {"rank": "0.9"}),
    "capacity": (["capacity", "--d", "2", "--t-points", "2"], {}),
    "screen": (["screen", "--channel", "td:d=2,t=0.2"], {"rank": "0.9", "psd": "0.5"}),
    "verify": (["verify", "--certificate", str(FIXTURE)], {"psd": "1e-30", "residual": "1e-30"}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_takes_only_the_tolerances_it_reads(command, capsys):
    argv, reads = COMMANDS[command]
    baseline = run_cli(argv, capsys)
    assert baseline[0] in (0, 1) and baseline[2] == ""
    for name in ("rank", "psd", "residual"):
        if name in reads:
            code, out, _ = run_cli(argv + [f"--{name}-tol", reads[name]], capsys)
            assert code in (0, 1) and (code, out) != baseline[:2]
        else:
            default = repr(getattr(DEFAULT_TOL, f"{name}_tol"))
            code, out, err = run_cli(argv + [f"--{name}-tol", default], capsys)
            assert code == 3 and out == ""
            assert f"unrecognized arguments: --{name}-tol" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["decide", "--mode", "antidegradable"],  # no --channel
        ["decide", "--channel", "td:d=2,t=0", "--mode", "bogus"],
        ["sweep-eigs", "--d", "4"],
        ["decide", "--channel", "td:d=2;t=0", "--mode", "antidegradable"],  # malformed parameter
        ["decide", "--channel", "td:d=2,t=0,x=1", "--mode", "antidegradable"],  # unknown parameter
        ["sweep-eigs", "--d", "2", "--t-start", "0.2", "--t-stop", "0.1"],  # empty grid
    ],
)
def test_usage_errors_are_input_errors(argv, capsys):
    # argparse's own exit code, 2, would read as INCONCLUSIVE.
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == "" and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "--d", "2", "--t-stop", "inf"],
        ["sweep-eigs", "--d", "2", "--t-stop", "inf"],
        ["sweep-eigs", "--d", "3", "--t-start=-inf"],
        ["capacity", "--d", "3", "--t-start", "nan"],
    ],
)
def test_non_finite_grid_end_is_an_input_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err == "error: t_start and t_stop must be finite\n"


def test_out_of_memory_is_an_input_error(monkeypatch, capsys):
    # Exit 1 would read as NO.
    def too_large(params):
        raise MemoryError("Unable to allocate 14.6 TiB")

    monkeypatch.setattr("chandeg.zoo.td_channel", too_large)
    code, out, err = run_cli(
        ["decide", "--channel", "td:d=1000000,t=0", "--mode", "degradable"], capsys
    )
    assert code == 3 and out == ""
    assert err == "error: input too large to build: Unable to allocate 14.6 TiB\n"


def test_help_exits_0(capsys):
    for argv in (["--help"], ["decide", "--help"]):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out.startswith("usage: chandeg")


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "verdict.json"
    code, out, _ = run_cli(
        ["decide", "--channel", "td:d=2,t=0", "--mode", "antidegradable",
         "--output", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["status"] == "YES"


def test_failed_write_leaves_the_earlier_output_file(tmp_path, monkeypatch, capsys):
    def half_then_fail(doc):
        yield "{\n"
        raise MemoryError

    target = tmp_path / "verdict.json"
    target.write_text("earlier\n")
    monkeypatch.setattr("chandeg.cli.json_pieces", half_then_fail)
    code, _, err = run_cli(
        ["decide", "--channel", "td:d=2,t=0", "--mode", "antidegradable",
         "--output", str(target)],
        capsys,
    )
    assert code == 3 and "too large" in err
    assert target.read_text() == "earlier\n"
    assert os.listdir(tmp_path) == ["verdict.json"]


def test_output_through_a_symlink_writes_its_target(tmp_path, capsys):
    target, link = tmp_path / "verdict.json", tmp_path / "link.json"
    target.write_text("earlier\n")
    link.symlink_to(target)
    argv = ["decide", "--channel", "td:d=2,t=0", "--mode", "antidegradable"]
    assert run_cli(argv + ["--output", str(link)], capsys)[0] == 0
    assert link.is_symlink()
    assert target.read_text() == run_cli(argv, capsys)[1]


def test_output_to_a_pipe_writes_into_the_pipe(tmp_path, capsys):
    # A pipe or device, such as /dev/stdout, is written in place, not replaced.
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
    reader.start()
    argv = ["decide", "--channel", "td:d=2,t=0", "--mode", "antidegradable"]
    assert run_cli(argv + ["--output", str(pipe)], capsys)[0] == 0
    reader.join(timeout=10)
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert got == [run_cli(argv, capsys)[1]]


@pytest.mark.parametrize("spec", ["td:d=4,t=-0.14", "td:d=2,t=-0.7"])
def test_stdout_and_output_file_have_the_same_bytes(tmp_path, capsys, spec):
    # A YES with its certificate, and a NO with its witness.
    argv = ["decide", "--channel", spec, "--mode", "antidegradable"]
    target = tmp_path / "verdict.json"
    code, out, _ = run_cli(argv, capsys)
    assert run_cli(argv + ["--output", str(target)], capsys)[0] == code
    doc = json.loads(out)
    assert ("certificate" if code == 0 else "witness") in doc
    assert target.read_bytes() == out.encode()


def test_decide_output_peak_memory_is_at_most_ten_choi_arrays(tmp_path):
    # The degrading map's Choi matrix is d^3 x d^3 complex.  The verdict is
    # written a row at a time, so writing it costs far less than deciding.
    d = 4
    argv = ["decide", "--channel", f"td:d={d},t=-0.14", "--mode", "antidegradable",
            "--output", str(tmp_path / "verdict.json")]
    main(argv)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 10 * d**6 * 16, peak / (d**6 * 16)


def test_tolerance_flags_parse():
    args = build_parser().parse_args(
        ["decide", "--channel", "td:d=2,t=0", "--mode", "degradable",
         "--residual-tol", "1e-8"]
    )
    assert args.residual_tol == 1e-8


@pytest.mark.parametrize("spec", ["td:d=2,t=-0.6666666666666666", "td:d=3,t=-0.5"])
def test_cli_runs_are_byte_identical(spec):
    """Two invocations of one command line, each in a fresh interpreter, emit
    byte-identical output."""
    argv = [sys.executable, "-m", "chandeg.cli", "decide", "--channel", spec,
            "--mode", "antidegradable"]
    first, second = (subprocess.run(argv, capture_output=True) for _ in range(2))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout and len(first.stdout) > 0


# Every command with the exit code it must return; none of them needs scipy.
NO_SCIPY_COMMANDS = [
    (["decide", "--channel", "td:d=2,t=-1", "--mode", "degradable"], 0),
    (["decide", "--channel", "td:d=2,t=0.2", "--mode", "degradable"], 1),
    (["decide", "--channel", "td:d=2,t=-0.6666666666666666", "--mode", "antidegradable"], 0),
    (["sweep-eigs", "--d", "2", "--t-points", "3"], 0),
    (["capacity", "--d", "2", "--t-points", "3"], 0),
    (["screen", "--channel", "td:d=2,t=0.2"], 0),
    (["verify", "--certificate", str(FIXTURE)], 0),
]

RUN_COMMANDS = """
import contextlib, io, json, sys
from chandeg.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def scipy_modules_after(code, *args):
    """Run ``code`` in a fresh interpreter; return (its stdout, the scipy
    modules it left in sys.modules)."""
    report = "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + report, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    *out, modules = proc.stdout.strip().split("\n")
    return out, modules


def test_cli_commands_do_not_import_scipy():
    argv = json.dumps([a for a, _ in NO_SCIPY_COMMANDS])
    out, modules = scipy_modules_after(RUN_COMMANDS, argv)
    assert json.loads(out[0]) == [code for _, code in NO_SCIPY_COMMANDS]
    assert modules == "[]"


def test_degradability_import_does_not_import_scipy():
    assert scipy_modules_after("import chandeg.degradability") == ([], "[]")


ONE_SHOT_ON_A_RANDOM_QUBIT_CHANNEL = """
import numpy as np
from chandeg.capacity import OptimizerConfig, one_shot_optimize
from chandeg.channel import Channel, KrausSet
g = np.random.default_rng(0).normal(size=(2, 6, 2))
q, _ = np.linalg.qr(g[0] + 1j * g[1])
c = Channel(KrausSet(2, 2, tuple(q.reshape(3, 2, 2))))
print(one_shot_optimize(c, OptimizerConfig(seed=0, restarts=2)).method)
"""


def test_one_shot_optimize_does_not_import_scipy():
    assert scipy_modules_after(ONE_SHOT_ON_A_RANDOM_QUBIT_CHANNEL) == (["optimized"], "[]")
