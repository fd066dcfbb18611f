import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chandeg.cli import build_parser, main, parse_channel

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "antidegrading_certificate_qubit_td.json"


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

    args = ["decide", "--channel", "td:d=2,t=-0.6666666666666666", "--mode", "antidegradable"]
    code, out, _ = run_cli(args, capsys)
    assert code == 2
    assert json.loads(out)["status"] == "INCONCLUSIVE"

    code, out, _ = run_cli(args + ["--search", "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "YES" and doc["seed"] == 7 and "certificate" in doc


def test_decide_search_requires_seed(capsys):
    code, _, err = run_cli(
        ["decide", "--channel", "td:d=2,t=0", "--mode", "antidegradable", "--search"],
        capsys,
    )
    assert code == 3
    assert "error:" in err


def test_decide_bad_channel(capsys):
    code, _, err = run_cli(
        ["decide", "--channel", "td:d=2,t=0.9", "--mode", "degradable"], capsys
    )
    assert code == 3 and "error:" in err


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


def test_verify_unreadable_certificate(tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    code, _, err = run_cli(["verify", "--certificate", str(garbage)], capsys)
    assert code == 3 and "error:" in err


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "verdict.json"
    code, out, _ = run_cli(
        ["decide", "--channel", "td:d=2,t=0", "--mode", "antidegradable",
         "--output", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["status"] == "YES"


def test_tolerance_flags_parse():
    args = build_parser().parse_args(
        ["decide", "--channel", "td:d=2,t=0", "--mode", "degradable",
         "--residual-tol", "1e-8"]
    )
    assert args.residual_tol == 1e-8


def test_seeded_runs_are_byte_identical():
    argv = [
        sys.executable, "-m", "chandeg.cli", "decide",
        "--channel", "td:d=2,t=-0.6666666666666666",
        "--mode", "antidegradable", "--search", "--seed", "123",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
