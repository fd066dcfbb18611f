"""Tests of the independent checker.

    python3 -m pytest perfbench/test_checker.py

chandeg is used here only to produce answers for the checker to judge.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
from chandeg import zoo  # noqa: E402
from chandeg.channel import Channel, KrausSet  # noqa: E402
from chandeg.degradability import Mode, Query, decide  # noqa: E402

FIXTURE = os.path.join(ROOT, "fixtures", "antidegrading_certificate_qubit_td.json")


def td_kraus(d, t):
    return [np.asarray(K) for K in zoo.td_channel(zoo.TDParams(d, t)).kraus.operators]


def random_kraus(seed, d, r):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d * r, d)) + 1j * rng.standard_normal((d * r, d))
    V, _ = np.linalg.qr(g)
    return [V[e * d:(e + 1) * d] for e in range(r)]


def fixture_certificate():
    with open(FIXTURE) as fh:
        doc = json.load(fh)
    return doc, np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])


def test_superop_and_choi_match_direct_application():
    kraus = random_kraus(1, 3, 2)
    rng = np.random.default_rng(2)
    rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    out = (rho.reshape(-1) @ checker.superop(kraus)).reshape(3, 3)
    assert np.allclose(out, checker.apply_kraus(kraus, rho))
    blocks = np.zeros((9, 9), dtype=complex)
    for k in range(3):
        for mu in range(3):
            E = np.zeros((3, 3))
            E[k, mu] = 1.0
            blocks += np.kron(E, checker.apply_kraus(kraus, E))
    assert np.allclose(checker.choi_of_superop(checker.superop(kraus), 3, 3), blocks)
    assert np.allclose(checker.kraus_choi(kraus), blocks)


def test_complement_is_the_environment_output():
    kraus = random_kraus(3, 2, 3)
    rng = np.random.default_rng(4)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    V = np.concatenate(kraus)  # rows (e, j)
    joint = (V @ rho @ V.conj().T).reshape(3, 2, 3, 2)
    env = np.einsum("ejfj->ef", joint)
    assert np.allclose(checker.apply_kraus(checker.complement_kraus(kraus), rho), env)


def test_accepts_the_fixture_certificate():
    doc, D = fixture_certificate()
    d, t = 2, float(doc["channel"].split("t=")[1])
    system = checker.build_system(td_kraus(d, t), doc["mode"])
    assert checker.judge_certificate(system, D).ok


def test_rejects_the_fixture_certificate_once_perturbed():
    doc, D = fixture_certificate()
    t = float(doc["channel"].split("t=")[1])
    system = checker.build_system(td_kraus(2, t), doc["mode"])
    bumped = D.copy()
    bumped[0, 0] += 1e-3
    outcome = checker.judge_certificate(system, bumped)
    assert not outcome.ok and outcome.fault == checker.UNEXPECTED


def test_rejects_the_non_tp_certificate_decide_returns_for_qutrit_td():
    kraus = td_kraus(3, -0.5)
    verdict = decide(Query(zoo.td_channel(zoo.TDParams(3, -0.5)), Mode.ANTIDEGRADABLE))
    assert verdict.status == "YES"
    system = checker.build_system(kraus, "antidegradable")
    report = checker.check_certificate(system, verdict.certificate.matrix)
    assert report["solves"] and report["cp"] and not report["tp"]
    assert report["tp_dev"] == pytest.approx(np.sqrt(6.0), rel=1e-9)  # 2.449...
    assert checker.judge_certificate(system, verdict.certificate.matrix).fault == checker.NOT_TP


@pytest.mark.parametrize("mode", checker.MODES)
def test_judges_every_mode_of_random_channels(mode):
    for seed in range(5):
        kraus = random_kraus(seed, 3, 1 + seed % 3)
        v = decide(Query(Channel(KrausSet(3, 3, tuple(kraus))), Mode(mode)))
        verdict = {
            "status": v.status,
            "certificate": None if v.certificate is None else v.certificate.matrix,
            "candidate_eigs": v.candidate_choi_eigs,
            "unique": v.unique,
            "consistent": v.consistent,
            "kernel_dim": v.kernel_dim,
        }
        outcome = checker.judge_verdict(checker.build_system(kraus, mode), verdict, mode)
        assert outcome.ok and outcome.decided, outcome


def test_no_is_accepted_only_with_evidence_or_proof():
    kraus = td_kraus(2, -0.8)
    system = checker.build_system(kraus, "antidegradable")
    assert system.consistent and not system.unique
    no = {"status": "NO", "certificate": None, "candidate_eigs": system.eigs,
          "unique": False, "consistent": True, "kernel_dim": system.kernel_dim}
    assert checker.judge_verdict(system, no, "antidegradable", "td", 2, -0.8).ok
    inside = checker.build_system(td_kraus(2, -0.6), "antidegradable")
    no_inside = dict(no, candidate_eigs=inside.eigs, kernel_dim=inside.kernel_dim)
    assert not checker.judge_verdict(inside, no_inside, "antidegradable", "td", 2, -0.6).ok


@pytest.mark.parametrize("d,t", [(2, -0.6), (2, 0.2), (3, -0.4), (3, 0.1)])
def test_closed_form_is_the_coherent_information_at_the_mixed_state(d, t):
    if d == 2:
        kraus = [np.asarray(K) for K in zoo.td_complement_qubit(t).kraus.operators]
    else:
        kraus = checker.complement_kraus(td_kraus(3, t))
    value = checker.coherent_information(kraus, np.eye(d) / d, d)
    assert value == pytest.approx(checker.td_complement_closed_form(d, t), abs=1e-12)
    assert checker.judge_covariant(kraus, d, t, value).decided
