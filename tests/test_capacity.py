import importlib
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from chandeg.capacity import (
    OptimizerConfig,
    coherent_information,
    covariant_capacity,
    one_shot_optimize,
    td_complement_capacity,
    von_neumann_entropy,
)
from chandeg.channel import Channel, KrausSet
from chandeg.zoo import OutOfCPRange, TDParams, td_channel, td_complement_qubit

from conftest import random_channel, random_state

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_entropy_examples():
    assert np.isclose(von_neumann_entropy(np.eye(2) / 2), 1.0)
    assert np.isclose(von_neumann_entropy(np.diag([1.0, 0.0])), 0.0)
    npt.assert_allclose(
        von_neumann_entropy(np.diag([0.75, 0.25])), 2.0 - 0.75 * np.log2(3.0)
    )
    assert np.isclose(von_neumann_entropy(np.eye(3) / 3, base=3.0), 1.0)
    with pytest.raises(ValueError):
        von_neumann_entropy(np.eye(2) / 2, base=1.0)


def test_entropy_unitary_invariance(rng):
    rho = random_state(rng, 3)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    npt.assert_allclose(
        von_neumann_entropy(Q @ rho @ Q.conj().T), von_neumann_entropy(rho), atol=1e-10
    )


def test_coherent_information_identity(rng):
    ident = Channel(KrausSet(2, 2, (np.eye(2),)))
    rho = random_state(rng, 2)
    npt.assert_allclose(coherent_information(ident, rho), von_neumann_entropy(rho), atol=1e-10)


def test_coherent_information_full_depolarization():
    dep = td_channel(TDParams(2, 0.0))
    assert np.isclose(coherent_information(dep, np.eye(2) / 2), -1.0)


def test_coherent_information_representative_invariance(rng):
    # rotating the environment basis changes the Kraus set but not I_c
    c = random_channel(rng, 2, 2, 3)
    U, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    rotated = tuple(
        sum(U[e, f] * c.kraus.operators[f] for f in range(3)) for e in range(3)
    )
    c2 = Channel(KrausSet(2, 2, rotated))
    for _ in range(5):
        rho = random_state(rng, 2)
        npt.assert_allclose(
            coherent_information(c, rho), coherent_information(c2, rho), atol=1e-9
        )


def test_qubit_capacity_point_values():
    assert np.isclose(td_complement_capacity(2, 1 / 3).value, np.log2(3.0) - 1.0)
    assert np.isclose(td_complement_capacity(2, 0.0).value, 1.0)
    r = td_complement_capacity(2, -2 / 3)
    assert np.isclose(r.value, 0.20751874963942196, atol=1e-12)
    assert r.status == "PROVEN" and r.base == 2.0


def test_qutrit_capacity_point_values():
    r = td_complement_capacity(3, 0.25)
    assert np.isclose(r.value, np.log(2.0) / np.log(3.0))
    assert r.status == "NUMERICAL_EVIDENCE" and r.base == 3.0
    assert np.isclose(td_complement_capacity(3, 0.0).value, 1.0)


def test_capacity_status_by_region():
    assert td_complement_capacity(2, 0.1).status == "PROVEN"
    assert td_complement_capacity(2, -0.7).status == "NUMERICAL_EVIDENCE"
    with pytest.raises(OutOfCPRange):
        td_complement_capacity(2, 0.4)
    with pytest.raises(OutOfCPRange):
        td_complement_capacity(3, -0.6)
    with pytest.raises(ValueError):
        td_complement_capacity(4, 0.0)


def test_closed_form_matches_mixed_input_coherent_information():
    for t in np.linspace(-0.95, 1 / 3, 12):
        c = td_complement_qubit(t)
        got = covariant_capacity(c).value
        npt.assert_allclose(got, td_complement_capacity(2, t).value, atol=1e-9)


def test_capacity_sign_change_bracket():
    # the mixed-input capacity formula changes sign between -0.76 and -0.74
    assert td_complement_capacity(2, -0.74).value > 0
    assert td_complement_capacity(2, -0.76).value < 0


def test_one_shot_at_least_mixed_input():
    cfg = OptimizerConfig(seed=5, restarts=4, max_iters=120)
    for t in (-0.5, 0.0, 0.25):
        c = td_complement_qubit(t)
        assert one_shot_optimize(c, cfg).value >= covariant_capacity(c).value - 1e-12


def test_one_shot_identity():
    ident = Channel(KrausSet(2, 2, (np.eye(2),)))
    r = one_shot_optimize(ident, OptimizerConfig(seed=3, restarts=4))
    assert np.isclose(r.value, 1.0, atol=1e-7)
    assert r.method == "optimized"


def test_one_shot_matches_covariant_in_degradable_region():
    # inside [-2/3, 1/3] the maximally mixed input is optimal
    cfg = OptimizerConfig(seed=9, restarts=6, max_iters=300)
    for t in (-0.6, 0.2):
        c = td_complement_qubit(t)
        npt.assert_allclose(
            one_shot_optimize(c, cfg).value, covariant_capacity(c).value, atol=1e-6
        )


def test_one_shot_rejects_large_input():
    with pytest.raises(ValueError):
        one_shot_optimize(Channel(KrausSet(5, 5, (np.eye(5),))), OptimizerConfig(seed=0))


def test_one_shot_optimize_is_pinned():
    """One seeded optimization, bit for bit: how scipy's minimize is loaded
    must not move the value or the state."""
    r = one_shot_optimize(td_complement_qubit(-0.55), OptimizerConfig(seed=0, restarts=1))
    assert r.value == 0.45733110575246305
    expected = np.array([
        [0.5000000030577446 - 1.6626104900133509e-21j,
         2.341830466308301e-09 + 3.3868205213323603e-10j],
        [2.341830466308301e-09 - 3.3868205213322647e-10j,
         0.49999999694225544 - 4.656994704695516e-22j],
    ])
    assert np.array_equal(r.input_state, expected)


def test_tracer_patch_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    for module_name, attr, _ in tracer.PATCHES:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)


def test_traced_one_shot_counts_minimize_evaluations(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    t = importlib.import_module("tracer").Tracer()
    t.install()
    try:
        one_shot_optimize(td_complement_qubit(-0.55), OptimizerConfig(seed=0, restarts=1))
    finally:
        t.uninstall()
    assert t.calls["capacity.minimize"] == 1 and t.nfev["capacity.minimize"] > 0
