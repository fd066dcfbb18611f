import importlib
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from chandeg import capacity
from chandeg.capacity import (
    OptimizerConfig,
    coherent_information,
    covariant_capacity,
    one_shot_optimize,
    td_complement_capacity,
    von_neumann_entropy,
)
from chandeg.channel import Channel, KrausSet, apply, apply_adjoint, complement
from chandeg.degradability import Mode, Query, decide
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


@pytest.mark.parametrize(
    "quantity",
    [
        lambda c, base: coherent_information(c, np.eye(2) / 2, base),
        lambda c, base: covariant_capacity(c, base),
        lambda c, base: one_shot_optimize(c, OptimizerConfig(seed=0, restarts=1), base),
    ],
    ids=["coherent_information", "covariant_capacity", "one_shot_optimize"],
)
@pytest.mark.parametrize("base", [1.0, 0.5])
def test_channel_entropies_need_base_above_one(quantity, base):
    with pytest.raises(ValueError, match="base must exceed 1"):
        quantity(td_channel(TDParams(2, 0.1)), base)


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


def test_entropies_build_no_log_matrix(monkeypatch, rng):
    # Only the gradient needs the adjoint maps of the log matrices.
    def refuse(*args):
        raise AssertionError("entropy-only caller built a log matrix")

    monkeypatch.setattr(capacity, "apply_adjoint", refuse)
    monkeypatch.setattr(capacity, "_log_matrix", refuse)
    c = td_complement_qubit(-0.3)
    assert np.isfinite(coherent_information(c, random_state(rng, 2)))
    assert np.isfinite(covariant_capacity(c).value)
    assert np.isfinite(von_neumann_entropy(random_state(rng, 3)))


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
    cfg = OptimizerConfig(seed=5, restarts=4)
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
    cfg = OptimizerConfig(seed=9, restarts=6)
    for t in (-0.6, 0.2):
        c = td_complement_qubit(t)
        npt.assert_allclose(
            one_shot_optimize(c, cfg).value, covariant_capacity(c).value, atol=1e-6
        )


def test_one_shot_rejects_large_input():
    with pytest.raises(ValueError):
        one_shot_optimize(Channel(KrausSet(5, 5, (np.eye(5),))), OptimizerConfig(seed=0))


@pytest.mark.parametrize("restarts", [0, -3])
def test_optimizer_config_rejects_fewer_than_one_start(restarts):
    with pytest.raises(ValueError, match="restarts"):
        OptimizerConfig(seed=0, restarts=restarts)


def test_one_shot_optimize_is_pinned():
    """Inside the degradable region the Frank-Wolfe gap at I/2 is already
    below tolerance: one gradient evaluation, and the covariant value bit
    for bit."""
    c = td_complement_qubit(-0.55)
    r = one_shot_optimize(c, OptimizerConfig(seed=0, restarts=1))
    assert r.value == covariant_capacity(c).value
    assert np.array_equal(r.input_state, np.eye(2) / 2)


# (d_in, d_out, Kraus operators) of the random channels the gradient is checked on
GRADIENT_SHAPES = [(2, 3, 3), (3, 2, 3)]


def hermitian(rng, d):
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (X + X.conj().T) / 2


@pytest.mark.parametrize("shape", GRADIENT_SHAPES)
def test_adjoint_identity(rng, shape):
    c = random_channel(rng, *shape)
    for M in (c.superop, complement(c).superop):
        for _ in range(3):
            rho, X = random_state(rng, M.d_in), hermitian(rng, M.d_out)
            lhs = np.trace(X @ apply(M, rho))
            rhs = np.trace(apply_adjoint(M, X) @ rho)
            assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("base", [2.0, 3.0])
@pytest.mark.parametrize("shape", GRADIENT_SHAPES)
def test_gradient_matches_central_difference(rng, shape, base):
    c = random_channel(rng, *shape)
    comp, d, eps = complement(c), shape[0], 1e-5
    for _ in range(3):
        rho = random_state(rng, d)
        H = hermitian(rng, d)
        H -= np.trace(H) / d * np.eye(d)  # stay on unit trace
        value, G = capacity._coherent_information_gradient(c, comp, rho, base)
        assert value == pytest.approx(coherent_information(c, rho, base), abs=1e-12)
        fd = (
            coherent_information(c, rho + eps * H, base)
            - coherent_information(c, rho - eps * H, base)
        ) / (2 * eps)
        analytic = np.trace(G @ H).real
        assert abs(fd - analytic) <= 1e-6 * abs(analytic)


@pytest.mark.parametrize("base", [2.0, 3.0])
@pytest.mark.parametrize("shape", GRADIENT_SHAPES)
def test_ascent_never_ends_below_its_start(rng, shape, base):
    c = random_channel(rng, *shape)
    comp, d = complement(c), shape[0]

    def neg_ic(rho):
        value, grad = capacity._coherent_information_gradient(c, comp, rho, base)
        return -value, -grad

    for max_iters in (1, 3, 200):
        x0 = random_state(rng, d)
        res = capacity.minimize(neg_ic, x0, max_iters)
        assert res.nit <= max_iters and res.nfev == res.nit + 1
        assert -res.fun >= coherent_information(c, x0, base)
        assert -res.fun == pytest.approx(coherent_information(c, res.x, base), abs=1e-12)


@pytest.mark.parametrize("t", [-0.4, 0.15])
def test_one_shot_qutrit_td_complement_is_the_closed_form(t):
    c = complement(td_channel(TDParams(3, t)))
    r = one_shot_optimize(c, OptimizerConfig(seed=0, restarts=1), base=3.0)
    assert abs(r.value - td_complement_capacity(3, t).value) <= 1e-9


def test_one_shot_restarts_escape_a_non_concave_mixed_input():
    """At t = -0.8 the qubit TD complement is not degradable, and I/2 is a
    stationary point that is not the maximum: one start stays there, the
    default restarts reach the value Nelder-Mead found."""
    c = td_complement_qubit(-0.8)
    one_start = one_shot_optimize(c, OptimizerConfig(seed=7, restarts=1))
    assert one_start.value == covariant_capacity(c).value
    assert one_shot_optimize(c, OptimizerConfig(seed=7)).value >= 0.002793880946 - 1e-9


# Haar-random 3 -> 2 channels (random_channel(default_rng(seed), 3, 2, 2))
# whose optimum lies away from I/3 and from pure states, with the value
# Nelder-Mead reached from OptimizerConfig(seed=0, restarts=4).
NELDER_MEAD_3_TO_2 = [(16, 0.7537336907047971), (10, 0.32838218242291384)]


@pytest.mark.parametrize("seed, nelder_mead", NELDER_MEAD_3_TO_2)
def test_one_shot_random_channel_reaches_nelder_mead(monkeypatch, seed, nelder_mead):
    steps, ascend = [], capacity.minimize

    def counted(*args):
        res = ascend(*args)
        steps.append(res.nit)
        return res

    monkeypatch.setattr(capacity, "minimize", counted)
    c = random_channel(np.random.default_rng(seed), 3, 2, 2)
    r = one_shot_optimize(c, OptimizerConfig(seed=0, restarts=4))
    assert r.value >= nelder_mead - 1e-8
    assert r.value == coherent_information(c, r.input_state)
    # The optimum has rank 2; the eigenvalue floor lets every start settle
    # well before its cap of 200 * 3**2 steps.
    assert len(steps) == 4 and max(steps) < 600


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


def test_traced_decide_counts_one_solve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    t = importlib.import_module("tracer").Tracer()
    t.install()
    try:
        decide(Query(td_channel(TDParams(3, -0.45)), Mode.ANTIDEGRADABLE))
    finally:
        t.uninstall()
    assert t.calls["linalg.pseudoinverse"] == 1
    assert t.calls["degradability.kernel_family"] == 1
