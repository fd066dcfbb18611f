import numpy as np
import numpy.testing as npt
import pytest

from chandeg.channel import apply, complement, is_tp
from chandeg.zoo import (
    ClonerParams,
    DepolParams,
    OutOfCPRange,
    TDParams,
    Unsupported,
    depolarizing,
    known_antidegradable_range,
    td_channel,
    td_complement_qubit,
    td_cp_range,
)

from conftest import (
    antidegrading_candidate_matrix,
    candidate_choi_eigenvalues,
    fixture_certificate_matrix,
    is_unital,
    mixed_symmetry_map,
    random_state,
)


def test_td_params_range():
    TDParams(2, -1.0)
    TDParams(2, 1 / 3)
    with pytest.raises(OutOfCPRange):
        TDParams(2, 0.4)
    with pytest.raises(OutOfCPRange):
        TDParams(3, -0.6)
    with pytest.raises(ValueError):
        TDParams(1, 0.0)


def test_depol_params_range():
    DepolParams(2, 1.0)
    DepolParams(3, -1 / 8)
    with pytest.raises(OutOfCPRange):
        DepolParams(2, 1.1)
    with pytest.raises(OutOfCPRange):
        DepolParams(2, -0.4)


def test_td_full_depolarization(rng):
    c = td_channel(TDParams(3, 0.0))
    for _ in range(5):
        npt.assert_allclose(apply(c.superop, random_state(rng, 3)), np.eye(3) / 3, atol=1e-12)


def test_td_boundary_zero_eigenvalue():
    R = td_channel(TDParams(2, 1 / 3)).choi.matrix
    assert np.min(np.linalg.eigvalsh(R)) < 1e-12


def test_td_action_and_unitality(rng):
    for d, t in ((2, -0.7), (2, 0.25), (3, -0.4), (3, 0.2)):
        c = td_channel(TDParams(d, t))
        rho = random_state(rng, d)
        npt.assert_allclose(apply(c.superop, rho), t * rho.T + (1 - t) / d * np.eye(d), atol=1e-12)
        assert is_unital(c)
        ok, _ = is_tp(c.choi)
        assert ok


def test_depolarizing_action(rng):
    ident = depolarizing(DepolParams(2, 1.0))
    rho = random_state(rng, 2)
    npt.assert_allclose(apply(ident.superop, rho), rho, atol=1e-12)
    dep = depolarizing(DepolParams(3, 0.0))
    npt.assert_allclose(apply(dep.superop, random_state(rng, 3)), np.eye(3) / 3, atol=1e-12)
    mid = depolarizing(DepolParams(2, -0.2))
    npt.assert_allclose(apply(mid.superop, rho), -0.2 * rho + 1.2 / 2 * np.eye(2), atol=1e-12)


def test_td_equals_rotated_depolarizing(rng):
    # sigma_Y . D_{s=-t}(rho) . sigma_Y = T_t(rho) for qubits, entrywise
    sy = np.array([[0, -1j], [1j, 0]])
    for t in np.linspace(-1 / 3, 1 / 3, 15):
        td = td_channel(TDParams(2, float(t)))
        dep = depolarizing(DepolParams(2, float(-t)))
        for _ in range(3):
            rho = random_state(rng, 2)
            rotated = sy @ apply(dep.superop, rho) @ sy
            npt.assert_allclose(rotated, apply(td.superop, rho), atol=1e-12)


def qubit_td_complement_apply(rho, t):
    """Environment output of the qubit transpose-depolarizing channel.

    Explicit 4x4 matrix in the entries of rho, linearly extended (the
    constant-looking diagonal entries carry a factor tr(rho)).
    """
    rho = np.asarray(rho, dtype=complex)
    r00, r01, r10, r11 = rho[0, 0], rho[0, 1], rho[1, 0], rho[1, 1]
    tr = r00 + r11
    a = 1.0 + t
    s = np.sqrt(max(1.0 - 3.0 * t, 0.0)) * np.sqrt(max(1.0 + t, 0.0))
    q = 2.0 * np.sqrt(2.0)
    return np.array(
        [
            [0.5 * a * r11, a / q * r10, 0.0, s / q * r10],
            [a / q * r01, 0.25 * a * tr, a / q * r10, 0.25 * s * (r00 - r11)],
            [0.0, a / q * r01, 0.5 * a * r00, -s / q * r01],
            [s / q * r01, 0.25 * s * (r00 - r11), -s / q * r10, 0.25 * (1 - 3 * t) * tr],
        ],
        dtype=complex,
    )


def test_td_kraus_vanishes_exactly_at_the_range_ends():
    # d(d+1)/2 symmetric operators come first, then d(d-1)/2 antisymmetric
    # ones; at t = lo the symmetric weight is 0, at t = hi the antisymmetric.
    for d in range(2, 9):
        n_sym = d * (d + 1) // 2
        lo, hi = td_cp_range(d)
        ops = td_channel(TDParams(d, lo)).kraus.operators
        assert all(not K.any() for K in ops[:n_sym])
        ops = td_channel(TDParams(d, hi)).kraus.operators
        assert all(not K.any() for K in ops[n_sym:])


def test_td_complement_qubit_matches_explicit_matrix(rng):
    for t in (-0.9, -2 / 3, -0.2, 0.3):
        c = td_complement_qubit(t)
        rho = random_state(rng, 2)
        npt.assert_allclose(apply(c.superop, rho), qubit_td_complement_apply(rho, t), atol=1e-9)
        assert np.isclose(np.trace(apply(c.superop, rho)), 1.0)


def test_td_complement_qubit_mixed_input():
    for t in (-0.5, 0.0, 0.2):
        out = apply(td_complement_qubit(t).superop, np.eye(2) / 2)
        npt.assert_allclose(
            out, np.diag([(1 + t) / 4] * 3 + [(1 - 3 * t) / 4]), atol=1e-12
        )


def test_td_complement_qubit_equals_complement_route(rng):
    # the qubit complement is built from the closed-form TD Kraus set, so the
    # two routes agree bit for bit in every representation
    for t in (-0.6, -0.1, 0.25):
        direct = td_complement_qubit(t)
        via_complement = complement(td_channel(TDParams(2, t)))
        npt.assert_array_equal(direct.kraus.operators, via_complement.kraus.operators)
        npt.assert_array_equal(direct.choi.matrix, via_complement.choi.matrix)
        npt.assert_array_equal(direct.superop.matrix, via_complement.superop.matrix)


def test_td_complement_qubit_range():
    with pytest.raises(OutOfCPRange):
        td_complement_qubit(0.5)


def test_mixed_symmetry_trace_condition(rng):
    # unit output trace exactly on the ellipse a^2 + a*b + b^2 = 1
    rho = random_state(rng, 2)
    on = mixed_symmetry_map(1.0, 0.0, 2)
    npt.assert_allclose(np.trace(on(rho)), 1.0, atol=1e-12)
    a, b = 0.9, 0.3
    out = mixed_symmetry_map(a, b, 2)(rho)
    npt.assert_allclose(np.trace(out), a * a + a * b + b * b, atol=1e-12)


def test_mixed_symmetry_symmetric_support(rng):
    sig = mixed_symmetry_map(0.7, 0.7, 2)(random_state(rng, 2))
    anti = np.array([0, 1, -1, 0]) / np.sqrt(2)
    npt.assert_allclose(sig @ anti, 0, atol=1e-12)


def test_mixed_symmetry_reproduces_complement_spectrum(rng):
    # on the ellipse with alpha*beta = t the map is the complement up to a
    # basis change: output spectra coincide
    for t in (0.1, 0.25, 1 / 3):
        apb = np.sqrt(1 + t)
        amb = np.sqrt(1 - 3 * t)
        a, b = (apb + amb) / 2, (apb - amb) / 2
        npt.assert_allclose(a * b, t, atol=1e-12)
        npt.assert_allclose(a * a + a * b + b * b, 1.0, atol=1e-12)
        rho = random_state(rng, 2)
        sig = mixed_symmetry_map(a, b, 2)(rho)
        ref = apply(td_complement_qubit(t).superop, rho)
        npt.assert_allclose(
            np.sort(np.linalg.eigvalsh(sig)), np.sort(np.linalg.eigvalsh(ref)), atol=1e-9
        )


def test_cloner_params():
    assert np.isclose(ClonerParams(0.5).t, 1 / 3)
    assert np.isclose(ClonerParams(0.0).t, 0.0)
    assert np.isclose(ClonerParams(1.0).t, 0.0)
    assert np.isclose(ClonerParams(1 / 3).t, 2 / 7)
    p = 0.3
    norm = np.sqrt(2 * (1 - p + p * p))
    alpha, beta = p / norm, (1 - p) / norm
    assert np.isclose(2 * alpha * beta, ClonerParams(p).t)
    # the amplitude normalization puts (alpha, beta) at half the ellipse value
    assert np.isclose(alpha**2 + alpha * beta + beta**2, 0.5)
    with pytest.raises(ValueError):
        ClonerParams(1.5)


def test_known_antidegradable_range():
    lo, hi, status = known_antidegradable_range(2)
    assert (lo, hi, status) == (-2 / 3, 1 / 3, "proven")
    lo3, hi3, status3 = known_antidegradable_range(3)
    assert (lo3, hi3, status3) == (-0.5, 0.25, "numerical")
    # the entanglement-breaking sub-interval lies inside the qutrit range
    assert lo3 <= -1 / 8 and 1 / 4 <= hi3
    with pytest.raises(Unsupported):
        known_antidegradable_range(4)


def test_closed_form_candidate_sanity():
    A = antidegrading_candidate_matrix(0.0)
    assert A.shape == (16, 4)
    lam1, lam2, lam3 = candidate_choi_eigenvalues(0.0)
    npt.assert_allclose([lam1, lam2, lam3], [0.5, 0.5, 0.5], atol=1e-12)
    cert = fixture_certificate_matrix()
    assert cert.shape == (16, 4)
