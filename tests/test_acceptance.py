"""End-to-end acceptance checks, one per headline guarantee of the package."""

import time
from pathlib import Path

import numpy as np
import numpy.testing as npt

from chandeg.channel import (
    Channel,
    KrausSet,
    apply,
    apply_choi,
    choi_to_superop,
    complement,
    superop_to_choi,
)
from chandeg.capacity import covariant_capacity, td_complement_capacity
from chandeg.degradability import (
    Mode,
    Query,
    decide,
    kernel_family,
    verify_certificate,
)
from chandeg.linalg import numeric_rank, row_flatten
from chandeg.zoo import (
    DepolParams,
    TDParams,
    antidegrading_candidate_matrix,
    candidate_choi_eigenvalues,
    depolarizing,
    td_channel,
)
from chandeg.channel import SuperOp

from conftest import fixture_certificate_matrix, random_channel, random_state


def _antidegrading_candidate(t):
    chan = td_channel(TDParams(2, t))
    comp = complement(chan)
    fam = kernel_family(comp.superop, chan.superop)
    assert fam.consistent
    return fam.base


def test_candidate_choi_eigenvalues_closed_form_grid():
    """Spectrum of the pseudoinverse antidegrading candidate matches the three
    closed-form eigenvalue branches on a 50-point grid, within 1e-8, in < 5 s."""
    start = time.perf_counter()
    for t in np.linspace(-1.0 + 1e-3, 1.0 / 3.0, 50):
        cand = _antidegrading_candidate(float(t))
        w = np.sort(np.linalg.eigvalsh(superop_to_choi(cand).matrix))
        lam1, lam2, lam3 = candidate_choi_eigenvalues(float(t))
        for lam in (lam1, lam2, lam3):
            assert np.min(np.abs(w - lam)) <= 1e-8, (t, lam, w)
    assert time.perf_counter() - start < 5.0


def test_candidate_matrix_closed_form_entrywise():
    """Pseudoinverse candidate equals the closed-form 16x4 matrix entrywise."""
    for t in (-2.0 / 3.0, -0.25, 0.25):
        cand = _antidegrading_candidate(t)
        npt.assert_allclose(cand.matrix, antidegrading_candidate_matrix(t), atol=1e-8)


def test_shipped_certificate_properties():
    """The constant antidegrading certificate solves the boundary composition
    equation with a PSD Choi matrix carrying eigenvalue 2."""
    t = -2.0 / 3.0
    chan = td_channel(TDParams(2, t))
    comp = complement(chan)
    cert = SuperOp(4, 2, fixture_certificate_matrix())
    resid = np.linalg.norm(comp.superop.matrix @ cert.matrix - chan.superop.matrix)
    assert resid <= 1e-9
    w = np.linalg.eigvalsh(superop_to_choi(cert).matrix)
    assert w[0] >= -1e-12
    npt.assert_allclose(np.sum(w), 4.0, atol=1e-12)
    assert np.min(np.abs(w - 2.0)) <= 1e-12


def test_candidate_choi_traces():
    """Full and partial traces of the candidate's Choi matrix follow the
    closed forms at 10 sampled parameters."""
    for t in np.linspace(-0.95, 0.3, 10):
        R = superop_to_choi(_antidegrading_candidate(float(t))).matrix
        denom = 1.0 + 3.0 * t * t
        npt.assert_allclose(np.trace(R).real, 4.0 / denom, atol=1e-9)
        tr_b = np.einsum("klml->km", R.reshape(4, 2, 4, 2))
        expected = np.diag([1 + t, 1 + t, 1 + t, 1 - 3 * t]) / denom
        npt.assert_allclose(tr_b, expected, atol=1e-9)


def test_capacity_point_values_and_grid_agreement():
    """Closed-form capacities hit the exact special values and track the
    coherent-information computation through the complement."""
    assert abs(td_complement_capacity(2, 1.0 / 3.0).value - (np.log2(3.0) - 1.0)) <= 1e-10
    assert abs(td_complement_capacity(2, 0.0).value - 1.0) <= 1e-10
    assert abs(td_complement_capacity(3, 0.25).value - np.log(2.0) / np.log(3.0)) <= 1e-10
    for d, lo, hi, base in ((2, -0.95, 1.0 / 3.0, 2.0), (3, -0.5, 0.25, 3.0)):
        for t in np.linspace(lo, hi, 20):
            chan = td_channel(TDParams(d, float(t)))
            env = complement(chan)
            got = covariant_capacity(env, base=base).value
            assert abs(got - td_complement_capacity(d, float(t)).value) <= 1e-9


def test_antidegradable_region_recovery():
    """The search produces independently verified antidegrading
    certificates across the full qubit and qutrit parameter ranges."""
    start = time.perf_counter()
    cases = [(2, np.linspace(-2.0 / 3.0, 1.0 / 3.0, 15)), (3, np.linspace(-0.5, 0.25, 10))]
    for d, grid in cases:
        for t in grid:
            chan = td_channel(TDParams(d, float(t)))
            q = Query(chan, Mode.ANTIDEGRADABLE)
            v = decide(q)
            assert v.status == "YES", (d, t, v.status)
            ok, report = verify_certificate(chan, Mode.ANTIDEGRADABLE, v.certificate)
            assert ok, (d, t, report)
    assert time.perf_counter() - start < 600.0


def test_solution_uniqueness_kernel_dimensions(rng):
    """Kernel of (channel superop) x I is trivial exactly when the output
    dimension does not exceed the input dimension, for full-rank channels."""
    d_tgt_sq = 4
    narrow = wide = 0
    while narrow < 200 or wide < 200:
        d_a = int(rng.integers(2, 4))
        d_b = int(rng.integers(2, 4))
        c = random_channel(rng, d_a, d_b, d_a * d_b)
        M = c.superop.matrix
        if numeric_rank(M) != min(d_a * d_a, d_b * d_b):
            continue  # non-generic draw
        K = np.kron(M, np.eye(d_tgt_sq))
        kernel_dim = K.shape[1] - numeric_rank(K)
        if d_b <= d_a:
            if narrow >= 200:
                continue
            narrow += 1
            assert kernel_dim == 0
        else:
            if wide >= 200:
                continue
            wide += 1
            assert kernel_dim == d_tgt_sq * (d_b * d_b - d_a * d_a)


def test_representation_coherence(rng):
    """Round trips between representations, agreement of the two application
    paths, flattening identities, and rank behavior over random instances."""
    for _ in range(100):
        d_in, d_out = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        c = random_channel(rng, d_in, d_out, int(rng.integers(2, 5)))
        rho = random_state(rng, d_in)

        npt.assert_allclose(
            choi_to_superop(superop_to_choi(c.superop)).matrix,
            c.superop.matrix,
            atol=1e-9,
        )
        npt.assert_allclose(apply(c.superop, rho), apply_choi(c.choi, rho), atol=1e-9)

        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        C = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        npt.assert_allclose(
            row_flatten((A @ B @ C).T), np.kron(C.T, A) @ row_flatten(B.T), atol=1e-9
        )
        npt.assert_allclose(
            np.trace(A.conj().T @ B), np.vdot(row_flatten(A), row_flatten(B)), atol=1e-9
        )

        assert numeric_rank(np.kron(A, B)) == numeric_rank(A) * numeric_rank(B)
        assert numeric_rank(c.superop.matrix.T) == numeric_rank(c.superop.matrix)
        assert numeric_rank(A @ B) <= min(numeric_rank(A), numeric_rank(B))


def test_td_equals_rotated_depolarizing(rng):
    """Qubit transpose-depolarizing action equals sigma_Y-conjugated
    depolarizing with the sign-flipped parameter, entrywise."""
    sy = np.array([[0, -1j], [1j, 0]])
    for t in np.linspace(-1.0 / 3.0, 1.0 / 3.0, 15):
        td = td_channel(TDParams(2, float(t)))
        dep = depolarizing(DepolParams(2, float(-t)))
        for _ in range(3):
            rho = random_state(rng, 2)
            rotated = sy @ apply(dep.superop, rho) @ sy
            npt.assert_allclose(rotated, apply(td.superop, rho), atol=1e-10)
