import numpy as np
import numpy.testing as npt
import pytest

from chandeg.linalg import (
    DEFAULT_TOL,
    Tolerance,
    hermitian_eigs,
    kernel_basis,
    numeric_rank,
    pseudoinverse,
)


def test_kron_identity():
    npt.assert_array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_product_identity(rng):
    # col[(A B C)^T] = (C^T (x) A) col[B^T] for conformable triples
    for _ in range(50):
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = (A @ B @ C).T.reshape(-1)
        rhs = np.kron(C.T, A) @ B.T.reshape(-1)
        npt.assert_allclose(lhs, rhs, atol=1e-12)


def test_kron_rank_product(rng):
    for _ in range(20):
        A = np.outer(rng.normal(size=3), rng.normal(size=3))  # rank 1
        B = rng.normal(size=(3, 3))  # rank 3 generically
        assert numeric_rank(np.kron(A, B)) == numeric_rank(A) * numeric_rank(B)


def test_inner_product_identity(rng):
    for _ in range(50):
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        npt.assert_allclose(
            np.trace(A.conj().T @ B), np.vdot(A.reshape(-1), B.reshape(-1)), atol=1e-12
        )


def test_pseudoinverse_diagonal():
    npt.assert_allclose(pseudoinverse(np.diag([2.0, 0.0]))[0], np.diag([0.5, 0.0]), atol=1e-14)


def test_pseudoinverse_unitary(rng):
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    npt.assert_allclose(pseudoinverse(Q)[0], Q.conj().T, atol=1e-12)


def test_pseudoinverse_moore_penrose(rng):
    for _ in range(20):
        A = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
        Ap = pseudoinverse(A)[0]
        npt.assert_allclose(A @ Ap @ A, A, atol=1e-10)
        npt.assert_allclose(Ap @ A @ Ap, Ap, atol=1e-10)
        npt.assert_allclose(A @ Ap, (A @ Ap).conj().T, atol=1e-10)
        npt.assert_allclose(A @ Ap, np.eye(4), atol=1e-10)  # full row rank
        assert numeric_rank(Ap) == numeric_rank(A)


def test_pseudoinverse_zero_matrix():
    npt.assert_array_equal(pseudoinverse(np.zeros((2, 3)))[0], np.zeros((3, 2)))


def test_numeric_rank_entangled_projector():
    # sum_{i,j in {0,1}} |ii><jj| has rank 1; its partial transpose rank 4
    C = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            C[i, j] = 1.0
    assert numeric_rank(C) == 1
    pt = C.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    assert numeric_rank(pt) == 4
    assert numeric_rank(np.eye(5)) == 5
    assert numeric_rank(np.zeros((3, 3))) == 0


def test_numeric_rank_transpose_and_products(rng):
    for _ in range(20):
        A = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        B = rng.normal(size=(5, 2))
        assert numeric_rank(A.T) == numeric_rank(A)
        assert numeric_rank(A @ B) <= min(numeric_rank(A), numeric_rank(B))


def test_kernel_basis_cases(rng):
    assert kernel_basis(np.eye(3)) == []
    (v,) = kernel_basis(np.diag([1.0, 0.0]))
    npt.assert_allclose(np.abs(v), [0, 1], atol=1e-14)
    for _ in range(20):
        A = rng.normal(size=(3, 6))
        basis = kernel_basis(A)
        assert len(basis) + numeric_rank(A) == 6
        for b in basis:
            assert np.linalg.norm(A @ b) <= DEFAULT_TOL.residual_tol


def test_hermitian_eigs_basic():
    w, v = hermitian_eigs(np.diag([3.0, 1.0, 2.0]))
    npt.assert_allclose(w, [1, 2, 3])
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1
    w, _ = hermitian_eigs(swap)
    npt.assert_allclose(w, [-1, 1, 1, 1], atol=1e-12)


def test_hermitian_eigs_reconstruction(rng):
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = X + X.conj().T
    w, v = hermitian_eigs(H)
    npt.assert_allclose((v * w) @ v.conj().T, H, atol=1e-10)


def test_hermitian_eigs_symmetrizes_its_input():
    # A non-Hermitian input is decomposed through its Hermitian part.
    w, _ = hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))
    npt.assert_allclose(w, [-0.5, 0.5], atol=1e-15)


def test_tolerance_validation():
    # Every tolerance is relative, so 1 or more accepts anything.
    for name in ("rank_tol", "psd_tol", "residual_tol"):
        for bad in (0.0, -1e-9, 1.0, 1e300, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=name):
                Tolerance(**{name: bad})
