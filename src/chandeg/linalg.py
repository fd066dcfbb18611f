"""Dense linear-algebra kernel: pseudoinverse, rank, kernels, PSD rule.

All matrix flattening in this package is row-major, ``A.reshape(-1)``.  Every
tolerance-sensitive operation reads a :class:`Tolerance`, passed in or
``DEFAULT_TOL``, so that rank decisions, PSD checks and residual tests stay
consistent across modules.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerance:
    """Numeric thresholds used throughout.

    Each is relative and must be finite and strictly between 0 and 1.

    rank_tol
        Singular-value cutoff, relative to the largest singular value.
    psd_tol
        Eigenvalue floor for positivity checks, relative to the trace.
    residual_tol
        Frobenius-norm bound for composition/identity residuals, relative to
        max(1, norm of the target).
    """

    rank_tol: float = 1e-10
    psd_tol: float = 1e-9
    residual_tol: float = 1e-9

    def __post_init__(self):
        for name in ("rank_tol", "psd_tol", "residual_tol"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must be finite and strictly between 0 and 1")

    @property
    def tp_tol(self):
        """Bound on ||Tr_B R - I|| and ||R - R^H|| for a certificate's Choi matrix."""
        return 1e3 * self.residual_tol


DEFAULT_TOL = Tolerance()


def _rank(s, tol: Tolerance) -> int:
    """Number of singular values s (descending) above rank_tol relative to s[0]."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_tol * s[0]))


def numeric_rank(A, tol: Tolerance = DEFAULT_TOL):
    """Number of singular values above rank_tol relative to the largest one."""
    A = np.atleast_2d(np.asarray(A))
    return _rank(np.linalg.svd(A, compute_uv=False), tol)


def pseudoinverse(A, tol: Tolerance = DEFAULT_TOL):
    """(Moore-Penrose pseudoinverse, row space) of A from one thin SVD,
    truncated at rank_tol.

    The row space is returned as orthonormal rows, one per singular value
    kept, so that ``I - V^H V`` projects onto the null space of A.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    rank = _rank(s, tol)
    s_inv = np.zeros_like(s)
    s_inv[:rank] = 1.0 / s[:rank]
    return (Vh.conj().T * s_inv) @ U.conj().T, Vh[:rank]


def kernel_basis(A, tol: Tolerance = DEFAULT_TOL):
    """Orthonormal basis of the null space, as a list of vectors.

    Size of the returned list equals cols - numeric_rank(A).
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    _, s, Vh = np.linalg.svd(A)
    return [Vh[i].conj() for i in range(_rank(s, tol), A.shape[1])]


def psd_floor(H, tol: Tolerance = DEFAULT_TOL) -> float:
    """Smallest eigenvalue a PSD test accepts: -psd_tol * max(|trace|, 1).

    The one PSD rule of the package: every positivity test compares against
    it, and ``-psd_floor`` is the cut below which an eigenvalue counts as zero.
    """
    return -tol.psd_tol * max(abs(float(np.trace(H).real)), 1.0)


def hermitian_part(H):
    """(H + H^dag) / 2 of a square complex array, as a new array with the same
    bytes as that expression.  It is built in the one new buffer, by an
    assignment of H^T and in-place operations on contiguous arrays: a numpy
    ufunc on a transposed view allocates a hidden buffer of up to 8192
    elements."""
    A = np.empty(H.shape, dtype=complex)
    A[...] = H.T
    np.conjugate(A, out=A)
    A += H
    A /= 2.0
    return A


def hermitian_eigs(H):
    """Eigendecomposition of the Hermitian part (H + H^dag)/2 of a square matrix.

    Returns (eigenvalues ascending, eigenvectors as columns).
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    return np.linalg.eigh(hermitian_part(H))
