"""Dense linear-algebra kernel: flattening maps, pseudoinverse, rank, kernels.

All matrix flattening in this package is row-major.  Every tolerance-sensitive
operation takes an explicit :class:`Tolerance` so that rank decisions, PSD
checks and residual tests stay consistent across modules.
"""

from dataclasses import dataclass

import numpy as np


class NotHermitian(ValueError):
    """Raised when a matrix expected to be Hermitian is not."""


@dataclass(frozen=True)
class Tolerance:
    """Numeric thresholds used throughout.

    rank_tol
        Singular-value cutoff, relative to the largest singular value.
    psd_tol
        Eigenvalue floor for positivity checks, relative to the trace.
    residual_tol
        Frobenius-norm bound for composition/identity residuals.
    """

    rank_tol: float = 1e-10
    psd_tol: float = 1e-9
    residual_tol: float = 1e-9

    def __post_init__(self):
        for name in ("rank_tol", "psd_tol", "residual_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def tp_tol(self):
        """Bound on ||Tr_B R - I|| and ||R - R^H|| for a certificate's Choi matrix."""
        return 1e3 * self.residual_tol


DEFAULT_TOL = Tolerance()


def row_flatten(A):
    """Flatten a matrix row by row into a 1-d vector."""
    A = np.asarray(A)
    return A.reshape(-1)


def col_flatten(A):
    """Same components as row_flatten, regarded as a column vector."""
    return row_flatten(A)


def unflatten(v, rows, cols):
    """Inverse of row_flatten for given target shape."""
    v = np.asarray(v)
    if v.size != rows * cols:
        raise ValueError(f"cannot unflatten length-{v.size} vector to {rows}x{cols}")
    return v.reshape(rows, cols)


def kron(A, B):
    """Kronecker product (thin alias kept for a single conventions surface)."""
    return np.kron(np.asarray(A), np.asarray(B))


def numeric_rank(A, tol: Tolerance = DEFAULT_TOL):
    """Number of singular values above rank_tol relative to the largest one."""
    A = np.atleast_2d(np.asarray(A))
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_tol * s[0]))


def pseudoinverse(A, tol: Tolerance = DEFAULT_TOL):
    """Moore-Penrose pseudoinverse via SVD with rank_tol truncation."""
    return svd_pinv(A, tol)[0]


def svd_pinv(A, tol: Tolerance = DEFAULT_TOL):
    """(pseudoinverse, numeric rank, row space) of A from one thin SVD.

    The row space is returned as ``rank`` orthonormal rows, so that
    ``I - V^H V`` projects onto the null space of A.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return A.conj().T, 0, Vh[:0]
    keep = s > tol.rank_tol * s[0]
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    rank = int(np.count_nonzero(keep))
    return (Vh.conj().T * s_inv) @ U.conj().T, rank, Vh[:rank]


def kernel_basis(A, tol: Tolerance = DEFAULT_TOL):
    """Orthonormal basis of the null space, as a list of vectors.

    Size of the returned list equals cols - numeric_rank(A).
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    _, s, Vh = np.linalg.svd(A)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > tol.rank_tol * s[0]))
    return [Vh[i].conj() for i in range(rank, A.shape[1])]


def psd_floor(H, tol: Tolerance = DEFAULT_TOL) -> float:
    """Smallest eigenvalue a PSD test accepts: -psd_tol * max(|trace|, 1)."""
    return -tol.psd_tol * max(abs(float(np.trace(H).real)), 1.0)


def hermitian_eigs(H, tol: Tolerance = DEFAULT_TOL, symmetrize=True):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns).  The input is
    symmetrized as (H + H†)/2 before solving; with ``symmetrize=False`` a
    Hermiticity violation beyond residual_tol raises NotHermitian instead.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    dev = np.linalg.norm(H - H.conj().T)
    if not symmetrize and dev > tol.residual_tol:
        raise NotHermitian(f"Hermiticity deviation {dev:.3e} exceeds tolerance")
    return np.linalg.eigh((H + H.conj().T) / 2.0)
