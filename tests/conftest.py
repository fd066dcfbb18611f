import json
from pathlib import Path

import numpy as np
import pytest

from chandeg.channel import Channel, ChoiMatrix, KrausSet, apply
from chandeg.linalg import DEFAULT_TOL


def random_state(rng, d):
    """Random full-rank density matrix (normalized Gram matrix)."""
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    G = X @ X.conj().T
    return G / np.trace(G)


def haar_isometry(rng, rows, cols):
    """Haar-distributed isometry (rows >= cols); a unitary when rows == cols."""
    G = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    Q, R = np.linalg.qr(G)
    # fix the gauge so Q is Haar distributed
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_channel(rng, d_in, d_out, d_env):
    """Random channel from a Haar-distributed Stinespring isometry."""
    if d_out * d_env < d_in:
        raise ValueError("need d_out * d_env >= d_in for an isometry")
    blocks = haar_isometry(rng, d_out * d_env, d_in).reshape(d_env, d_out, d_in)
    return Channel(KrausSet(d_in, d_out, tuple(blocks[e] for e in range(d_env))))


def kernel_directions(fam):
    """The directions kron(k_i, e_j) of a KernelFamily, as vectors in the
    order (i, j): the k_i are the null-space columns of a complete QR of
    fam.rowspace^H, orthonormal, and e_j runs over the base's columns."""
    rank = fam.rowspace.shape[0]
    K = np.linalg.qr(fam.rowspace.conj().T, mode="complete")[0][:, rank:]
    E = np.eye(fam.base.matrix.shape[1])
    return [np.kron(k, e) for k in K.T for e in E]


def apply_choi(R: ChoiMatrix, rho) -> np.ndarray:
    """Apply a channel via its Choi matrix: Tr_A[(rho^T (x) I_B) R]."""
    r = np.asarray(rho, dtype=complex)
    R4 = R.matrix.reshape(R.d_in, R.d_out, R.d_in, R.d_out)
    return np.einsum("mk,mlkn->ln", r, R4)


def mixed_symmetry_map(alpha: float, beta: float, d: int):
    """Positive map rho -> (1/d) G (I (x) rho) G^dag with
    G = (alpha+beta) P_sym + (alpha-beta) P_anti on C^d (x) C^d.

    Returns a function acting on d x d matrices.  The output has unit trace
    exactly when alpha^2 + alpha*beta + beta^2 = 1 (d = 2).
    """
    n = d * d
    swap = np.zeros((n, n))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    p_sym = (np.eye(n) + swap) / 2
    p_anti = (np.eye(n) - swap) / 2
    G = (alpha + beta) * p_sym + (alpha - beta) * p_anti

    def apply_map(rho):
        rho = np.asarray(rho, dtype=complex)
        big = G @ np.kron(np.eye(d), rho) @ G.conj().T
        return big / d

    return apply_map


def antidegrading_candidate_matrix(t: float) -> np.ndarray:
    """The paper's closed-form pseudoinverse candidate for the qubit
    antidegrading map.

    16x4 superoperator mapping the 4-dimensional environment back to the
    2-dimensional output; equals pinv(complement superop) @ channel superop.
    """
    s = np.sqrt(max(-3.0 * t * t - 2.0 * t + 1.0, 0.0))
    den = 2.0 * (t - 1.0) * (3.0 * t * t + 1.0)
    A = np.zeros((16, 4))
    A[0, 0] = (3 * t**3 + t**2 + t - 1) / den
    A[0, 3] = (3 * t**3 - t**2 + t + 1) / (-6 * t**3 + 6 * t**2 - 2 * t + 2)
    A[1, 1] = t / (np.sqrt(2) * (1 - t))
    A[3, 1] = t * s / (np.sqrt(2) * (1 - t**2))
    A[4, 2] = t / (np.sqrt(2) * (1 - t))
    A[5, 0] = (t + 1) / (6 * t**2 + 2)
    A[5, 3] = (t + 1) / (6 * t**2 + 2)
    A[6, 1] = t / (np.sqrt(2) * (1 - t))
    A[7, 0] = t * s / (2 - 2 * t**2)
    A[7, 3] = t * s / (2 * (t**2 - 1))
    A[9, 2] = t / (np.sqrt(2) * (1 - t))
    A[10, 0] = (3 * t**3 - t**2 + t + 1) / (-6 * t**3 + 6 * t**2 - 2 * t + 2)
    A[10, 3] = (3 * t**3 + t**2 + t - 1) / den
    A[11, 2] = t * s / (np.sqrt(2) * (t**2 - 1))
    A[12, 2] = t * s / (np.sqrt(2) * (1 - t**2))
    A[13, 0] = t * s / (2 - 2 * t**2)
    A[13, 3] = t * s / (2 * (t**2 - 1))
    A[14, 1] = t * s / (np.sqrt(2) * (t**2 - 1))
    A[15, 0] = (1 - 3 * t) / (6 * t**2 + 2)
    A[15, 3] = (1 - 3 * t) / (6 * t**2 + 2)
    return A


def candidate_choi_eigenvalues(t: float):
    """The paper's three distinct Choi eigenvalues of the qubit antidegrading
    candidate, as closed forms (lam1, lam2, lam3).

    Singular at t = -1 (the complement's superoperator loses rank there);
    the square-root argument is clipped at 0 near t = 1/3 where the two
    branch eigenvalues merge.
    """
    den1 = 2.0 * (t - 1.0) * (3.0 * t * t + 1.0)
    lam1 = (-3.0 * t**3 + t**2 - t - 1.0) / den1
    disc = -18.0 * t**6 - 6.0 * t**5 + t**4 - 8.0 * t**3 - 2.0 * t + 1.0
    root = np.sqrt(max(disc, 0.0))
    den23 = 2.0 * (t - 1.0) * (t + 1.0) * (3.0 * t * t + 1.0)
    num = 3.0 * t**4 + 2.0 * t**3 + 2.0 * t**2 + 2.0 * t - 1.0
    lam2 = (num + 2.0 * t * root) / den23
    lam3 = (num - 2.0 * t * root) / den23
    return lam1, lam2, lam3


def is_unital(c):
    """True when the channel maps I/d_in to I/d_out, within the default residual_tol."""
    out = apply(c.superop, np.eye(c.d_in) / c.d_in)
    return bool(np.linalg.norm(out - np.eye(c.d_out) / c.d_out) <= DEFAULT_TOL.residual_tol)


def fixture_certificate_matrix():
    """The 16 x 4 superoperator of the stored antidegrading certificate for
    the qubit TD channel at t = -2/3, decoded with plain complex(re, im)."""
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    doc = json.loads((fixtures / "antidegrading_certificate_qubit_td.json").read_text())
    return np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
