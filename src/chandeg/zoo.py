"""Concrete channel families and their closed-form reference data.

Contains the qudit transpose-depolarizing and depolarizing channels, the
qubit transpose-depolarizing complement (the complement of the closed-form
transpose-depolarizing Kraus set), the asymmetric-cloner parametrization, the
mixed-symmetry positive map, and closed-form expressions for the antidegrading
candidate of the qubit transpose-depolarizing channel.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .channel import Channel, KrausSet, complement


class OutOfCPRange(ValueError):
    """Parameter lies outside the channel's completely positive range."""


class Unsupported(ValueError):
    """Requested dimension is not covered by the library."""


# Absolute slack of every parameter-range test, so that a range end computed
# in floating point, such as t = 1/(d+1), is inside its range.
RANGE_SLACK = 1e-12


def td_cp_range(d: int):
    """(lo, hi) = (-1/(d-1), 1/(d+1)): the t for which the transpose-
    depolarizing channel is completely positive."""
    return -1.0 / (d - 1), 1.0 / (d + 1)


def in_range(x: float, lo: float, hi: float) -> bool:
    """lo <= x <= hi, with RANGE_SLACK at both ends."""
    return lo - RANGE_SLACK <= x <= hi + RANGE_SLACK


def require_in_range(name: str, x: float, lo: float, hi: float, d: int):
    """Raise OutOfCPRange unless x lies in the CP range [lo, hi] (see in_range)."""
    if not in_range(x, lo, hi):
        raise OutOfCPRange(f"{name}={x} outside CP range [{lo:.6g}, {hi:.6g}] for d={d}")


@dataclass(frozen=True)
class TDParams:
    """Transpose-depolarizing parameters: rho -> t*rho^T + (1-t)*I/d."""

    d: int
    t: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        require_in_range("t", self.t, *td_cp_range(self.d), self.d)


@dataclass(frozen=True)
class DepolParams:
    """Depolarizing parameters: rho -> s*rho + (1-s)*I/d."""

    d: int
    s: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        require_in_range("s", self.s, -1.0 / (self.d**2 - 1), 1.0, self.d)


@dataclass(frozen=True)
class ClonerParams:
    """Optimal universal asymmetric 1->1+1 cloner, asymmetry p in [0, 1].

    alpha and beta are the nonnegative amplitude roots (signs are a gauge
    choice; only the product enters t = 2*alpha*beta = p(1-p)/(1-p+p^2)).
    """

    p: float
    alpha: float = field(init=False)
    beta: float = field(init=False)
    t: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"asymmetry p must lie in [0, 1], got {self.p}")
        p = self.p
        norm = 2.0 * (1.0 - p + p * p)
        object.__setattr__(self, "alpha", np.sqrt(p * p / norm))
        object.__setattr__(self, "beta", np.sqrt((1.0 - p) ** 2 / norm))
        object.__setattr__(self, "t", p * (1.0 - p) / (1.0 - p + p * p))


def _td_kraus(d, t):
    """Fixed Kraus representative of the transpose-depolarizing channel.

    Built from the symmetric/antisymmetric eigenbasis of its Choi matrix
    t*SWAP + ((1-t)/d)*I, with a deterministic enumeration (symmetric pair
    states in descending index order, then antisymmetric).  The environment
    dimension is d^2 for every t in the CP range; boundary values keep a zero
    operator so dimensions never jump.
    """
    # Factored so that the weight vanishing at a range end is exactly 0.0.
    lam_sym = (1.0 + (d - 1) * t) / d
    lam_anti = (1.0 - (d + 1) * t) / d
    ops = []
    for i in reversed(range(d)):
        for j in reversed(range(i, d)):
            v = np.zeros((d, d), dtype=complex)
            if i == j:
                v[i, i] = 1.0
            else:
                v[i, j] = v[j, i] = 1.0 / np.sqrt(2)
            ops.append(np.sqrt(max(lam_sym, 0.0)) * v.T)
    for i in reversed(range(d)):
        for j in reversed(range(i + 1, d)):
            v = np.zeros((d, d), dtype=complex)
            v[i, j] = 1.0 / np.sqrt(2)
            v[j, i] = -1.0 / np.sqrt(2)
            ops.append(np.sqrt(max(lam_anti, 0.0)) * v.T)
    return KrausSet(d, d, tuple(ops))


def td_channel(params: TDParams) -> Channel:
    """Qudit transpose-depolarizing channel rho -> t*rho^T + (1-t)*I/d."""
    return Channel(_td_kraus(params.d, params.t), label=f"td:d={params.d},t={params.t!r}")


def _weyl_ops(d):
    """Shift/clock unitaries X^a Z^b in lexicographic (a, b) order."""
    omega = np.exp(2j * np.pi / d)
    X = np.roll(np.eye(d), 1, axis=0)
    Z = np.diag(omega ** np.arange(d))
    out = []
    for a in range(d):
        for b in range(d):
            out.append(np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b))
    return out


def depolarizing(params: DepolParams) -> Channel:
    """Qudit depolarizing channel rho -> s*rho + (1-s)*I/d."""
    d, s = params.d, params.s
    w0 = s + (1.0 - s) / d**2
    w_rest = (1.0 - s) / d**2
    ops = []
    for idx, W in enumerate(_weyl_ops(d)):
        weight = w0 if idx == 0 else w_rest
        ops.append(np.sqrt(max(weight, 0.0)) * W)
    return Channel(KrausSet(d, d, tuple(ops)), label=f"depol:d={d},s={s!r}")


def td_complement_qubit(t: float) -> Channel:
    """The qubit transpose-depolarizing complement as a channel C^2 -> C^4:
    the complement of the closed-form Kraus set of td_channel(TDParams(2, t))."""
    kraus = complement(td_channel(TDParams(2, t))).kraus
    return Channel(kraus, label=f"td-comp:t={t!r}")


def mixed_symmetry_map(alpha: float, beta: float, d: int):
    """Positive map rho -> (1/d) G (I (x) rho) G^dag with
    G = (alpha+beta) P_sym + (alpha-beta) P_anti on C^d (x) C^d.

    Returns a function acting on d x d matrices.  The output has unit trace
    exactly when alpha^2 + alpha*beta + beta^2 = 1 (d = 2).
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
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


AntidegradableRange = namedtuple("AntidegradableRange", ["lo", "hi", "status"])


def known_antidegradable_range(d: int) -> AntidegradableRange:
    """Largest t-interval where the TD channel is known antidegradable."""
    if d == 2:
        return AntidegradableRange(-2.0 / 3.0, 1.0 / 3.0, "proven")
    if d == 3:
        return AntidegradableRange(*td_cp_range(3), "numerical")
    raise Unsupported(f"no antidegradable range recorded for d={d}")


def antidegrading_candidate_matrix(t: float) -> np.ndarray:
    """Closed-form pseudoinverse candidate for the qubit antidegrading map.

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
    """The three distinct Choi eigenvalues of the qubit antidegrading
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
