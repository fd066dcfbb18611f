"""Concrete channel families and their parameter ranges.

Contains the qudit transpose-depolarizing and depolarizing channels, the
qubit transpose-depolarizing complement (the complement of the closed-form
transpose-depolarizing Kraus set), the asymmetric-cloner parametrization and
the t-intervals where the transpose-depolarizing channel is known
antidegradable.  The paper's closed forms for the qubit antidegrading
candidate, and the mixed-symmetry map, are test oracles in tests/conftest.py.
"""

from collections import namedtuple
from dataclasses import dataclass

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

    The cloner is realized as the qubit TD complement at
    t = p(1-p)/(1-p+p^2), twice the product of its two amplitudes.
    """

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"asymmetry p must lie in [0, 1], got {self.p}")

    @property
    def t(self) -> float:
        p = self.p
        return p * (1.0 - p) / (1.0 - p + p * p)


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
    # (sign of the (j, i) entry, Choi eigenvalue, offset of the first j from i)
    for sign, lam, first in ((1.0, lam_sym, 0), (-1.0, lam_anti, 1)):
        for i in reversed(range(d)):
            for j in reversed(range(i + first, d)):
                v = np.zeros((d, d), dtype=complex)
                if i == j:
                    v[i, i] = 1.0
                else:
                    v[i, j] = 1.0 / np.sqrt(2)
                    v[j, i] = sign / np.sqrt(2)
                ops.append(np.sqrt(max(lam, 0.0)) * v.T)
    return KrausSet(d, d, tuple(ops))


def td_channel(params: TDParams) -> Channel:
    """Qudit transpose-depolarizing channel rho -> t*rho^T + (1-t)*I/d."""
    return Channel(_td_kraus(params.d, params.t))


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
    return Channel(KrausSet(d, d, tuple(ops)))


def td_complement_qubit(t: float) -> Channel:
    """The qubit transpose-depolarizing complement as a channel C^2 -> C^4:
    the complement of the closed-form Kraus set of td_channel(TDParams(2, t))."""
    return complement(td_channel(TDParams(2, t)))


AntidegradableRange = namedtuple("AntidegradableRange", ["lo", "hi", "status"])


def known_antidegradable_range(d: int) -> AntidegradableRange:
    """Largest t-interval where the TD channel is known antidegradable."""
    if d == 2:
        return AntidegradableRange(-2.0 / 3.0, 1.0 / 3.0, "proven")
    if d == 3:
        return AntidegradableRange(*td_cp_range(3), "numerical")
    raise Unsupported(f"no antidegradable range recorded for d={d}")
