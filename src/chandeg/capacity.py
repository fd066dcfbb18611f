"""Entropic quantities: von Neumann entropy, coherent information, and the
closed-form capacities of the transpose-depolarizing complements.

For channels covariant enough that the maximally mixed input is optimal, the
single-shot coherent information at I/d is already the quantum capacity; the
library computes it generically through the complement and also ships the
closed forms for the qubit (base-2) and qutrit (base-3) cases.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channel import Channel, apply, complement
from .linalg import DEFAULT_TOL, Tolerance
from .zoo import OutOfCPRange, known_antidegradable_range


@dataclass(frozen=True)
class CapacityResult:
    value: float
    base: float
    method: str  # covariant-closed-form / covariant-mixed-input / optimized
    status: str  # PROVEN / NUMERICAL_EVIDENCE
    input_state: np.ndarray | None = None


@dataclass(frozen=True)
class OptimizerConfig:
    seed: int
    restarts: int = 16
    max_iters: int = 200


def von_neumann_entropy(rho, base: float = 2.0, tol: Tolerance = DEFAULT_TOL) -> float:
    """H(rho) = -sum lambda_i log_base lambda_i, with 0 log 0 = 0.

    Eigenvalues below psd_tol * trace are clipped to zero (no renormalization).
    """
    if base <= 1.0:
        raise ValueError(f"entropy base must exceed 1, got {base}")
    m = rho.matrix if hasattr(rho, "matrix") else np.asarray(rho, dtype=complex)
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    cut = tol.psd_tol * max(abs(float(np.trace(m).real)), 1.0)
    w = w[w > cut]
    return float(-np.sum(w * np.log(w)) / np.log(base))


def coherent_information(c: Channel, rho, base: float = 2.0) -> float:
    """I_c(rho) = H(c(rho)) - H(complement(c)(rho)).

    Independent of the complement representative (only spectra enter).
    """
    return _coherent_information(c, complement(c), rho, base)


def _coherent_information(c: Channel, comp: Channel, rho, base: float) -> float:
    out = apply(c.superop, rho)
    env = apply(comp.superop, rho)
    return von_neumann_entropy(out, base) - von_neumann_entropy(env, base)


def covariant_capacity(c: Channel, base: float = 2.0) -> CapacityResult:
    """Coherent information at the maximally mixed input.

    Valid as a capacity only for channels where covariance makes I/d the
    maximizer and degradability single-letterizes the formula; the caller
    asserts both (the library does not verify group covariance).
    """
    rho = np.eye(c.d_in) / c.d_in
    value = coherent_information(c, rho, base)
    return CapacityResult(
        value=value,
        base=base,
        method="covariant-mixed-input",
        status="NUMERICAL_EVIDENCE",
        input_state=rho,
    )


def td_complement_capacity(d: int, t: float) -> CapacityResult:
    """Closed-form capacity of the transpose-depolarizing complement.

    d=2 (base 2): -3((1+t)/4)log2((1+t)/4) - ((1-3t)/4)log2((1-3t)/4) - 1,
    proven on t in [-2/3, 1/3].
    d=3 (base 3): -2((1+2t)/3)log3((1+2t)/9) - ((1-4t)/3)log3((1-4t)/9) - 1,
    numerical-evidence status on [-1/2, 1/4].
    """
    if d == 2:
        if not -1.0 - 1e-12 <= t <= 1.0 / 3.0 + 1e-12:
            raise OutOfCPRange(f"t={t} outside the CP range [-1, 1/3]")
        base = 2.0
        probs = [((1.0 + t) / 4.0, 3), ((1.0 - 3.0 * t) / 4.0, 1)]
    elif d == 3:
        if not -0.5 - 1e-12 <= t <= 0.25 + 1e-12:
            raise OutOfCPRange(f"t={t} outside the CP range [-1/2, 1/4]")
        base = 3.0
        probs = [((1.0 + 2.0 * t) / 9.0, 6), ((1.0 - 4.0 * t) / 9.0, 3)]
    else:
        raise ValueError(f"closed forms available for d in {{2, 3}}, got {d}")
    value = 0.0
    for p, mult in probs:
        if p > 0:
            value -= mult * p * np.log(p) / np.log(base)
    value -= 1.0
    lo, hi, range_status = known_antidegradable_range(d)
    status = (
        "PROVEN"
        if range_status == "proven" and lo - 1e-12 <= t <= hi + 1e-12
        else "NUMERICAL_EVIDENCE"
    )
    return CapacityResult(value=float(value), base=base, method="covariant-closed-form", status=status)


def _state_from_params(x, d):
    X = x[: d * d].reshape(d, d) + 1j * x[d * d :].reshape(d, d)
    G = X @ X.conj().T
    tr = np.trace(G).real
    if tr < 1e-12:
        return np.eye(d) / d
    return G / tr


def one_shot_optimize(c: Channel, cfg: OptimizerConfig, base: float = 2.0) -> CapacityResult:
    """Lower bound on the one-shot coherent information by seeded multistart
    optimization over input states (Gram parametrization, local refinement).

    The maximally mixed state is always among the starting points, so the
    result is never below the covariant value.
    """
    if c.d_in > 4:
        raise ValueError("one-shot optimizer limited to input dimension <= 4")
    d = c.d_in
    rng = np.random.default_rng(cfg.seed)
    comp = complement(c)

    def neg_ic(x):
        return -_coherent_information(c, comp, _state_from_params(x, d), base)

    starts = [np.concatenate([np.eye(d).reshape(-1), np.zeros(d * d)])]
    for _ in range(cfg.restarts - 1):
        starts.append(rng.standard_normal(2 * d * d))

    best_val, best_state = -np.inf, np.eye(d) / d
    for x0 in starts:
        res = minimize(
            neg_ic, x0, method="Nelder-Mead",
            options={"maxiter": cfg.max_iters * d * d, "xatol": 1e-10, "fatol": 1e-12},
        )
        if -res.fun > best_val:
            best_val = -res.fun
            best_state = _state_from_params(res.x, d)
    mixed = _coherent_information(c, comp, np.eye(d) / d, base)
    if mixed > best_val:
        best_val, best_state = mixed, np.eye(d) / d
    return CapacityResult(
        value=float(best_val),
        base=base,
        method="optimized",
        status="NUMERICAL_EVIDENCE",
        input_state=best_state,
    )
