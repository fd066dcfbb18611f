"""Entropic quantities: von Neumann entropy, coherent information, and the
closed-form capacities of the transpose-depolarizing complements.

For channels covariant enough that the maximally mixed input is optimal, the
single-shot coherent information at I/d is already the quantum capacity; the
library computes it generically through the complement and also ships the
closed forms for the qubit (base-2) and qutrit (base-3) cases.

``one_shot_optimize`` maximizes the coherent information over input states by
matrix-exponentiated-gradient ascent (Tsuda, Rätsch & Warmuth, JMLR 6
(2005)): each step moves to the state proportional to ``exp(log rho + eta G)``
with ``G`` the analytic gradient, so iterates stay positive definite with unit
trace.  Where the coherent information is concave in the input, which holds
for degradable channels (Devetak & Shor, CMP 256 (2005)), the ascent reaches
the global maximum; elsewhere it reaches a stationary point.
"""

from dataclasses import dataclass

import numpy as np

from .channel import Channel, apply, apply_adjoint, complement
from .linalg import hermitian_part, psd_floor
from .zoo import in_range, known_antidegradable_range, require_in_range, td_cp_range


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

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


def _ln(base: float) -> float:
    """ln(base) for an entropy base, which must exceed 1."""
    if base <= 1.0:
        raise ValueError(f"entropy base must exceed 1, got {base}")
    return np.log(base)


def _spectrum(m):
    """(H(m) in nats, eigenvalues, eigenvectors, cut) from one
    eigendecomposition of m's Hermitian part.  Eigenvalues at or below the
    cut ``-psd_floor(m)`` count as zero: they are left out of the entropy
    (0 log 0 = 0, no renormalization)."""
    w, v = np.linalg.eigh(hermitian_part(m))
    cut = -psd_floor(m)
    kept = w[w > cut]
    return -float(np.sum(kept * np.log(kept))), w, v, cut


def _log_matrix(w, v, floor):
    """log of the Hermitian matrix with eigenpairs (w, v), eigenvalues floored at floor."""
    return (v * np.log(np.maximum(w, floor))) @ v.conj().T


def von_neumann_entropy(rho, base: float = 2.0) -> float:
    """H(rho) = -sum lambda_i log_base lambda_i, with 0 log 0 = 0."""
    return float(_spectrum(np.asarray(rho, dtype=complex))[0] / _ln(base))


def coherent_information(c: Channel, rho, base: float = 2.0) -> float:
    """I_c(rho) = H(c(rho)) - H(complement(c)(rho)).

    Independent of the complement representative (only spectra enter).
    """
    comp = complement(c)
    ln_b = _ln(base)
    h = _spectrum(apply(c.superop, rho))[0]
    h_env = _spectrum(apply(comp.superop, rho))[0]
    return float((h - h_env) / ln_b)


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
    """Closed-form capacity of the transpose-depolarizing complement: its
    coherent information at I/d, H(complement(I/d)) - 1 in base d.

    The spectrum of complement(I/d) is the TD Choi spectrum divided by d:
    (1 + (d-1)t)/d^2 with multiplicity d(d+1)/2 and (1 - (d+1)t)/d^2 with
    multiplicity d(d-1)/2.  Only d = 2 (proven on t in [-2/3, 1/3]) and
    d = 3 (numerical-evidence status on [-1/2, 1/4]) are offered.
    """
    if d not in (2, 3):
        raise ValueError(f"closed forms available for d in {{2, 3}}, got {d}")
    require_in_range("t", t, *td_cp_range(d), d)
    base = float(d)
    probs = [
        ((1.0 + (d - 1) * t) / d**2, d * (d + 1) // 2),
        ((1.0 - (d + 1) * t) / d**2, d * (d - 1) // 2),
    ]
    value = -sum(mult * p * np.log(p) / np.log(base) for p, mult in probs if p > 0) - 1.0
    lo, hi, range_status = known_antidegradable_range(d)
    status = "PROVEN" if range_status == "proven" and in_range(t, lo, hi) else "NUMERICAL_EVIDENCE"
    return CapacityResult(value=float(value), base=base, method="covariant-closed-form", status=status)


# Matrix-exponentiated-gradient constants.  They are fixed, not options.
_FIRST_STEP = 1.0  # step size eta at the start of every ascent
_STEP_GROWTH = 1.25  # eta grows by this factor after each accepted step
_GAP_TOL = 1e-10  # converged once the Frank-Wolfe gap is this small
_GAIN_TOL = 1e-14  # converged once a step moves the value by less than this
_EIG_FLOOR = 1e-15  # smallest eigenvalue an iterate keeps
_ITERS_PER_DIM2 = 200  # one_shot_optimize's ascents stop after this many steps times d**2


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray  # the final state
    fun: float  # the objective at x
    nfev: int  # evaluations of the objective and its gradient
    nit: int  # steps tried


def minimize(fun, x0, max_iters: int) -> MinimizeResult:
    """Minimize ``fun`` over density matrices by matrix-exponentiated gradient
    steps (Tsuda, Rätsch & Warmuth, JMLR 6 (2005)).

    ``fun(rho)`` returns the value and its gradient, the Hermitian matrix
    ``D`` with ``df = Tr(D drho)``.  A step moves to the state proportional to
    ``exp(log rho - eta D)``; a step that raises the value is rejected and
    halves eta, an accepted one grows eta by 1.25.  Iterates keep their
    eigenvalues at or above 1e-15, which lets them approach an optimum on the
    boundary quickly.  The descent stops when the Frank-Wolfe gap
    ``Tr(rho D) - lambda_min(D)`` is at most 1e-10 (where ``fun`` is convex,
    the gap bounds the distance to the optimum), when a step moves the value
    by less than 1e-14, or after ``max_iters`` steps.  ``x0`` must have full
    rank; it is returned as is when it already meets the gap test.
    """
    log_x = _log_matrix(*np.linalg.eigh(x0), _EIG_FLOOR)
    x = x0
    value, grad = fun(x)
    nfev, nit, eta = 1, 0, _FIRST_STEP
    while nit < max_iters:
        if np.vdot(grad, x).real - np.linalg.eigvalsh(grad)[0] <= _GAP_TOL:
            break
        nit += 1
        w, v = np.linalg.eigh(log_x - eta * grad)
        p = np.exp(w - w[-1])
        p = np.maximum(p / p.sum(), _EIG_FLOOR)
        p /= p.sum()
        trial = (v * p) @ v.conj().T
        trial_value, trial_grad = fun(trial)
        nfev += 1
        gain = value - trial_value
        if gain >= 0:
            x, value, grad, log_x = trial, trial_value, trial_grad, _log_matrix(p, v, _EIG_FLOOR)
            eta *= _STEP_GROWTH
        else:
            eta /= 2
        if abs(gain) < _GAIN_TOL:
            break
    return MinimizeResult(x=x, fun=float(value), nfev=nfev, nit=nit)


def _coherent_information_gradient(c: Channel, comp: Channel, rho, base: float):
    """I_c(rho) and its gradient G, the Hermitian matrix with dI_c = Tr(G drho):

        G = (comp^dag(log comp(rho)) - c^dag(log c(rho))) / ln(base).

    The identity terms of the entropies' gradients cancel, since both
    adjoints are unital.
    """
    ln_b = _ln(base)
    h, *eig = _spectrum(apply(c.superop, rho))
    h_env, *eig_env = _spectrum(apply(comp.superop, rho))
    adj = apply_adjoint(c.superop, _log_matrix(*eig))
    adj_env = apply_adjoint(comp.superop, _log_matrix(*eig_env))
    return (h - h_env) / ln_b, (adj_env - adj) / ln_b


def one_shot_optimize(c: Channel, cfg: OptimizerConfig, base: float = 2.0) -> CapacityResult:
    """Lower bound on the one-shot coherent information by seeded multistart
    matrix-exponentiated-gradient ascent over input states (Tsuda, Rätsch &
    Warmuth, JMLR 6 (2005)): ``minimize`` steps to the state proportional to
    ``exp(log rho + eta G)``, with G the analytic gradient of the coherent
    information.

    The first start is the maximally mixed state I/d, the other
    ``cfg.restarts - 1`` are seeded random full-rank states, and each ascent
    runs at most ``200 * d**2`` steps.  The result is never below
    the value at I/d, and it is the coherent information of the returned
    state.  It is the global maximum where the coherent information is
    concave in the input, which holds for degradable channels (Devetak &
    Shor, CMP 256 (2005)); there a covariant channel stops at I/d after one
    gradient evaluation.  Elsewhere each start ends at a stationary point: the
    qubit TD complement at t = -0.8, covariant but not degradable, stays at
    I/d with ``restarts=1`` although other inputs do better.
    """
    if c.d_in > 4:
        raise ValueError("one-shot optimizer limited to input dimension <= 4")
    d = c.d_in
    rng = np.random.default_rng(cfg.seed)
    comp = complement(c)

    def neg_ic(rho):
        value, grad = _coherent_information_gradient(c, comp, rho, base)
        return -value, -grad

    starts = [np.eye(d) / d]
    for _ in range(cfg.restarts - 1):
        a, b = rng.standard_normal((2, d, d))
        X = a + 1j * b
        G = X @ X.conj().T
        starts.append(G / np.trace(G).real)

    best_val, best_state = -np.inf, np.eye(d) / d
    for x0 in starts:
        res = minimize(neg_ic, x0, _ITERS_PER_DIM2 * d * d)
        if -res.fun > best_val:
            best_val, best_state = -res.fun, res.x
    return CapacityResult(
        value=best_val,
        base=base,
        method="optimized",
        status="NUMERICAL_EVIDENCE",
        input_state=best_state,
    )
