"""Degradability decision engine.

For a channel M with complement Mhat, each query mode reduces to a one-sided
matrix equation ``known @ D = target`` between superoperators:

* DEGRADABLE:            channel @ D = complement
* ANTIDEGRADABLE:        complement @ D = channel
* CONJ_DEGRADABLE:       channel @ D = complement @ C   (C = conjugation)
* CONJ_ANTIDEGRADABLE:   complement @ D = channel @ C

One SVD of the known matrix gives the pseudoinverse candidate
``D0 = pinv(known) @ target``; the solutions are ``D0 + K X`` with K spanning
the null space of known.  D0 is the unique solution exactly when the known
map's matrix has full rank and its output dimension does not exceed its input
dimension; only then can a candidate with negative Choi eigenvalues rule the
property out.  Otherwise the trace- and Hermiticity-preserving solutions form
an affine set A, and ``kernel_search`` decides whether A meets the PSD Choi
cone by alternating projections (Bauschke & Borwein, SIAM Review 38 (1996)).
"""

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

# The tracer in perfbench/ patches these names in this module, so they stay
# importable here although the engine itself no longer calls them.
from scipy.optimize import minimize  # noqa: F401

from .channel import (
    SCHEMA_VERSION,
    Channel,
    ChoiMatrix,
    SuperOp,
    choi_rank,
    choi_to_superop,
    complement,
    from_pairs,
    is_cp,
    is_ppt,
    is_tp,
    superop_to_choi,
    to_pairs,
)
from .linalg import (  # noqa: F401  (kernel_basis, pseudoinverse: see above)
    DEFAULT_TOL,
    Tolerance,
    hermitian_eigs,
    kernel_basis,
    numeric_rank,
    psd_floor,
    pseudoinverse,
    svd_pinv,
)

class Mode(str, Enum):
    DEGRADABLE = "degradable"
    ANTIDEGRADABLE = "antidegradable"
    CONJ_DEGRADABLE = "conj-degradable"
    CONJ_ANTIDEGRADABLE = "conj-antidegradable"


@dataclass(frozen=True)
class Query:
    channel: Channel
    mode: Mode


@dataclass(frozen=True)
class SearchConfig:
    """Feasibility-search configuration: ``max_iters`` bounds the iterations;
    the search is deterministic, ``seed`` and ``restarts`` are ignored."""

    seed: int
    restarts: int = 32
    max_iters: int = 2000
    tol: Tolerance = DEFAULT_TOL


@dataclass(frozen=True)
class Witness:
    """Proof that no CP map solves the system: a PSD Choi-space matrix Z,
    orthogonal to the directions of the trace-preserving solution set, with
    <Z, R> = margin < -psd_tol * trace(R) * Tr(Z) on that set (while
    <Z, R> >= 0 for every PSD R)."""

    choi: np.ndarray
    margin: float


@dataclass(frozen=True)
class Verdict:
    status: str  # YES / NO / INCONCLUSIVE
    mode: Mode
    candidate_choi_eigs: tuple
    unique: bool
    kernel_dim: int
    residual: float
    consistent: bool
    certificate: SuperOp | None = None
    witness: Witness | None = None


@dataclass(frozen=True)
class KernelFamily:
    """Least-squares solutions base + K X of known @ D = target; K spans the
    complement of ``rowspace`` (orthonormal rows), the null space of known."""

    base: SuperOp
    rowspace: np.ndarray = field(repr=False)
    residual: float
    consistent: bool

    @property
    def kernel_dim(self) -> int:
        rows, cols = self.base.matrix.shape
        return (rows - self.rowspace.shape[0]) * cols

    @cached_property
    def kernel(self) -> np.ndarray:
        """K, with orthonormal columns."""
        rank = self.rowspace.shape[0]
        return np.linalg.qr(self.rowspace.conj().T, mode="complete")[0][:, rank:]

    @property
    def basis(self):
        """The directions kron(k_i, e_j), each built when indexed."""
        return _Directions(self)

    def project(self, D):
        """The trace-preserving member nearest to D: D0 + K K^H D (with
        K K^H = I - V^H V), then the rank-one step onto D u = vec(I), u = vec(I).
        Hermitizing the Choi matrix commutes with it."""
        V = self.rowspace
        D = self.base.matrix + D - V.conj().T @ (V @ D)
        u = np.eye(self.base.d_out).reshape(-1)
        r = np.eye(self.base.d_in).reshape(-1) - D @ u
        r -= V.conj().T @ (V @ r)
        return D + np.outer(r, u) / self.base.d_out


class _Directions(Sequence):
    def __init__(self, family: KernelFamily):
        self._family = family

    def __len__(self):
        return self._family.kernel_dim

    def __getitem__(self, index):
        if not 0 <= index < len(self):
            raise IndexError(index)
        cols = self._family.base.matrix.shape[1]
        return np.kron(self._family.kernel[:, index // cols], np.eye(cols)[index % cols])


def swap_superop(d: int) -> SuperOp:
    """Superoperator of entrywise conjugation on Hermitian states.

    On a Hermitian rho, conjugation equals transposition; the right-acting
    matrix is the SWAP permutation C[k*d+mu, l*d+nu] = delta_{k,nu} delta_{mu,l},
    an involution that merely permutes superoperator columns.
    """
    C = np.zeros((d * d, d * d))
    for k in range(d):
        for mu in range(d):
            C[k * d + mu, mu * d + k] = 1.0
    return SuperOp(d, d, C)


def _solutions(known: SuperOp, target: SuperOp, tol: Tolerance) -> KernelFamily:
    """The least-squares family of known @ D = target, from one SVD of known;
    consistent when the least-squares residual vanishes."""
    if known.d_in != target.d_in:
        raise ValueError(
            f"known map input dim {known.d_in} != target input dim {target.d_in}"
        )
    pinv, _, rowspace = svd_pinv(known.matrix, tol)
    D = pinv @ target.matrix
    residual = float(np.linalg.norm(known.matrix @ D - target.matrix))
    scale = max(1.0, float(np.linalg.norm(target.matrix)))
    return KernelFamily(
        base=SuperOp(known.d_out, target.d_out, D),
        rowspace=rowspace,
        residual=residual,
        consistent=residual <= tol.residual_tol * scale,
    )


def candidate_map(known: SuperOp, target: SuperOp, tol: Tolerance = DEFAULT_TOL):
    """Least-squares candidate D = pinv(known) @ target: (D, consistent, residual)."""
    family = _solutions(known, target, tol)
    return family.base, family.consistent, family.residual


def uniqueness(d_a: int, d_b: int, rank_known: int) -> bool:
    """Whether the solution of known @ D = target is unique.

    d_a, d_b are the input/output dimensions of the known map.  Unique iff the
    known superoperator has full rank min(d_a^2, d_b^2) and d_b <= d_a; a
    rank-deficient known map always leaves a nontrivial solution family.
    """
    return rank_known == min(d_a**2, d_b**2) and d_b <= d_a


def kernel_family(known: SuperOp, target: SuperOp, tol: Tolerance = DEFAULT_TOL) -> KernelFamily:
    """All solutions of known @ D = target as base + null-space directions
    (the kernel of known (x) I is {k_i (x) e_j}: it is kept as known's row
    space, not as a list of directions)."""
    family = _solutions(known, target, tol)
    if not family.consistent:
        raise InconsistentSystem(
            f"composition equation unsolvable (residual {family.residual:.3e})"
        )
    return family


class InconsistentSystem(ValueError):
    """The composition equation has no solution at all."""


def _hermitian_choi(D, d_mid, d_tgt):
    R = superop_to_choi(SuperOp(d_mid, d_tgt, D)).matrix
    return (R + R.conj().T) / 2


def kernel_search(family: KernelFamily, cfg: SearchConfig):
    """Look for a CPTP member of a consistent family by alternating projections.

    From the trace-preserving projection of the base, each iteration takes the
    Hermitian Choi matrix R of a point of A (the trace- and Hermiticity-
    preserving solutions) and returns that point if R is PSD within psd_tol;
    else it clips R's negative eigenvalues (P) and projects back onto A (R').
    P - R' is orthogonal to A's directions, and so is I (they have zero
    trace), so Z = P - R' + mu I, mu = max(0, -lambda_min(P - R')), is PSD; it
    is returned as a Witness when <Z, R'> < psd_floor(R') * Tr(Z).

    Returns the certificate (SuperOp), a Witness, or None after ``max_iters``.
    """
    tol = cfg.tol
    d_mid, d_tgt = family.base.d_in, family.base.d_out
    R = _hermitian_choi(family.project(family.base.matrix), d_mid, d_tgt)
    for iteration in range(cfg.max_iters + 1):
        w, v = hermitian_eigs(R, tol)
        floor = psd_floor(R, tol)
        if w[0] >= floor:
            return choi_to_superop(ChoiMatrix(d_mid, d_tgt, R))
        if iteration == cfg.max_iters:
            return None
        P = (v * np.maximum(w, 0.0)) @ v.conj().T
        D = family.project(choi_to_superop(ChoiMatrix(d_mid, d_tgt, P)).matrix)
        R = _hermitian_choi(D, d_mid, d_tgt)
        # A witness costs a second eigendecomposition, so it is tried only
        # after iterations 1, 2, 4, 8, ... and the last; it converges with
        # the iterates, so a NO comes at most about twice as late.
        if iteration & (iteration + 1) and iteration + 1 < cfg.max_iters:
            continue
        Z = P - R
        margin = float(np.vdot(Z, R).real)
        if margin < 0.0:
            mu = max(0.0, -float(np.linalg.eigvalsh(Z)[0]))
            margin += mu * float(np.trace(R).real)
            Z += mu * np.eye(len(Z))
            if margin < floor * float(np.trace(Z).real):
                return Witness(choi=Z, margin=margin)
    return None


def _build_system(q: Query):
    """(known, target) superoperators for a query mode."""
    chan = q.channel
    comp = complement(chan)
    if q.mode == Mode.DEGRADABLE:
        known, target = chan.superop, comp.superop
    elif q.mode == Mode.ANTIDEGRADABLE:
        known, target = comp.superop, chan.superop
    elif q.mode == Mode.CONJ_DEGRADABLE:
        known = chan.superop
        target = SuperOp(
            comp.superop.d_in,
            comp.superop.d_out,
            comp.superop.matrix @ swap_superop(comp.superop.d_out).matrix,
        )
    elif q.mode == Mode.CONJ_ANTIDEGRADABLE:
        known = comp.superop
        target = SuperOp(
            chan.superop.d_in,
            chan.superop.d_out,
            chan.superop.matrix @ swap_superop(chan.superop.d_out).matrix,
        )
    else:
        raise ValueError(f"unknown mode {q.mode!r}")
    return known, target


def decide(q: Query, cfg: SearchConfig | None = None, search: bool = False) -> Verdict:
    """Tri-state decision for one degradability mode.

    NO is returned only with evidence: the system is inconsistent (no
    solution exists), the solution is unique and fails complete positivity,
    or the search found a Witness.  YES carries a CPTP certificate: the unique
    solution, the trace-preserving projection of a CP pseudoinverse
    candidate, or the search's point.  A non-unique system is otherwise
    INCONCLUSIVE.
    """
    if search and cfg is None:
        raise ValueError("kernel search requires an explicit SearchConfig")
    tol = cfg.tol if cfg is not None else DEFAULT_TOL
    known, target = _build_system(q)
    family = _solutions(known, target, tol)
    unique = uniqueness(known.d_in, known.d_out, family.rowspace.shape[0])
    R0 = superop_to_choi(family.base).matrix
    eigs, _ = hermitian_eigs(R0, tol)
    cand_cp = bool(eigs[0] >= psd_floor(R0, tol))

    found = None
    if not family.consistent:
        status = "NO"
    elif unique:
        status = "YES" if cand_cp else "NO"
        found = family.base if cand_cp else None
    elif search or cand_cp:
        # Without search only the starting point, the trace-preserving
        # projection of the candidate, is tried.
        found = kernel_search(family, cfg if search else SearchConfig(0, max_iters=0, tol=tol))
        status = (
            "NO" if isinstance(found, Witness) else "INCONCLUSIVE" if found is None else "YES"
        )
    else:
        status = "INCONCLUSIVE"
    return Verdict(
        status=status,
        mode=q.mode,
        candidate_choi_eigs=tuple(float(x) for x in eigs),
        unique=unique,
        kernel_dim=family.kernel_dim,
        residual=family.residual,
        consistent=family.consistent,
        certificate=found if isinstance(found, SuperOp) else None,
        witness=found if isinstance(found, Witness) else None,
    )


def verify_certificate(channel: Channel, mode: Mode, D: SuperOp, tol: Tolerance = DEFAULT_TOL):
    """Independent re-verification of a stored certificate.

    Checks the composition residual against the freshly rebuilt system and
    that the certificate is CPTP: its Choi matrix is Hermitian (within
    tp_tol) and PSD, and its output partial trace is the identity (within
    tp_tol).  Returns (ok, report dict).
    """
    known, target = _build_system(Query(channel, mode))
    if D.matrix.shape != (known.d_out**2, target.d_out**2):
        return False, {"error": "certificate dimensions do not match the query"}
    resid = float(np.linalg.norm(known.matrix @ D.matrix - target.matrix))
    scale = max(1.0, float(np.linalg.norm(target.matrix)))
    R = superop_to_choi(D)
    herm_dev = float(np.linalg.norm(R.matrix - R.matrix.conj().T))
    cp, min_eig = is_cp(R, tol)
    cp = cp and herm_dev <= tol.tp_tol
    tp, tp_dev = is_tp(R, tol)
    ok = resid <= tol.residual_tol * scale and cp and tp
    report = {
        "residual": resid,
        "choi_min_eigenvalue": min_eig,
        "choi_trace": float(np.trace(R.matrix).real),
        "hermiticity_deviation": herm_dev,
        "tp_deviation": tp_dev,
        "cp": bool(cp),
        "tp": bool(tp),
        "ok": bool(ok),
    }
    return ok, report


def ecd_screen(c: Channel, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Screen for channels that could be exclusively conjugate degradable.

    Rules out the possibility when d_B <= d_A, when the complement's Choi rank
    is at most max(d_A, d_E) (low-rank states are separable iff PPT, so
    conjugate degradability cannot outrun plain degradability there), or when
    d_A = d_E = 2 (no bound-entangled Choi matrix in 2 x n).  Also reports
    whether the complement's Choi matrix is PPT, a necessary condition for
    conjugate degradability of the channel.
    """
    comp = complement(c)
    d_a, d_b = c.d_in, c.d_out
    d_e = choi_rank(c, tol)
    comp_rank = numeric_rank(comp.choi.matrix, tol)
    reasons = []
    if d_b <= d_a:
        reasons.append("output dimension does not exceed input dimension")
    if comp_rank <= max(d_a, d_e):
        reasons.append("complement Choi rank in the separable-iff-PPT regime")
    if d_a == 2 and d_e == 2:
        reasons.append("2x2 input/environment: no bound-entangled Choi matrix")
    return {
        "hopeless": bool(reasons),
        "reasons": reasons,
        "d_in": d_a,
        "d_out": d_b,
        "choi_rank": d_e,
        "complement_choi_rank": comp_rank,
        "complement_ppt": bool(is_ppt(comp.choi, tol)),
    }


def superop_to_pairs(M: SuperOp):
    return to_pairs(M.matrix)


def superop_from_pairs(d_in, d_out, rows):
    return SuperOp(int(d_in), int(d_out), from_pairs(rows))


def verdict_to_dict(v: Verdict) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "status": v.status,
        "mode": v.mode.value,
        "unique": v.unique,
        "consistent": v.consistent,
        "kernel_dim": v.kernel_dim,
        "residual": v.residual,
        "candidate_choi_eigenvalues": list(v.candidate_choi_eigs),
    }
    if v.certificate is not None:
        doc["certificate"] = {
            "d_in": v.certificate.d_in,
            "d_out": v.certificate.d_out,
            "matrix": superop_to_pairs(v.certificate),
        }
    if v.witness is not None:
        doc["witness"] = {"margin": v.witness.margin, "choi": to_pairs(v.witness.choi)}
    return doc
