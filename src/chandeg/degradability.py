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
cone by alternating projections (Bauschke & Borwein, SIAM Review 38 (1996))
accelerated by FISTA momentum (Beck & Teboulle, SIAM J. Imaging Sci. 2
(2009)) with adaptive restart (O'Donoghue & Candes, Found. Comput. Math. 15
(2015)).  Every consistent system with more than one solution is searched.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

# Kept only because perfbench/ names them; nothing in src/ uses them:
# minimize, kernel_basis and candidate_map (patched here by tracer.PATCHES),
# KernelFamily.basis, KernelFamily.kernel and _Directions (tracer.stack_bytes),
# and SearchConfig.seed, SearchConfig.restarts and decide(search=)
# (workloads.build_search).  The change that frees them deletes this list.
from .capacity import minimize  # noqa: F401
from .channel import (
    SCHEMA_VERSION,
    Channel,
    ChoiMatrix,
    SuperOp,
    choi_rank,
    choi_to_superop,
    complement,
    is_cp,
    is_ppt,
    is_tp,
    superop_to_choi,
)
from .linalg import (  # noqa: F401  (kernel_basis: see above)
    DEFAULT_TOL,
    Tolerance,
    hermitian_eigs,
    hermitian_part,
    kernel_basis,
    numeric_rank,
    psd_floor,
    pseudoinverse,
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
    """Feasibility-search configuration: ``max_iters`` bounds the iterations
    of ``kernel_search``.  The search is deterministic: ``seed`` and
    ``restarts`` are ignored, and its momentum restarts by a fixed rule.
    They stay accepted because existing callers pass them."""

    seed: int = 0
    restarts: int = 32
    max_iters: int = 2000
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")


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
    complement of ``rowspace`` (orthonormal rows), the null space of known.
    ``kernel_family`` makes the row space read-only, so one family can be
    shared across threads."""

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

    def project_directions(self, X):
        """Overwrite the Choi matrix X (a C-contiguous complex array) with
        its orthogonal projection L onto the directions of A, and return it:
        L is K K^H D (I - u u^T / d_out) on the superoperator D of X,
        Hermitized, and exactly Hermitian.  A point of A minus L(X) stays in
        A.  It only reads the family.  Besides X it uses one reshuffled copy
        of X, and every elementwise ufunc acts on contiguous arrays or single
        columns: numpy allocates a hidden buffer of up to 8192 elements for
        one on a transposed or strided 2-d view."""
        if X.dtype != complex or not X.flags.c_contiguous:
            raise ValueError("project_directions overwrites a C-contiguous complex array")
        d_mid, d_tgt = self.base.d_in, self.base.d_out
        n = d_mid * d_tgt
        V = self.rowspace
        D = X.reshape(d_mid, d_tgt, d_mid, d_tgt).transpose(0, 2, 1, 3).copy()
        D = D.reshape(d_mid**2, d_tgt**2)
        shift = D[:, :: d_tgt + 1].sum(axis=1)  # the d_out columns where u is nonzero
        shift /= d_tgt
        for col in range(0, d_tgt**2, d_tgt + 1):
            D[:, col] -= shift
        Y = V @ D
        # K K^H = I - V^H V.  V^H Y is formed as conj(V^T conj(Y)), with Y
        # and then the product (in X's buffer) conjugated in place, so that
        # neither conj(V) nor the product is a new array and V is only read.
        np.conjugate(Y, out=Y)
        P = np.matmul(V.T, Y, out=X.reshape(D.shape))
        D -= np.conjugate(P, out=P)
        X.reshape(d_mid, d_tgt, d_mid, d_tgt)[...] = D.reshape(
            d_mid, d_mid, d_tgt, d_tgt
        ).transpose(0, 2, 1, 3)
        T = D.reshape(n, n)  # D is spent: its buffer takes conj(X^T)
        T[...] = X.T
        np.conjugate(T, out=T)
        X += T
        X *= 0.5
        return X


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


def _residual(known, D, target, tol: Tolerance):
    """(||known @ D - target||, whether it is at most residual_tol * max(1, ||target||))."""
    residual = float(np.linalg.norm(known @ D - target))
    return residual, residual <= tol.residual_tol * max(1.0, float(np.linalg.norm(target)))


def kernel_family(known: SuperOp, target: SuperOp, tol: Tolerance = DEFAULT_TOL) -> KernelFamily:
    """The least-squares solutions of known @ D = target, from one SVD of
    known; consistent when the least-squares residual vanishes.  The kernel
    of known (x) I is {k_i (x) e_j}: it is kept as known's row space, not as
    a list of directions."""
    if known.d_in != target.d_in:
        raise ValueError(
            f"known map input dim {known.d_in} != target input dim {target.d_in}"
        )
    pinv, rowspace = pseudoinverse(known.matrix, tol)
    rowspace.flags.writeable = False
    D = pinv @ target.matrix
    residual, consistent = _residual(known.matrix, D, target.matrix, tol)
    return KernelFamily(
        base=SuperOp(known.d_out, target.d_out, D),
        rowspace=rowspace,
        residual=residual,
        consistent=consistent,
    )


def candidate_map(known: SuperOp, target: SuperOp, tol: Tolerance = DEFAULT_TOL):
    """Least-squares candidate D = pinv(known) @ target: (D, consistent, residual)."""
    family = kernel_family(known, target, tol)
    return family.base, family.consistent, family.residual


def kernel_search(family: KernelFamily, cfg: SearchConfig):
    """Look for a CPTP member of a consistent family by accelerated
    alternating projections.

    From the trace-preserving projection of the base, each iteration takes the
    Hermitian Choi matrix R of a point of A (the trace- and Hermiticity-
    preserving solutions) and returns that point if R is PSD within psd_tol.
    Else it forms the plain step: P clips R's negative eigenvalues, and X is
    the point of A nearest to P.  With N = R - P and L the orthogonal
    projection onto A's directions, R - X = L(N), so only N is projected.
    Alternating projections are gradient descent with step 1 on
    f = dist(., PSD)^2 / 2 over A, so the next iterate adds FISTA momentum,
    R = X + ((t - 1) / t') (X - X_prev) with t' = (1 + sqrt(1 + 4 t^2)) / 2
    (Beck & Teboulle, SIAM J. Imaging Sci. 2 (2009)), and restarts it, t = 1
    and X_prev = X, whenever the gap ||R - P||^2 (the sum of the squared
    negative eigenvalues) rises (O'Donoghue & Candes, Found. Comput. Math. 15
    (2015)).  An affine combination of points of A stays in A.

    The witness test uses the plain pair (R, X) at the current iterate, so it
    does not depend on the path.  P - X = L(N) - N is orthogonal to A's
    directions, and so is I (they have zero trace), so Z = P - X + mu I,
    mu = max(0, -lambda_min(P - X)), is PSD; it is returned as a Witness when
    <Z, X> < psd_floor(X) * Tr(Z).

    Returns the certificate (SuperOp), a Witness, or None after ``max_iters``.
    """
    tol = cfg.tol
    d_mid, d_tgt = family.base.d_in, family.base.d_out
    R = superop_to_choi(SuperOp(d_mid, d_tgt, family.project(family.base.matrix))).matrix
    R = hermitian_part(R)
    # Every point of A has the trace of a TP map, so one floor serves all.
    floor = psd_floor(R, tol)
    X_prev = R.copy()
    t, last_gap = 1.0, np.inf
    for iteration in range(cfg.max_iters + 1):
        # R equals its Hermitian part: the start is Hermitized, and each step
        # adds Hermitian matrices with real weights, which keeps R_ij and
        # conj(R_ji) equal.  So R goes to eigh as it is.
        w, v = np.linalg.eigh(R)
        if w[0] >= floor:
            del v, X_prev
            return choi_to_superop(ChoiMatrix(d_mid, d_tgt, R))
        if iteration == cfg.max_iters:
            return None
        neg = int(np.searchsorted(w, 0.0))
        w = w[:neg]
        gap = float(w @ w)  # ||R - P||^2
        # Only the negative eigenpairs are kept, and N = R - P is projected
        # in place: Choi-sized arrays are spent as soon as they can be, to
        # bound peak memory.
        v = v[:, :neg].copy()
        LN = family.project_directions((v * w) @ v.conj().T)  # L(N) = R - X
        R -= LN  # X
        # A witness costs a second eigendecomposition, so it is tried only
        # after iterations 1, 2, 4, 8, ... and the last; it converges with
        # the iterates, so a NO comes at most about twice as late.
        if not iteration & (iteration + 1) or iteration + 1 == cfg.max_iters:
            # R - P again; v * w is formed before v is conjugated in place
            N = (v * w) @ np.conjugate(v, out=v).T
            Z = np.subtract(LN, N, out=N)  # P - X
            margin = float(np.vdot(Z, R).real)
            if margin < 0.0:
                mu = max(0.0, -float(np.linalg.eigvalsh(Z)[0]))
                margin += mu * float(np.trace(R).real)
                Z.flat[:: len(Z) + 1] += mu
                if margin < floor * float(np.trace(Z).real):
                    return Witness(choi=Z, margin=margin)
            del N, Z
        del v, LN
        if gap > last_gap:
            t = 1.0
        last_gap = gap
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        # In place: X_prev becomes X + beta (X - X_prev), the next iterate,
        # and R, which holds X, becomes X_prev.  At t = 1, beta = 0.
        X_prev -= R
        X_prev *= -(t - 1.0) / t_next
        X_prev += R
        R, X_prev = X_prev, R
        t = t_next


def _build_system(q: Query):
    """(known, target) superoperators for a query mode."""
    chan, comp = q.channel.superop, complement(q.channel).superop
    if q.mode in (Mode.DEGRADABLE, Mode.CONJ_DEGRADABLE):
        known, target = chan, comp
    elif q.mode in (Mode.ANTIDEGRADABLE, Mode.CONJ_ANTIDEGRADABLE):
        known, target = comp, chan
    else:
        raise ValueError(f"unknown mode {q.mode!r}")
    if q.mode in (Mode.CONJ_DEGRADABLE, Mode.CONJ_ANTIDEGRADABLE):
        # Conjugation acts on Hermitian states as transposition, which swaps
        # the two indices of each superoperator column.
        d, shape = target.d_out, target.matrix.shape
        matrix = target.matrix.reshape(-1, d, d).transpose(0, 2, 1).reshape(shape)
        target = SuperOp(target.d_in, d, matrix)
    return known, target


def candidate_spectrum(q: Query, tol: Tolerance = DEFAULT_TOL):
    """(family, ascending Choi eigenvalues of its base D0, psd_floor of that
    Choi matrix) for a query's system: the pseudoinverse candidate's
    spectrum, which ``decide`` and ``chandeg sweep-eigs`` report.  The Choi
    matrix and its eigenvectors are freed before it returns."""
    family = kernel_family(*_build_system(q), tol)
    R0 = superop_to_choi(family.base).matrix
    return family, hermitian_eigs(R0)[0], psd_floor(R0, tol)


def decide(q: Query, cfg: SearchConfig | None = None, search: bool = False) -> Verdict:
    """Tri-state decision for one degradability mode.

    NO is returned only with evidence: the system is inconsistent (no
    solution exists), the solution is unique and fails complete positivity,
    or ``kernel_search`` found a Witness.  YES carries a CPTP certificate:
    the unique solution or a point of ``kernel_search``, which every
    consistent system with more than one solution goes to.  INCONCLUSIVE
    means that search ran out its ``max_iters``.  ``search`` is ignored: it
    stays accepted because existing callers pass it.
    """
    cfg = cfg if cfg is not None else SearchConfig()
    family, eigs, floor = candidate_spectrum(q, cfg.tol)
    unique = family.kernel_dim == 0
    cp = bool(eigs[0] >= floor)

    found = None
    if not family.consistent:
        status = "NO"
    elif unique:
        found = family.base if cp else None
        status = "YES" if cp else "NO"
    else:
        found = kernel_search(family, cfg)
        status = (
            "NO" if isinstance(found, Witness) else "INCONCLUSIVE" if found is None else "YES"
        )
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
    tp_tol).  Returns (ok, report dict); the report is only an error message
    when the certificate's dimensions do not fit the query or it has a NaN or
    infinite entry.
    """
    known, target = _build_system(Query(channel, mode))
    if D.matrix.shape != (known.d_out**2, target.d_out**2):
        return False, {"error": "certificate dimensions do not match the query"}
    if not np.all(np.isfinite(D.matrix)):
        return False, {"error": "certificate has non-finite entries"}
    resid, solves = _residual(known.matrix, D.matrix, target.matrix, tol)
    R = superop_to_choi(D)
    herm_dev = float(np.linalg.norm(R.matrix - R.matrix.conj().T))
    cp, min_eig = is_cp(R, tol)
    cp = cp and herm_dev <= tol.tp_tol
    tp, tp_dev = is_tp(R, tol)
    ok = solves and cp and tp
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


def verdict_to_dict(v: Verdict) -> dict:
    """The verdict's document for channel.json_pieces, which writes its
    certificate and witness matrices as to_pairs lists a row at a time."""
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
            "matrix": v.certificate.matrix,
        }
    if v.witness is not None:
        doc["witness"] = {"margin": v.witness.margin, "choi": v.witness.choi}
    return doc
