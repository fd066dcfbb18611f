"""Quantum-channel data model and representation conversions.

Three interchangeable representations are supported:

* Kraus operators ``K_e`` (``d_out x d_in`` each),
* the Choi matrix ``R`` in the basis ``|k><mu|_A (x) |l><nu|_B`` with composite
  row index ``k*d_out + l``,
* the superoperator ``M`` (``d_in^2 x d_out^2``) acting on row-flattened states
  from the right: ``row(sigma) = row(rho) @ M``; composition of channels is
  then plain matrix multiplication of their superoperators.

Conversion between Choi matrix and superoperator is the pure index permutation

    M[k*d_in + mu, l*d_out + nu] = R[k*d_out + l, mu*d_out + nu].
"""

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    hermitian_eigs,
    numeric_rank,
    psd_floor,
    row_flatten,
)

SCHEMA_VERSION = 1


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


class NotTP(ValueError):
    """Map is not trace-preserving where it was required to be."""


def _check_dims(d_in, d_out):
    """Reject dimensions that are not integers of at least 1 (a bool is not one)."""
    for d in (d_in, d_out):
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
            raise ValueError(f"dimensions must be integers >= 1, got ({d_in!r}, {d_out!r})")


@dataclass(frozen=True)
class KrausSet:
    """Ordered list of d_out x d_in Kraus operators."""

    d_in: int
    d_out: int
    operators: tuple

    def __post_init__(self):
        _check_dims(self.d_in, self.d_out)
        ops = tuple(np.asarray(K, dtype=complex) for K in self.operators)
        if not ops:
            raise ValueError("KrausSet requires at least one operator")
        for K in ops:
            if K.shape != (self.d_out, self.d_in):
                raise DimensionMismatch(
                    f"Kraus operator shape {K.shape} != ({self.d_out}, {self.d_in})"
                )
        object.__setattr__(self, "operators", ops)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix with composite row index k*d_out + l."""

    d_in: int
    d_out: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_dims(self.d_in, self.d_out)
        m = np.asarray(self.matrix, dtype=complex)
        n = self.d_in * self.d_out
        if m.shape != (n, n):
            raise DimensionMismatch(f"Choi matrix shape {m.shape} != ({n}, {n})")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SuperOp:
    """Superoperator acting from the right on row-flattened states."""

    d_in: int
    d_out: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_dims(self.d_in, self.d_out)
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.d_in**2, self.d_out**2):
            raise DimensionMismatch(
                f"superoperator shape {m.shape} != ({self.d_in**2}, {self.d_out**2})"
            )
        object.__setattr__(self, "matrix", m)


def kraus_to_choi(k: KrausSet) -> ChoiMatrix:
    """Choi matrix R = sum_ij |i><j| (x) sum_e K_e |i><j| K_e^dag.

    Equivalently R = sum_e |v_e><v_e| with v_e the row-flattened K_e^T,
    which makes positivity manifest.
    """
    n = k.d_in * k.d_out
    R = np.zeros((n, n), dtype=complex)
    for K in k.operators:
        v = row_flatten(K.T)
        R += np.outer(v, v.conj())
    return ChoiMatrix(k.d_in, k.d_out, R)


def choi_to_superop(R: ChoiMatrix) -> SuperOp:
    """Reshuffle R_{kl;mu nu} -> M_{k mu; l nu} (a pure index permutation)."""
    dA, dB = R.d_in, R.d_out
    M = R.matrix.reshape(dA, dB, dA, dB).transpose(0, 2, 1, 3).reshape(dA**2, dB**2)
    return SuperOp(dA, dB, M)


def superop_to_choi(M: SuperOp) -> ChoiMatrix:
    """Inverse reshuffle M_{k mu; l nu} -> R_{kl; mu nu}."""
    dA, dB = M.d_in, M.d_out
    n = dA * dB
    R = M.matrix.reshape(dA, dA, dB, dB).transpose(0, 2, 1, 3).reshape(n, n)
    return ChoiMatrix(dA, dB, R)


def apply(M: SuperOp, rho) -> np.ndarray:
    """Apply a channel in superoperator form: row(rho) @ M, reshaped to d_out x d_out."""
    r = np.asarray(rho, dtype=complex)
    if r.shape != (M.d_in, M.d_in):
        raise DimensionMismatch(f"state shape {r.shape} != ({M.d_in}, {M.d_in})")
    return (row_flatten(r) @ M.matrix).reshape(M.d_out, M.d_out)


def apply_adjoint(M: SuperOp, X) -> np.ndarray:
    """Apply the adjoint channel, defined by Tr[X M(rho)] = Tr[M^dag(X) rho]:
    M^dag(X) is M @ row(X^T), reshaped to d_in x d_in and transposed."""
    X = np.asarray(X, dtype=complex)
    if X.shape != (M.d_out, M.d_out):
        raise DimensionMismatch(f"operator shape {X.shape} != ({M.d_out}, {M.d_out})")
    return (M.matrix @ row_flatten(X.T)).reshape(M.d_in, M.d_in).T


def apply_choi(R: ChoiMatrix, rho) -> np.ndarray:
    """Apply a channel via its Choi matrix: Tr_A[(rho^T (x) I_B) R]."""
    r = np.asarray(rho, dtype=complex)
    if r.shape != (R.d_in, R.d_in):
        raise DimensionMismatch(f"state shape {r.shape} != ({R.d_in}, {R.d_in})")
    R4 = R.matrix.reshape(R.d_in, R.d_out, R.d_in, R.d_out)
    return np.einsum("mk,mlkn->ln", r, R4)


def is_cp(R: ChoiMatrix, tol: Tolerance = DEFAULT_TOL):
    """(CP?, minimal eigenvalue) -- CP iff lambda_min >= psd_floor(R.matrix)."""
    w, _ = hermitian_eigs(R.matrix)
    return bool(w[0] >= psd_floor(R.matrix, tol)), float(w[0])


def is_tp(R: ChoiMatrix, tol: Tolerance = DEFAULT_TOL):
    """(TP?, deviation) -- TP iff Tr_B R = I_A within tp_tol."""
    R4 = R.matrix.reshape(R.d_in, R.d_out, R.d_in, R.d_out)
    trB = np.einsum("klml->km", R4)
    dev = float(np.linalg.norm(trB - np.eye(R.d_in)))
    return dev <= tol.tp_tol, dev


def partial_transpose(R: ChoiMatrix) -> np.ndarray:
    """Transpose on the input factor A of the Choi matrix."""
    R4 = R.matrix.reshape(R.d_in, R.d_out, R.d_in, R.d_out)
    n = R.d_in * R.d_out
    return R4.transpose(2, 1, 0, 3).reshape(n, n)


def is_ppt(R: ChoiMatrix, tol: Tolerance = DEFAULT_TOL):
    """True when the partial transpose of the Choi matrix passes is_cp's test
    (it keeps the diagonal, so the PSD floor is R's)."""
    return is_cp(ChoiMatrix(R.d_in, R.d_out, partial_transpose(R)), tol)[0]


@dataclass(frozen=True)
class Channel:
    """Immutable channel with all three representations cached eagerly."""

    kraus: KrausSet
    label: str = ""
    choi: ChoiMatrix = field(init=False)
    superop: SuperOp = field(init=False)

    def __post_init__(self):
        R = kraus_to_choi(self.kraus)
        object.__setattr__(self, "choi", R)
        object.__setattr__(self, "superop", choi_to_superop(R))

    @property
    def d_in(self):
        return self.kraus.d_in

    @property
    def d_out(self):
        return self.kraus.d_out


def complement(c: Channel) -> Channel:
    """Complementary channel: the map to the environment of the dilation.

    For Kraus operators K_e the complement has entries
    ``[C(rho)]_{ef} = Tr[K_f^dag K_e rho]``; its Kraus operators are
    ``(Khat_j)_{e,i} = (K_e)_{j,i}``.  Unique up to an isometry on the
    environment; the representative follows the stored Kraus order.  Raises
    NotTP unless ``is_tp`` accepts c's Choi matrix, whose Tr_B is the
    conjugate of sum_e K_e^dag K_e.
    """
    if not is_tp(c.choi)[0]:
        raise NotTP("complement requires a trace-preserving Kraus set")
    k = c.kraus
    stack = np.array(k.operators)  # (d_E, d_out, d_in)
    ops = tuple(stack[:, j, :].copy() for j in range(k.d_out))
    name = f"complement({c.label})" if c.label else "complement"
    return Channel(KrausSet(k.d_in, stack.shape[0], ops), label=name)


def choi_rank(c: Channel, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of the Choi matrix (minimal environment dimension)."""
    return numeric_rank(c.choi.matrix, tol)


def to_pairs(A) -> list:
    """A complex matrix as row-major [re, im] pairs, the JSON encoding."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in A]


def from_pairs(rows) -> np.ndarray:
    """The complex matrix of row-major [re, im] pairs; a bool is not a number."""
    A = np.array([[complex(re, im) for re, im in row] for row in rows])
    if any(bool in set(map(type, chain.from_iterable(row))) for row in rows):
        raise ValueError("matrix entries must be numbers, got a boolean")
    return A


def _json_float(x: float) -> str:
    """x as json.dumps writes it: its repr, or NaN, Infinity or -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _matrix_pieces(A, pad):
    """json.dumps(to_pairs(A), indent=2) indented by pad, a row a piece, for
    a complex matrix A with at least one row and one column."""
    p1, p2, p3 = pad + "  ", pad + "    ", pad + "      "
    pair = f"{p2}[\n{p3}{{}},\n{p3}{{}}\n{p2}]"
    sep = "[\n"
    for row in A:
        re, im = row.real.tolist(), row.imag.tolist()
        body = ",\n".join(map(pair.format, map(_json_float, re), map(_json_float, im)))
        yield f"{sep}{p1}[\n{body}\n{p1}]"
        sep = ",\n"
    yield f"\n{pad}]"


def _json_pieces(obj, pad):
    """json.dumps(obj, sort_keys=True, indent=2) indented by pad, in pieces;
    each ndarray as its to_pairs list.  Keys must be strings."""
    inner = pad + "  "
    if isinstance(obj, np.ndarray):
        yield from _matrix_pieces(obj, pad)
    elif isinstance(obj, dict) and obj:
        sep = "{\n"
        for key in sorted(obj):
            yield f"{sep}{inner}{json.dumps(key)}: "
            yield from _json_pieces(obj[key], inner)
            sep = ",\n"
        yield f"\n{pad}}}"
    elif isinstance(obj, (list, tuple)) and obj:
        sep = "[\n"
        for item in obj:
            yield sep + inner
            yield from _json_pieces(item, inner)
            sep = ",\n"
        yield f"\n{pad}]"
    else:
        yield json.dumps(obj)


def json_pieces(doc):
    """The text of json.dumps(doc, sort_keys=True, indent=2) + "\\n", in
    pieces (a matrix row a piece), each complex ndarray in doc written as
    its to_pairs list."""
    yield from _json_pieces(doc, "")
    yield "\n"


def channel_to_dict(c: Channel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "label": c.label,
        "d_in": c.d_in,
        "d_out": c.d_out,
        "kraus": [to_pairs(K) for K in c.kraus.operators],
    }


def channel_from_dict(doc: dict) -> Channel:
    try:
        d_in, d_out = doc["d_in"], doc["d_out"]
        ops = tuple(from_pairs(K) for K in doc["kraus"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed channel document: {exc}") from exc
    return Channel(KrausSet(d_in, d_out, ops), label=str(doc.get("label", "")))
