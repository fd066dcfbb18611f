"""Independent checks of chandeg's answers, written with plain numpy.

Nothing here imports chandeg.  Superoperators, complements, Choi matrices,
solution systems and entropies are rebuilt from the Kraus operators by their
definitions, so a fault in chandeg's own conversions cannot hide a wrong
answer.  The tolerances are chandeg's documented defaults, typed in again.

Every ``judge_*`` function returns an :class:`Outcome`.  ``fault`` names one
of the two known program faults (the benchmark counts those operations as
failed); any other rejection is ``fault=UNEXPECTED`` and makes the run
incorrect.
"""

from dataclasses import dataclass

import numpy as np

RANK_TOL = 1e-10
PSD_TOL = 1e-9
RESIDUAL_TOL = 1e-9
# Trace preservation and Hermiticity of a certificate's Choi matrix: the
# bound kernel_search already applies to the certificates it returns.
TP_TOL = 1e-6
HERM_TOL = 1e-6
# Agreement of recomputed spectra and capacities with the reported ones.
VALUE_TOL = 1e-8

NOT_TP = "yes-certificate-cp-but-not-tp"
ROUND_TRIP = "verify-cannot-read-decide-output"
UNEXPECTED = "unexpected"

MODES = ("degradable", "antidegradable", "conj-degradable", "conj-antidegradable")


@dataclass(frozen=True)
class Outcome:
    ok: bool
    decided: bool = False
    fault: str | None = None
    why: str = ""


def accept(decided=False):
    return Outcome(ok=True, decided=decided)


def reject(fault, why):
    return Outcome(ok=False, fault=fault, why=why)


# --------------------------------------------------------------------------
# Representations, from their definitions


def apply_kraus(kraus, rho):
    """sum_e K_e rho K_e^dag."""
    return sum(K @ rho @ K.conj().T for K in kraus)


def superop(kraus):
    """Right-acting superoperator on row-flattened states.

    row(K rho K^dag)[a, b] = sum_ij row(rho)[i, j] K[a, i] conj(K[b, j]),
    so the matrix is sum_e kron(K_e^T, K_e^dag).
    """
    return sum(np.kron(K.T, K.conj().T) for K in kraus)


def complement_kraus(kraus):
    """Kraus operators of the complementary channel.

    The Stinespring isometry stacks the Kraus operators, V = sum_e |e> (x) K_e,
    with row index e*d_out + j.  Tracing out the output leaves the environment;
    its Kraus operators are the blocks <j|_out V, i.e. rows j, j + d_out, ...
    """
    V = np.concatenate([np.asarray(K, dtype=complex) for K in kraus], axis=0)
    d_out = kraus[0].shape[0]
    return [V[j::d_out].copy() for j in range(d_out)]


def transpose_superop(d):
    """Superoperator of rho -> rho^T (equal to conjugation on Hermitian rho)."""
    P = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            P[b * d + a, a * d + b] = 1.0
    return P


def choi_of_superop(M, d_in, d_out):
    """R = sum_{k,mu} |k><mu| (x) D(|k><mu|), where D(|k><mu|) is row k*d_in+mu of M."""
    blocks = M.reshape(d_in, d_in, d_out, d_out)  # [k, mu, l, nu]
    n = d_in * d_out
    return np.einsum("kmln->klmn", blocks).reshape(n, n)


def kraus_choi(kraus):
    """sum_e |v_e><v_e| with v_e = sum_k |k> (x) K_e|k>."""
    d_out, d_in = kraus[0].shape
    R = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for K in kraus:
        v = np.asarray(K).T.reshape(-1)
        R += np.outer(v, v.conj())
    return R


def output_trace(R, d_in, d_out):
    """Tr_out of a Choi matrix; equals the identity for a trace-preserving map."""
    return np.einsum("ajbj->ab", R.reshape(d_in, d_out, d_in, d_out))


def min_eig_margin(R):
    """(lambda_min of the Hermitian part, its floor -psd_tol * trace)."""
    w = np.linalg.eigvalsh((R + R.conj().T) / 2)
    return w, -PSD_TOL * max(abs(float(np.trace(R).real)), 1.0)


def _isqrt(n):
    r = int(round(n ** 0.5))
    if r * r != n:
        raise ValueError(f"{n} is not a square")
    return r


# --------------------------------------------------------------------------
# Channels the workloads use, checked against their closed-form Choi matrices


def td_choi(d, t):
    """Choi matrix of rho -> t rho^T + (1 - t) I/d: t SWAP + (1 - t)/d I."""
    n = d * d
    swap = np.zeros((n, n))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    return t * swap + (1.0 - t) / d * np.eye(n)


def depol_choi(d, s):
    """Choi matrix of rho -> s rho + (1 - s) I/d: s |Phi><Phi| + (1 - s)/d I."""
    phi = np.eye(d).reshape(-1)
    return s * np.outer(phi, phi) + (1.0 - s) / d * np.eye(d * d)


def check_kraus(kraus, family=None, d=None, param=None):
    """The Kraus set is trace preserving and, for a named family, implements it."""
    d_in = kraus[0].shape[1]
    tp = np.linalg.norm(sum(K.conj().T @ K for K in kraus) - np.eye(d_in))
    if tp > RESIDUAL_TOL:
        return reject(UNEXPECTED, f"input Kraus set not TP ({tp:.2e})")
    if family is not None:
        ref = td_choi(d, param) if family == "td" else depol_choi(d, param)
        dev = np.linalg.norm(kraus_choi(kraus) - ref)
        if dev > RESIDUAL_TOL:
            return reject(UNEXPECTED, f"input Kraus set is not {family} ({dev:.2e})")
    return accept()


# --------------------------------------------------------------------------
# Degradability


@dataclass(frozen=True)
class System:
    """``known @ D = target`` for one mode, re-derived by least squares."""

    known: np.ndarray
    target: np.ndarray
    d_mid: int  # D maps d_mid x d_mid states ...
    d_tgt: int  # ... to d_tgt x d_tgt states
    consistent: bool
    unique: bool
    kernel_dim: int
    eigs: np.ndarray  # Choi spectrum of the minimum-norm least-squares solution
    psd_floor: float


def build_system(kraus, mode):
    N = superop(kraus)
    Nc = superop(complement_kraus(kraus))
    d_out, d_env = kraus[0].shape[0], len(kraus)
    if mode == "degradable":
        known, target = N, Nc
    elif mode == "antidegradable":
        known, target = Nc, N
    elif mode == "conj-degradable":
        known, target = N, Nc @ transpose_superop(d_env)
    elif mode == "conj-antidegradable":
        known, target = Nc, N @ transpose_superop(d_out)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    d_mid, d_tgt = _isqrt(known.shape[1]), _isqrt(target.shape[1])
    X, _, _, sv = np.linalg.lstsq(known, target, rcond=RANK_TOL)
    residual = np.linalg.norm(known @ X - target)
    consistent = bool(residual <= RESIDUAL_TOL * max(1.0, np.linalg.norm(target)))
    rank = int(np.linalg.matrix_rank(known, tol=RANK_TOL * sv[0])) if sv[0] > 0 else 0
    cols = known.shape[1]
    eigs, floor = min_eig_margin(choi_of_superop(X, d_mid, d_tgt))
    return System(
        known, target, d_mid, d_tgt, consistent, rank == cols,
        (cols - rank) * target.shape[1], eigs, floor,
    )


def check_certificate(system, D):
    """Report on a candidate degrading map D (superoperator matrix)."""
    D = np.asarray(D, dtype=complex)
    if D.shape != (system.known.shape[1], system.target.shape[1]):
        return {"shape": False, "solves": False, "cp": False, "tp": False}
    resid = np.linalg.norm(system.known @ D - system.target)
    R = choi_of_superop(D, system.d_mid, system.d_tgt)
    herm = np.linalg.norm(R - R.conj().T)
    w, floor = min_eig_margin(R)
    tp_dev = np.linalg.norm(output_trace(R, system.d_mid, system.d_tgt) - np.eye(system.d_mid))
    return {
        "shape": True,
        "solves": bool(resid <= RESIDUAL_TOL * max(1.0, np.linalg.norm(system.target))),
        "cp": bool(herm <= HERM_TOL and w[0] >= floor),
        "tp": bool(tp_dev <= TP_TOL),
        "residual": float(resid),
        "min_eig": float(w[0]),
        "tp_dev": float(tp_dev),
    }


def judge_certificate(system, D):
    """Accept a YES certificate only when it is a CPTP solution."""
    rep = check_certificate(system, D)
    if rep["solves"] and rep["cp"] and rep["tp"]:
        return accept(decided=True)
    if rep["solves"] and rep["cp"]:
        return reject(NOT_TP, f"CP solution, TP deviation {rep['tp_dev']:.3g}")
    return reject(UNEXPECTED, f"certificate rejected: {rep}")


def paper_says_not_antidegradable(family, d, param):
    """Proven edges: qubit TD antidegradable iff t in [-2/3, 1/3]; qubit
    depolarizing antidegradable iff s <= 2/3 (optimal cloning, Bruss et al.)."""
    if d != 2:
        return False
    if family == "td":
        return not -2.0 / 3.0 <= param <= 1.0 / 3.0
    if family == "depol":
        return param > 2.0 / 3.0
    return False


def judge_verdict(system, verdict, mode, family=None, d=None, param=None):
    """Check a decide() answer against the re-derived system.

    ``verdict`` is a dict with status, certificate (matrix or None),
    candidate_eigs, unique, consistent and kernel_dim.
    """
    if (
        bool(verdict["consistent"]) != system.consistent
        or bool(verdict["unique"]) != system.unique
        or int(verdict["kernel_dim"]) != system.kernel_dim
    ):
        return reject(UNEXPECTED, "consistency, uniqueness or kernel dimension differ")
    eigs = np.sort(np.asarray(verdict["candidate_eigs"], dtype=float))
    scale = max(1.0, float(np.max(np.abs(system.eigs))))
    if eigs.shape != system.eigs.shape or np.max(np.abs(eigs - system.eigs)) > VALUE_TOL * scale:
        return reject(UNEXPECTED, "candidate Choi spectrum differs")
    status = verdict["status"]
    if status == "YES":
        if verdict["certificate"] is None:
            return reject(UNEXPECTED, "YES without a certificate")
        return judge_certificate(system, verdict["certificate"])
    if status == "NO":
        if not system.consistent:
            return accept(decided=True)
        if system.unique and system.eigs[0] < system.psd_floor:
            return accept(decided=True)
        if mode == "antidegradable" and paper_says_not_antidegradable(family, d, param):
            return accept(decided=True)
        return reject(UNEXPECTED, "NO without an inconsistency, a unique non-CP solution or a proof")
    if status == "INCONCLUSIVE":
        if system.consistent and not system.unique:
            return accept()
        return reject(UNEXPECTED, "INCONCLUSIVE on a system whose answer is determined")
    return reject(UNEXPECTED, f"unknown status {status!r}")


def judge_candidate_spectrum(kraus, eigs):
    """sweep-eigs: the antidegrading candidate's Choi spectrum."""
    system = build_system(kraus, "antidegradable")
    eigs = np.asarray(eigs, dtype=float)
    scale = max(1.0, float(np.max(np.abs(system.eigs))))
    if eigs.shape != system.eigs.shape or np.max(np.abs(eigs - system.eigs)) > VALUE_TOL * scale:
        return reject(UNEXPECTED, "candidate spectrum differs")
    return accept()


def judge_screen(kraus, report):
    """ecd_screen: ranks and PPT recomputed, the screening rules re-applied."""
    d_out, d_in = kraus[0].shape
    comp = complement_kraus(kraus)
    R, Rc = kraus_choi(kraus), kraus_choi(comp)
    rank = int(np.linalg.matrix_rank(R, tol=RANK_TOL * np.linalg.norm(R, 2)))
    comp_rank = int(np.linalg.matrix_rank(Rc, tol=RANK_TOL * np.linalg.norm(Rc, 2)))
    d_env = comp[0].shape[0]
    pt = Rc.reshape(d_in, d_env, d_in, d_env).transpose(2, 1, 0, 3).reshape(Rc.shape)
    w, floor = min_eig_margin(pt)
    hopeless = d_out <= d_in or comp_rank <= max(d_in, rank) or (d_in == 2 and rank == 2)
    expected = {
        "d_in": d_in,
        "d_out": d_out,
        "choi_rank": rank,
        "complement_choi_rank": comp_rank,
        "complement_ppt": bool(w[0] >= floor),
        "hopeless": bool(hopeless),
    }
    got = {k: report.get(k) for k in expected}
    if got != expected:
        return reject(UNEXPECTED, f"screen report {got} != {expected}")
    return accept()


# --------------------------------------------------------------------------
# Capacities


def entropy(rho, base):
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    w = w[w > PSD_TOL * max(abs(float(np.trace(rho).real)), 1.0)]
    return float(-np.sum(w * np.log(w)) / np.log(base))


def coherent_information(kraus, rho, base):
    return entropy(apply_kraus(kraus, rho), base) - entropy(
        apply_kraus(complement_kraus(kraus), rho), base
    )


def td_complement_closed_form(d, t):
    """The paper's capacity of the TD complement, coherent information at I/d.

    d = 2 (base 2): -3 (1+t)/4 log2((1+t)/4) - (1-3t)/4 log2((1-3t)/4) - 1
    d = 3 (base 3): -2 (1+2t)/3 log3((1+2t)/9) - (1-4t)/3 log3((1-4t)/9) - 1
    """
    if d == 2:
        terms = [(3.0, (1.0 + t) / 4.0), (1.0, (1.0 - 3.0 * t) / 4.0)]
    elif d == 3:
        terms = [(6.0, (1.0 + 2.0 * t) / 9.0), (3.0, (1.0 - 4.0 * t) / 9.0)]
    else:
        raise ValueError(f"no closed form for d={d}")
    return -sum(m * p * np.log(p) / np.log(d) for m, p in terms if p > 0) - 1.0


def complement_is_degradable(d, t):
    """Where the TD channel is antidegradable (its complement degradable):
    proven on [-2/3, 1/3] for d = 2, numerical evidence on [-1/2, 1/4] for d = 3."""
    lo, hi = (-2.0 / 3.0, 1.0 / 3.0) if d == 2 else (-0.5, 0.25)
    return lo <= t <= hi


def _close(a, b):
    return abs(a - b) <= VALUE_TOL * max(1.0, abs(b))


def judge_covariant(kraus, d, t, value):
    """Coherent information at I/d: own computation and the closed form."""
    own = coherent_information(kraus, np.eye(d) / d, d)
    if not _close(value, own) or not _close(own, td_complement_closed_form(d, t)):
        return reject(UNEXPECTED, f"covariant value {value} vs own {own}")
    return accept(decided=complement_is_degradable(d, t))


def judge_one_shot(kraus, d, t, value, state):
    """One-shot optimum: achieved by the returned state, never below the
    covariant value, equal to the closed form where the complement is degradable."""
    state = np.asarray(state, dtype=complex)
    w, floor = min_eig_margin(state)
    if (
        np.linalg.norm(state - state.conj().T) > RESIDUAL_TOL
        or abs(np.trace(state) - 1.0) > RESIDUAL_TOL
        or w[0] < floor
    ):
        return reject(UNEXPECTED, "returned input is not a state")
    if not _close(value, coherent_information(kraus, state, d)):
        return reject(UNEXPECTED, "value is not the coherent information of the returned state")
    covariant = coherent_information(kraus, np.eye(d) / d, d)
    if value < covariant - VALUE_TOL:
        return reject(UNEXPECTED, f"optimum {value} below covariant value {covariant}")
    if complement_is_degradable(d, t):
        if not _close(value, td_complement_closed_form(d, t)):
            return reject(UNEXPECTED, f"optimum {value} != closed form")
        return accept(decided=True)
    return accept()


def judge_capacity_row(d, t, q, base, status):
    """One row of the capacity CSV: closed form, base, and proof status."""
    proven = d == 2 and complement_is_degradable(d, t)
    want = "PROVEN" if proven else "NUMERICAL_EVIDENCE"
    if not _close(q, td_complement_closed_form(d, t)) or base != d or status != want:
        return reject(UNEXPECTED, f"capacity row t={t}: {q}, {base}, {status}")
    return accept()
