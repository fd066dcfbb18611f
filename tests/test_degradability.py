import gc
import json
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from chandeg.channel import (
    Channel,
    ChoiMatrix,
    KrausSet,
    SuperOp,
    choi_to_superop,
    complement,
    from_pairs,
    is_cp,
    json_pieces,
    superop_to_choi,
    to_pairs,
)
from chandeg.degradability import (
    Mode,
    Query,
    SearchConfig,
    Witness,
    _build_system,
    decide,
    ecd_screen,
    kernel_family,
    kernel_search,
    verdict_to_dict,
    verify_certificate,
)
from chandeg.linalg import numeric_rank
from chandeg.zoo import (
    DepolParams,
    TDParams,
    depolarizing,
    td_channel,
    td_complement_qubit,
)

from conftest import (
    antidegrading_candidate_matrix,
    fixture_certificate_matrix,
    haar_isometry,
    kernel_directions,
    random_channel,
    random_state,
)


def check_witness(channel, mode, witness):
    """Re-check a NO witness with plain numpy, from the rebuilt system.

    It must be PSD, orthogonal to every direction K X (X u = 0) of the
    trace-preserving solution set, and take its margin, a negative value,
    on a trace-preserving solution.
    """
    known, target = (M.matrix for M in _build_system(Query(channel, mode)))
    p, q = known.shape[1], target.shape[1]
    d_mid, d_tgt = int(round(p**0.5)), int(round(q**0.5))
    Z = witness.choi
    scale = np.linalg.norm(Z)
    assert scale > 0
    npt.assert_allclose(Z, Z.conj().T, atol=1e-12 * scale)
    assert np.linalg.eigvalsh(Z)[0] >= -1e-12 * scale

    _, s, Vh = np.linalg.svd(known)
    K = Vh[int(np.sum(s > 1e-10 * s[0])):].conj().T
    u = np.eye(d_tgt).reshape(-1)
    Zd = Z.reshape(d_mid, d_tgt, d_mid, d_tgt).transpose(0, 2, 1, 3).reshape(p, q)
    G = K.conj().T @ Zd
    assert np.linalg.norm(G - np.outer(G @ u, u) / d_tgt) <= 1e-9 * scale

    D = np.linalg.lstsq(known, target, rcond=None)[0]
    D += np.outer(np.eye(d_mid).reshape(-1) - D @ u, u) / d_tgt
    assert np.linalg.norm(known @ D - target) <= 1e-9
    R = D.reshape(d_mid, d_mid, d_tgt, d_tgt).transpose(0, 2, 1, 3).reshape(Z.shape)
    value = np.trace(Z @ R)
    assert abs(value.imag) <= 1e-9 * scale
    assert value.real < -1e-9 * np.trace(R).real * np.trace(Z).real
    npt.assert_allclose(value.real, witness.margin, atol=1e-9 * scale)


def count_calls(monkeypatch, name):
    """A list that grows by one at each call of np.linalg.<name>."""
    calls = []
    real = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


CONJUGATE_PAIRS = [
    (Mode.DEGRADABLE, Mode.CONJ_DEGRADABLE),
    (Mode.ANTIDEGRADABLE, Mode.CONJ_ANTIDEGRADABLE),
]


def test_conjugate_target_is_the_target_then_transpose(rng):
    from chandeg.channel import apply

    for d_out, d_env in ((2, 2), (3, 2), (2, 3)):
        chan = random_channel(rng, 2, d_out, d_env)
        for plain, conj in CONJUGATE_PAIRS:
            known, target = _build_system(Query(chan, plain))
            known_c, target_c = _build_system(Query(chan, conj))
            npt.assert_array_equal(known_c.matrix, known.matrix)
            assert (target_c.d_in, target_c.d_out) == (target.d_in, target.d_out)
            for _ in range(3):
                rho = random_state(rng, 2)
                npt.assert_allclose(apply(target_c, rho), apply(target, rho).T, atol=1e-14)


def test_conjugate_target_preserves_rank(rng):
    # at t = 0 every target has fewer independent columns than columns
    td = td_channel(TDParams(3, 0.0))
    for chan in (td, random_channel(rng, 2, 3, 2)):
        for plain, conj in CONJUGATE_PAIRS:
            _, target = _build_system(Query(chan, plain))
            _, target_c = _build_system(Query(chan, conj))
            rank = numeric_rank(target.matrix)
            assert numeric_rank(target_c.matrix) == rank
            assert chan is not td or rank < target.matrix.shape[1]


def test_candidate_map_identity_known(rng):
    known = SuperOp(2, 2, np.eye(4))
    target = td_channel(TDParams(2, 0.2)).superop
    fam = kernel_family(known, target)
    assert fam.consistent and fam.residual < 1e-12
    npt.assert_allclose(fam.base.matrix, target.matrix, atol=1e-12)


def test_candidate_map_reproduces_closed_form():
    for t in (-2 / 3, -0.25, 0.25):
        chan = td_channel(TDParams(2, t))
        comp = complement(chan)
        fam = kernel_family(comp.superop, chan.superop)
        assert fam.consistent
        npt.assert_allclose(fam.base.matrix, antidegrading_candidate_matrix(t), atol=1e-8)


def test_degrading_candidate_negative_outside_unitary_case():
    # the degrading candidate of a nondegradable qubit map fails positivity
    chan = td_channel(TDParams(2, 0.2))
    comp = complement(chan)
    fam = kernel_family(chan.superop, comp.superop)
    assert fam.consistent
    cp, min_eig = is_cp(superop_to_choi(fam.base))
    assert not cp and min_eig < -1e-6


def test_uniqueness_predicate(rng):
    """The solution is unique, i.e. the kernel is trivial, iff known has full
    rank min(d_a^2, d_b^2) and d_b <= d_a."""
    cases = [(2, 2, 4, True), (2, 2, 3, False), (2, 4, 4, False), (3, 2, 4, True)]
    for d_a, d_b, rank, unique in cases:
        M = rng.normal(size=(d_a**2, rank)) @ rng.normal(size=(rank, d_b**2))
        assert numeric_rank(M) == rank
        target = SuperOp(d_a, 2, M @ rng.normal(size=(d_b**2, 4)))
        assert (kernel_family(SuperOp(d_a, d_b, M), target).kernel_dim == 0) == unique


def test_kernel_family_qubit_antidegradable():
    chan = td_channel(TDParams(2, -2 / 3))
    comp = complement(chan)
    fam = kernel_family(comp.superop, chan.superop)
    # complement superop is 16x4 with rank 4 -> 12 null directions x 4 columns
    directions = kernel_directions(fam)
    assert len(fam.basis) == 48 == fam.kernel_dim == len(directions)
    B = np.array([b.reshape(16, 4) for b in directions])
    npt.assert_allclose(comp.superop.matrix @ B, 0, atol=1e-12)
    gram = np.einsum("mij,nij->mn", B.conj(), B)
    npt.assert_allclose(gram, np.eye(48), atol=1e-12)


def test_kernel_family_members_solve_the_system(rng):
    chan = td_channel(TDParams(2, -0.5))
    comp = complement(chan)
    fam = kernel_family(comp.superop, chan.superop)
    directions = kernel_directions(fam)
    assert len(fam.basis) == 48 == fam.kernel_dim == len(directions)
    for _ in range(5):
        coeffs = rng.normal(size=48) + 1j * rng.normal(size=48)
        D = fam.base.matrix + sum(a * b.reshape(16, 4) for a, b in zip(coeffs, directions))
        resid = np.linalg.norm(comp.superop.matrix @ D - chan.superop.matrix)
        assert resid < 1e-10
        # the nearest trace-preserving member solves the system too
        T = fam.project(D)
        assert np.linalg.norm(comp.superop.matrix @ T - chan.superop.matrix) < 1e-10
        R = superop_to_choi(SuperOp(4, 2, T)).matrix
        npt.assert_allclose(np.einsum("klml->km", R.reshape(4, 2, 4, 2)), np.eye(4), atol=1e-12)


def test_kernel_family_requires_consistency():
    # a rank-one known map cannot reproduce the identity
    depolarize_all = td_channel(TDParams(2, 0.0)).superop
    fam = kernel_family(depolarize_all, SuperOp(2, 2, np.eye(4)))
    assert not fam.consistent
    assert fam.residual >= 0.1


def test_kernel_search_finds_certificate_at_boundary():
    chan = td_channel(TDParams(2, -2 / 3))
    comp = complement(chan)
    fam = kernel_family(comp.superop, chan.superop)
    found = kernel_search(fam, SearchConfig())
    assert found is not None
    ok, report = verify_certificate(chan, Mode.ANTIDEGRADABLE, found)
    assert ok, report


def test_kernel_search_fails_outside_known_region():
    chan = td_channel(TDParams(2, -0.8))
    comp = complement(chan)
    fam = kernel_family(comp.superop, chan.superop)
    witness = kernel_search(fam, SearchConfig())
    assert isinstance(witness, Witness)
    check_witness(chan, Mode.ANTIDEGRADABLE, witness)


def _qubit(family, p):
    if family == "td":
        return td_channel(TDParams(2, p))
    return depolarizing(DepolParams(2, p))


@pytest.mark.parametrize(
    "family, p", [("td", -0.8), ("td", -0.7), ("depol", 0.7), ("td", -0.67), ("depol", 0.67)]
)
def test_search_past_the_edge_is_no_with_witness(family, p):
    chan = _qubit(family, p)
    v = decide(Query(chan, Mode.ANTIDEGRADABLE))
    assert v.status == "NO" and v.certificate is None
    check_witness(chan, Mode.ANTIDEGRADABLE, v.witness)
    doc = verdict_to_dict(v)
    assert doc["witness"]["margin"] == v.witness.margin < 0


@pytest.mark.parametrize("family, p", [("td", -2 / 3), ("depol", 2 / 3)])
def test_search_yes_exactly_at_the_edge(family, p):
    # 42 iterations; without the restart the momentum overshoots and needs 79.
    chan = _qubit(family, p)
    cfg = SearchConfig(max_iters=60)
    v = decide(Query(chan, Mode.ANTIDEGRADABLE), cfg)
    assert v.status == "YES" and v.witness is None
    ok, report = verify_certificate(chan, Mode.ANTIDEGRADABLE, v.certificate)
    assert ok and report["tp"], report


def test_search_opens_ququart():
    # The YES probe settles it at iteration 0; without the probe the momentum
    # takes 10 iterations, and plain alternating projections 151.
    chan = td_channel(TDParams(4, -0.3))
    cfg = SearchConfig(max_iters=20)
    v = decide(Query(chan, Mode.ANTIDEGRADABLE), cfg)
    assert v.status == "YES"
    ok, report = verify_certificate(chan, Mode.ANTIDEGRADABLE, v.certificate)
    assert ok and report["tp"], report


@pytest.mark.parametrize("family, p", [("td", -0.67), ("depol", 0.67)])
def test_search_near_the_edge_is_no_within_20_iterations(family, p):
    # The first iterate is no witness here; the search finds one at iteration
    # 15, where plain alternating projections need 31.
    chan = _qubit(family, p)
    cfg = SearchConfig(max_iters=20)
    v = decide(Query(chan, Mode.ANTIDEGRADABLE), cfg)
    assert v.status == "NO"
    check_witness(chan, Mode.ANTIDEGRADABLE, v.witness)


def test_search_qutrit_within_iteration_budget():
    # The YES probe settles it at iteration 0; without the probe the momentum
    # takes 10 iterations, and plain alternating projections 187.
    chan = td_channel(TDParams(3, -0.45))
    cfg = SearchConfig(max_iters=20)
    v = decide(Query(chan, Mode.ANTIDEGRADABLE), cfg)
    assert v.status == "YES"
    ok, report = verify_certificate(chan, Mode.ANTIDEGRADABLE, v.certificate)
    assert ok and report["tp"], report


@pytest.mark.parametrize(
    "chan",
    [
        td_channel(TDParams(2, -0.6)),
        depolarizing(DepolParams(2, 0.55)),
        td_channel(TDParams(3, -0.45)),
        td_channel(TDParams(4, -0.3)),
    ],
    ids=["td2", "depol2", "td3", "td4"],
)
def test_yes_probe_settles_interior_queries_at_the_first_test(chan):
    # One iteration: the start is not CP, and the probe along the first step
    # finds a certificate strictly inside the cone, not on its floor.
    v = decide(Query(chan, Mode.ANTIDEGRADABLE), SearchConfig(max_iters=1))
    assert v.status == "YES" and not v.unique
    ok, report = verify_certificate(chan, Mode.ANTIDEGRADABLE, v.certificate)
    assert ok and report["tp"] and report["choi_min_eigenvalue"] > 0, report


def test_yes_probes_leave_the_qubit_edge_path_alone(monkeypatch):
    # The edge settles at iteration 42, as without the probe (1 + 43 eigh).
    # Its six tests, at iterations 0, 1, 3, 7, 15 and 31, each try a witness
    # (5 eigvalsh; one margin is not negative) and end their probes when the
    # least eigenvalue falls (20 eigvalsh).
    eighs = count_calls(monkeypatch, "eigh")
    eigvalshs = count_calls(monkeypatch, "eigvalsh")
    v = decide(Query(td_channel(TDParams(2, -2 / 3)), Mode.ANTIDEGRADABLE))
    assert v.status == "YES"
    assert (len(eighs), len(eigvalshs)) == (1 + 43, 5 + 20)


def test_yes_probe_stops_at_its_cap(monkeypatch):
    # A least eigenvalue that keeps rising below the floor, from above the
    # start's (below -0.16 at the qubit edge), ends the probe only at its
    # cap of 32.  The first eigvalsh is the witness test's.
    calls = []

    def rising(H):
        calls.append(None)
        return np.array([-0.1 + 1e-6 * len(calls)])

    monkeypatch.setattr(np.linalg, "eigvalsh", rising)
    q = Query(td_channel(TDParams(2, -2 / 3)), Mode.ANTIDEGRADABLE)
    v = decide(q, SearchConfig(max_iters=1))
    assert v.status == "INCONCLUSIVE"
    assert len(calls) == 1 + 32


@pytest.mark.parametrize(
    "seed, d_out, d_env, mode",
    [
        (12, 2, 3, Mode.ANTIDEGRADABLE),
        (10, 2, 3, Mode.CONJ_ANTIDEGRADABLE),
        (1, 3, 2, Mode.CONJ_DEGRADABLE),
        (1, 3, 3, Mode.ANTIDEGRADABLE),
        (16, 3, 3, Mode.ANTIDEGRADABLE),
    ],
)
def test_search_keeps_random_channel_nos(seed, d_out, d_env, mode):
    # Infeasible systems.  Too long a step with momentum makes the search
    # cycle above the gap's infimum, and the last two end INCONCLUSIVE.
    chan = random_channel(np.random.default_rng(seed), 2, d_out, d_env)
    v = decide(Query(chan, mode))
    assert v.status == "NO"
    check_witness(chan, mode, v.witness)


def test_search_settles_a_census_no(monkeypatch):
    # No CP solution; the search finds the witness at iteration 1,023.  The
    # YES probes on the way leave the iterates alone: one eigh for the
    # candidate and one for each of the 1,024 iterations, as without them.
    eighs = count_calls(monkeypatch, "eigh")
    chan = random_channel(np.random.default_rng(9), 2, 3, 3)
    v = decide(Query(chan, Mode.DEGRADABLE))
    assert v.status == "NO"
    assert len(eighs) == 1 + 1024
    check_witness(chan, Mode.DEGRADABLE, v.witness)


@pytest.mark.parametrize("d, t", [(3, -1 / 8), (4, -1 / 15)])
def test_search_settles_td_conjugate_antidegradable(monkeypatch, d, t):
    # The YES probe settles both at iteration 1,023, where the smallest Choi
    # eigenvalue rises with s until s is about 2^23; without the probe the
    # momentum takes about 1,550 iterations, and plain alternating
    # projections do not settle them in 2,000.
    eighs = count_calls(monkeypatch, "eigh")
    chan = td_channel(TDParams(d, t))
    v = decide(Query(chan, Mode.CONJ_ANTIDEGRADABLE))
    assert v.status == "YES"
    assert len(eighs) == 1 + 1024
    ok, report = verify_certificate(chan, Mode.CONJ_ANTIDEGRADABLE, v.certificate)
    assert ok and report["tp"], report


def test_project_directions_is_an_orthogonal_projection_within_the_solutions(rng):
    chan = td_channel(TDParams(3, -0.4))
    comp = complement(chan)
    fam = kernel_family(comp.superop, chan.superop)
    n = 27
    X, Y = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
    X, Y = X + X.conj().T, Y + Y.conj().T
    rowspace = fam.rowspace.tobytes()
    # it overwrites its argument
    L = X.copy()
    assert fam.project_directions(L) is L
    npt.assert_array_equal(L, L.conj().T)
    npt.assert_allclose(fam.project_directions(L.copy()), L, atol=1e-12)
    assert abs(np.vdot(X - L, fam.project_directions(Y))) < 1e-10
    with pytest.raises(ValueError, match="C-contiguous complex"):
        fam.project_directions(X.T)
    # it only reads the family, whose row space cannot be written
    assert fam.rowspace.tobytes() == rowspace
    assert not fam.rowspace.flags.writeable
    # a trace-preserving solution minus L(X) is one too
    R = superop_to_choi(SuperOp(9, 3, fam.project(fam.base.matrix))).matrix - L
    D = choi_to_superop(ChoiMatrix(9, 3, R)).matrix
    assert np.linalg.norm(comp.superop.matrix @ D - chan.superop.matrix) < 1e-10
    npt.assert_allclose(np.einsum("klml->km", R.reshape(9, 3, 9, 3)), np.eye(9), atol=1e-12)


def test_one_family_projects_in_two_threads_at_once(rng):
    # a complex row space, which conjugation changes
    fam = kernel_family(*_build_system(Query(random_channel(rng, 3, 5, 3), Mode.DEGRADABLE)))
    assert fam.kernel_dim and np.abs(fam.rowspace.imag).max() > 0.1
    inputs = [rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15)) for _ in range(1000)]
    serial = [fam.project_directions(X.copy()).tobytes() for X in inputs]
    start = threading.Barrier(2)

    def project_all():
        start.wait()
        return [fam.project_directions(X.copy()).tobytes() for X in inputs]

    # switch threads every microsecond, so that their projections interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(project_all) for _ in range(2)]
            results = [run.result() for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial, serial]


def test_search_gives_up_after_max_iters():
    # the qubit edge, which needs 42 iterations
    chan = td_channel(TDParams(2, -2 / 3))
    v = decide(Query(chan, Mode.ANTIDEGRADABLE), SearchConfig(max_iters=5))
    assert v.status == "INCONCLUSIVE" and v.certificate is None and v.witness is None


def test_search_config_rejects_negative_max_iters():
    # With max_iters = -1 the search would not even test its start point.
    with pytest.raises(ValueError, match="max_iters"):
        SearchConfig(max_iters=-1)
    assert SearchConfig(max_iters=0).max_iters == 0


def test_seed_restarts_and_search_are_ignored():
    q = Query(td_channel(TDParams(3, -0.45)), Mode.ANTIDEGRADABLE)
    plain = verdict_to_dict(decide(q))
    assert plain["status"] == "YES" and not plain["unique"]
    other = verdict_to_dict(decide(q, SearchConfig(seed=5, restarts=1), search=True))
    assert "".join(json_pieces(other)) == "".join(json_pieces(plain))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_out=st.integers(2, 3),
    d_env=st.integers(1, 3),
    mode=st.sampled_from(list(Mode)),
)
def test_search_evidence_checks_out(seed, d_out, d_env, mode):
    chan = random_channel(np.random.default_rng(seed), 2, d_out, d_env)
    v = decide(Query(chan, mode), SearchConfig(max_iters=300))
    if v.status == "YES":
        ok, report = verify_certificate(chan, mode, v.certificate)
        assert ok and report["tp"], report
    elif v.witness is not None:
        assert v.status == "NO"
        check_witness(chan, mode, v.witness)


@pytest.mark.parametrize("d, t", [(3, -0.4), (4, -0.3), (5, -0.1)])
def test_decide_peak_memory_is_at_most_ten_choi_arrays(d, t):
    # The degrading map's Choi matrix is d^3 x d^3 complex (environment d^2,
    # output d).  The search keeps four Choi-sized arrays (its iterate, the
    # last plain step, the family's base and row space) and, while it
    # projects or tests a witness, two more and at most two n x neg arrays
    # of negative eigenvectors; nothing else of that size is live, nor a
    # numpy ufunc buffer (up to 8192 elements).  So one decide stays below
    # 7.5 of them above the memory in use before it, and at d = 5, where
    # the search's start is already CP, below 6.5.
    bound = 6.5 if d == 5 else 7.5
    q = Query(td_channel(TDParams(d, t)), Mode.ANTIDEGRADABLE)
    decide(q)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        v = decide(q)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert v.status == "YES"
    assert peak <= bound * d**6 * 16, peak / (d**6 * 16)


@pytest.mark.parametrize(
    "chan, mode, max_iters, status",
    [
        (td_channel(TDParams(3, -0.45)), Mode.ANTIDEGRADABLE, 2000, "YES"),
        (td_channel(TDParams(2, -0.7)), Mode.ANTIDEGRADABLE, 2000, "NO"),
        (td_channel(TDParams(2, -2 / 3)), Mode.ANTIDEGRADABLE, 5, "INCONCLUSIVE"),
        (random_channel(np.random.default_rng(1), 2, 2, 3), Mode.CONJ_ANTIDEGRADABLE, 2000, "NO"),
    ],
    ids=["td3-yes", "td2-witness", "td2-inconclusive", "random-conj"],
)
def test_search_iterates_are_their_own_hermitian_part(monkeypatch, chan, mode, max_iters, status):
    # kernel_search hands each iterate to eigh without taking its Hermitian
    # part, which would be a copy of the same bytes.
    equal = []
    eigh = np.linalg.eigh

    def recording_eigh(H):
        equal.append(np.array_equal(H, (H + H.conj().T) / 2))
        return eigh(H)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    v = decide(Query(chan, mode), SearchConfig(max_iters=max_iters))
    assert v.status == status and not v.unique
    assert status != "NO" or v.witness is not None
    assert len(equal) >= 2 and all(equal), equal  # the candidate's and the loop's


# Census A and census B of ROADMAP.md: random_channel(default_rng(seed), *shape).
CENSUS = [
    (seed, (2, d_out, d_env)) for d_out, d_env in [(3, 3), (2, 3), (3, 2)] for seed in range(30)
] + [
    (1000 + seed, shape)
    for shape in [(3, 3, 2), (3, 2, 3), (3, 3, 3), (3, 4, 2), (2, 4, 2), (2, 2, 3)]
    for seed in range(20)
]


def test_screened_conj_degradable_yes_is_never_a_degradable_no():
    # Where ecd_screen rules out exclusive conjugate degradability, a
    # CONJ_DEGRADABLE YES must not meet a DEGRADABLE NO.  Of the 8 census
    # draws, 5 are DEGRADABLE YES and 3 INCONCLUSIVE (census A, shape
    # (2, 3, 2), seeds 17, 22, 27: rank-deficient systems), so the property
    # cannot yet read "is YES".
    statuses = []
    for seed, shape in CENSUS:
        chan = random_channel(np.random.default_rng(seed), *shape)
        if ecd_screen(chan)["hopeless"] and decide(Query(chan, Mode.CONJ_DEGRADABLE)).status == "YES":
            statuses.append(decide(Query(chan, Mode.DEGRADABLE)).status)
    assert len(statuses) == 8 and "NO" not in statuses, statuses


def test_decide_degradable_unitary_case():
    # t = -1 is a unitary conjugation composed with transposition: degradable
    v = decide(Query(td_channel(TDParams(2, -1.0)), Mode.DEGRADABLE))
    assert v.status == "YES"
    assert v.certificate is not None


def test_decide_degradable_no():
    v = decide(Query(td_channel(TDParams(2, 0.2)), Mode.DEGRADABLE))
    assert v.status == "NO"
    assert v.unique and v.consistent
    assert min(v.candidate_choi_eigs) < -1e-6


def test_decide_antidegradable_inconclusive_then_yes():
    # the qubit edge: the search needs more than 5 iterations to settle it
    q = Query(td_channel(TDParams(2, -2 / 3)), Mode.ANTIDEGRADABLE)
    v = decide(q, SearchConfig(max_iters=5))
    assert v.status == "INCONCLUSIVE"
    assert not v.unique
    assert v.kernel_dim == 48
    v2 = decide(q)
    assert v2.status == "YES"
    ok, _ = verify_certificate(q.channel, q.mode, v2.certificate)
    assert ok


@pytest.mark.parametrize(
    "chan, mode",
    [
        (td_channel(TDParams(3, -0.31)), Mode.ANTIDEGRADABLE),
        (td_channel(TDParams(4, -0.24)), Mode.ANTIDEGRADABLE),
        (depolarizing(DepolParams(2, 0.487)), Mode.ANTIDEGRADABLE),
        (td_complement_qubit(-0.494), Mode.DEGRADABLE),
    ],
)
def test_search_start_certifies_what_the_candidate_gate_leaves_open(chan, mode):
    # the pseudoinverse candidate is not CP, but the search's starting point,
    # its trace-preserving projection, is already a certificate: decide
    # returns it at iteration 0
    q = Query(chan, mode)
    known, target = _build_system(q)
    D0 = kernel_family(known, target).base
    assert not verify_certificate(chan, mode, D0)[1]["cp"]
    start = kernel_search(kernel_family(known, target), SearchConfig(max_iters=0))
    v = decide(q)
    assert v.status == "YES" and not v.unique
    npt.assert_array_equal(v.certificate.matrix, start.matrix)
    ok, report = verify_certificate(chan, mode, v.certificate)
    assert ok and report["tp"], report


@pytest.mark.parametrize(
    "chan", [td_channel(TDParams(3, -0.25)), depolarizing(DepolParams(2, 1 / 3))]
)
def test_yes_without_search_is_trace_preserving(chan):
    # the pseudoinverse candidate is CP but not TP here; the certificate is
    # its trace-preserving projection
    q = Query(chan, Mode.ANTIDEGRADABLE)
    known, target = _build_system(q)
    D0 = kernel_family(known, target).base
    ok, report = verify_certificate(chan, q.mode, D0)
    assert report["cp"] and not report["tp"] and not ok
    v = decide(q)
    assert v.status == "YES"
    ok, report = verify_certificate(chan, q.mode, v.certificate)
    assert ok and report["tp"] and report["tp_deviation"] < 1e-12, report
    npt.assert_allclose(
        v.candidate_choi_eigs, np.linalg.eigvalsh(superop_to_choi(D0).matrix), atol=1e-12
    )


def test_decide_antidegradable_candidate_eigs_at_zero():
    v = decide(Query(td_channel(TDParams(2, 0.0)), Mode.ANTIDEGRADABLE))
    assert v.status == "YES"
    npt.assert_allclose(v.candidate_choi_eigs, [0.5] * 8, atol=1e-10)


def test_decide_wide_channels_are_consistent_and_every_no_is_witnessed(rng):
    # with d_out > d_in the channel superop has full row rank, so the
    # composition equation is always solvable, and a NO can only come from
    # the search's witness
    witnessed = 0
    for _ in range(20):
        c = random_channel(rng, 2, 3, 2)
        v = decide(Query(c, Mode.DEGRADABLE))
        assert v.consistent
        if v.status == "NO":
            check_witness(c, Mode.DEGRADABLE, v.witness)
            witnessed += 1
    assert witnessed


@pytest.mark.parametrize("seed", range(20))
def test_qubit_channel_with_qubit_environment_is_degradable_or_antidegradable(seed):
    # Wolf & Perez-Garcia, PRA 75, 012303 (2007): a qubit channel with two
    # Kraus operators is degradable or antidegradable
    chan = random_channel(np.random.default_rng(8000 + seed), 2, 2, 2)
    verdicts = [decide(Query(chan, mode)) for mode in (Mode.DEGRADABLE, Mode.ANTIDEGRADABLE)]
    assert "YES" in [v.status for v in verdicts]
    for v in verdicts:
        if v.status == "YES":
            ok, report = verify_certificate(chan, v.mode, v.certificate)
            assert ok and report["tp"], report


def test_conjugate_modes_run(rng):
    c = random_channel(rng, 2, 3, 2)
    for mode in (Mode.CONJ_DEGRADABLE, Mode.CONJ_ANTIDEGRADABLE):
        v = decide(Query(c, mode))
        assert v.status in ("YES", "NO", "INCONCLUSIVE")
        assert v.mode == mode


def test_certificate_matrix_verifies():
    chan = td_channel(TDParams(2, -2 / 3))
    cert = SuperOp(4, 2, fixture_certificate_matrix())
    ok, report = verify_certificate(chan, Mode.ANTIDEGRADABLE, cert)
    assert ok
    assert report["residual"] < 1e-9
    assert report["choi_min_eigenvalue"] > -1e-9
    npt.assert_allclose(report["choi_trace"], 4.0, atol=1e-12)


def test_certificate_choi_has_doubled_eigenvalue():
    R = superop_to_choi(SuperOp(4, 2, fixture_certificate_matrix())).matrix
    w = np.sort(np.linalg.eigvalsh(R))
    npt.assert_allclose(w, [0, 0, 0, 0, 0, 0, 2, 2], atol=1e-12)


def test_verify_certificate_rejects_wrong_shape():
    chan = td_channel(TDParams(2, -2 / 3))
    ok, report = verify_certificate(chan, Mode.DEGRADABLE, SuperOp(2, 2, np.zeros((4, 4))))
    assert not ok and "error" in report


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_verify_certificate_rejects_non_finite_entries(bad):
    cert = fixture_certificate_matrix()
    cert[0, 0] = bad
    chan = td_channel(TDParams(2, -2 / 3))
    ok, report = verify_certificate(chan, Mode.ANTIDEGRADABLE, SuperOp(4, 2, cert))
    assert not ok and report == {"error": "certificate has non-finite entries"}


def test_ecd_screen_rules_out_small_cases(rng):
    out = ecd_screen(td_channel(TDParams(2, 0.2)))
    assert out["hopeless"]
    assert out["d_in"] == 2 and out["d_out"] == 2
    wide = ecd_screen(random_channel(rng, 2, 3, 2))
    assert "output dimension does not exceed input dimension" not in wide["reasons"]


def test_verdict_serialization_round_trip():
    v = decide(Query(td_channel(TDParams(2, 0.0)), Mode.ANTIDEGRADABLE))
    doc = verdict_to_dict(v)
    assert doc["schema_version"] == 1
    assert doc["status"] == "YES"
    blob = json.loads("".join(json_pieces(doc)))
    cert = blob["certificate"]
    D = SuperOp(cert["d_in"], cert["d_out"], from_pairs(cert["matrix"]))
    npt.assert_allclose(D.matrix, v.certificate.matrix, atol=1e-15)
    npt.assert_allclose(from_pairs(to_pairs(D.matrix)), D.matrix)


# The oracle and invariant tests below skip INCONCLUSIVE verdicts: only a
# settled status carries evidence.
ORACLE_CFG = SearchConfig(max_iters=500)


def _qubit_antidegradable_margin(chan):
    """Tr rho_B^2 - Tr rho^2 + 4 sqrt(det rho) for the normalized Choi state
    rho of a qubit-to-qubit channel, B the output: the channel is
    antidegradable iff this is >= 0 (Myhr et al., PRA 79, 042329 (2009);
    Chen et al., PRA 90, 032318 (2014))."""
    rho = chan.choi.matrix / chan.d_in
    rho_b = np.einsum("klkn->ln", rho.reshape(2, 2, 2, 2))
    det = max(float(np.linalg.det(rho).real), 0.0)
    return float(np.trace(rho_b @ rho_b).real - np.trace(rho @ rho).real) + 4 * np.sqrt(det)


def test_qubit_margin_vanishes_at_the_proven_edge():
    assert abs(_qubit_antidegradable_margin(td_channel(TDParams(2, -2 / 3)))) < 1e-12
    assert _qubit_antidegradable_margin(td_channel(TDParams(2, -0.7))) < -0.04
    assert _qubit_antidegradable_margin(depolarizing(DepolParams(2, 0.7))) < -0.04


@pytest.mark.parametrize("seed", [2009, 2012, 2015, 2021])
def test_search_settles_thin_full_rank_qubit_sets(seed):
    # Full-rank target Choi matrices whose smallest eigenvalues are near 0:
    # the YES probe settles them at iterations 7-127 (50-433 without it),
    # where plain alternating projections need 4,300 to over 20,000.
    chan = random_channel(np.random.default_rng(seed), 2, 2, 4)
    assert _qubit_antidegradable_margin(chan) > 0
    v = decide(Query(chan, Mode.ANTIDEGRADABLE))
    assert v.status == "YES"
    ok, report = verify_certificate(chan, Mode.ANTIDEGRADABLE, v.certificate)
    assert ok and report["tp"], report


def test_qubit_antidegradable_matches_the_closed_form():
    settled = []
    for seed in range(5000, 5040):
        chan = random_channel(np.random.default_rng(seed), 2, 2, 1 + seed % 4)
        v = decide(Query(chan, Mode.ANTIDEGRADABLE), ORACLE_CFG)
        if v.status != "INCONCLUSIVE":
            settled.append(v.status)
            assert (v.status == "YES") == (_qubit_antidegradable_margin(chan) >= 0), seed
    assert settled.count("YES") >= 5 and settled.count("NO") >= 5


def test_degradable_iff_complement_antidegradable():
    for seed in range(7000, 7020):
        chan = random_channel(np.random.default_rng(seed), 2, 2 + seed % 2, 2 + seed // 2 % 2)
        a = decide(Query(chan, Mode.DEGRADABLE), ORACLE_CFG).status
        b = decide(Query(complement(chan), Mode.ANTIDEGRADABLE), ORACLE_CFG)
        assert "INCONCLUSIVE" in (a, b.status) or a == b.status, seed


def test_kraus_remixing_keeps_every_settled_status():
    """Kraus operators U-mixed by a Haar unitary describe the same channel
    with a complement that differs by a unitary on the environment."""
    compared = 0
    for seed in range(6000, 6020):
        rng = np.random.default_rng(seed)
        chan = random_channel(rng, 2, 2 + seed % 2, 2 + seed // 2 % 2)
        ops = np.array(chan.kraus.operators)
        U = haar_isometry(rng, len(ops), len(ops))
        remixed = Channel(KrausSet(2, chan.d_out, tuple(np.tensordot(U, ops, axes=1))))
        for mode in Mode:
            a = decide(Query(chan, mode), ORACLE_CFG).status
            b = decide(Query(remixed, mode), ORACLE_CFG).status
            if "INCONCLUSIVE" not in (a, b):
                compared += 1
                assert a == b, (seed, mode)
    assert compared >= 40

