import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from chandeg.channel import SuperOp, complement, is_cp, superop_to_choi
from chandeg.degradability import (
    InconsistentSystem,
    Mode,
    Query,
    SearchConfig,
    Witness,
    _build_system,
    candidate_map,
    decide,
    ecd_screen,
    kernel_family,
    kernel_search,
    superop_from_pairs,
    superop_to_pairs,
    swap_superop,
    uniqueness,
    verdict_to_dict,
    verify_certificate,
)
from chandeg.linalg import numeric_rank
from chandeg.zoo import (
    DepolParams,
    TDParams,
    antidegrading_candidate_matrix,
    antidegrading_certificate_matrix,
    depolarizing,
    td_channel,
)

from conftest import random_channel, random_state


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


def test_swap_superop_acts_as_transpose(rng):
    from chandeg.channel import apply

    for d in (2, 3):
        C = swap_superop(d)
        rho = random_state(rng, d)
        npt.assert_allclose(apply(C, rho), rho.T, atol=1e-14)
        npt.assert_array_equal(C.matrix @ C.matrix, np.eye(d * d))


def test_swap_composition_preserves_rank(rng):
    D = rng.normal(size=(9, 9)) @ np.diag([1, 1, 1, 1, 0, 0, 0, 0, 0.0])
    assert numeric_rank(D @ swap_superop(3).matrix) == numeric_rank(D)


def test_candidate_map_identity_known(rng):
    known = SuperOp(2, 2, np.eye(4))
    target = td_channel(TDParams(2, 0.2)).superop
    D, consistent, residual = candidate_map(known, target)
    assert consistent and residual < 1e-12
    npt.assert_allclose(D.matrix, target.matrix, atol=1e-12)


def test_candidate_map_reproduces_closed_form():
    for t in (-2 / 3, -0.25, 0.25):
        chan = td_channel(TDParams(2, t))
        comp = complement(chan)
        D, consistent, _ = candidate_map(comp.superop, chan.superop)
        assert consistent
        npt.assert_allclose(D.matrix, antidegrading_candidate_matrix(t), atol=1e-8)


def test_degrading_candidate_negative_outside_unitary_case():
    # the degrading candidate of a nondegradable qubit map fails positivity
    chan = td_channel(TDParams(2, 0.2))
    comp = complement(chan)
    D, consistent, _ = candidate_map(chan.superop, comp.superop)
    assert consistent
    cp, min_eig = is_cp(superop_to_choi(D))
    assert not cp and min_eig < -1e-6


def test_uniqueness_predicate():
    assert uniqueness(2, 2, 4)
    assert not uniqueness(2, 2, 3)
    assert not uniqueness(2, 4, 4)  # output exceeds input: wide system
    assert uniqueness(3, 2, 4)


def test_kernel_family_qubit_antidegradable():
    chan = td_channel(TDParams(2, -2 / 3))
    comp = complement(chan)
    fam = kernel_family(comp.superop, chan.superop)
    # complement superop is 16x4 with rank 4 -> 12 null directions x 4 columns
    assert len(fam.basis) == 48 == fam.kernel_dim
    B = np.array([b.reshape(16, 4) for b in fam.basis])
    npt.assert_allclose(comp.superop.matrix @ B, 0, atol=1e-12)
    gram = np.einsum("mij,nij->mn", B.conj(), B)
    npt.assert_allclose(gram, np.eye(48), atol=1e-12)


def test_kernel_family_members_solve_the_system(rng):
    chan = td_channel(TDParams(2, -0.5))
    comp = complement(chan)
    fam = kernel_family(comp.superop, chan.superop)
    for _ in range(5):
        coeffs = rng.normal(size=48) + 1j * rng.normal(size=48)
        D = fam.base.matrix + sum(a * b.reshape(16, 4) for a, b in zip(coeffs, fam.basis))
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
    with pytest.raises(InconsistentSystem):
        kernel_family(depolarize_all, SuperOp(2, 2, np.eye(4)))


def test_kernel_search_finds_certificate_at_boundary():
    chan = td_channel(TDParams(2, -2 / 3))
    comp = complement(chan)
    fam = kernel_family(comp.superop, chan.superop)
    found = kernel_search(fam, SearchConfig(seed=7))
    assert found is not None
    ok, report = verify_certificate(chan, Mode.ANTIDEGRADABLE, found)
    assert ok, report


def test_kernel_search_fails_outside_known_region():
    chan = td_channel(TDParams(2, -0.8))
    comp = complement(chan)
    fam = kernel_family(comp.superop, chan.superop)
    witness = kernel_search(fam, SearchConfig(seed=7, restarts=8))
    assert isinstance(witness, Witness)
    check_witness(chan, Mode.ANTIDEGRADABLE, witness)


def _qubit(family, p):
    if family == "td":
        return td_channel(TDParams(2, p))
    return depolarizing(DepolParams(2, p))


@pytest.mark.parametrize("family, p", [("td", -0.8), ("td", -0.7), ("depol", 0.7)])
def test_search_past_the_edge_is_no_with_witness(family, p):
    chan = _qubit(family, p)
    v = decide(Query(chan, Mode.ANTIDEGRADABLE), SearchConfig(seed=0), search=True)
    assert v.status == "NO" and v.certificate is None
    check_witness(chan, Mode.ANTIDEGRADABLE, v.witness)
    doc = verdict_to_dict(v)
    assert doc["witness"]["margin"] == v.witness.margin < 0


@pytest.mark.parametrize("family, p", [("td", -2 / 3), ("depol", 2 / 3)])
def test_search_yes_exactly_at_the_edge(family, p):
    chan = _qubit(family, p)
    v = decide(Query(chan, Mode.ANTIDEGRADABLE), SearchConfig(seed=0), search=True)
    assert v.status == "YES" and v.witness is None
    ok, report = verify_certificate(chan, Mode.ANTIDEGRADABLE, v.certificate)
    assert ok and report["tp"], report


def test_search_opens_ququart():
    chan = td_channel(TDParams(4, -0.3))
    v = decide(Query(chan, Mode.ANTIDEGRADABLE), SearchConfig(seed=0), search=True)
    assert v.status == "YES"
    ok, report = verify_certificate(chan, Mode.ANTIDEGRADABLE, v.certificate)
    assert ok and report["tp"], report


def test_search_gives_up_after_max_iters():
    chan = td_channel(TDParams(3, -0.45))
    v = decide(Query(chan, Mode.ANTIDEGRADABLE), SearchConfig(seed=0, max_iters=5), search=True)
    assert v.status == "INCONCLUSIVE" and v.certificate is None and v.witness is None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_out=st.integers(2, 3),
    d_env=st.integers(1, 3),
    mode=st.sampled_from(list(Mode)),
)
def test_search_evidence_checks_out(seed, d_out, d_env, mode):
    chan = random_channel(np.random.default_rng(seed), 2, d_out, d_env)
    v = decide(Query(chan, mode), SearchConfig(seed=0, max_iters=300), search=True)
    if v.status == "YES":
        ok, report = verify_certificate(chan, mode, v.certificate)
        assert ok and report["tp"], report
    elif v.witness is not None:
        assert v.status == "NO"
        check_witness(chan, mode, v.witness)


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
    q = Query(td_channel(TDParams(2, -2 / 3)), Mode.ANTIDEGRADABLE)
    v = decide(q)
    assert v.status == "INCONCLUSIVE"
    assert not v.unique
    assert v.kernel_dim == 48
    v2 = decide(q, SearchConfig(seed=11), search=True)
    assert v2.status == "YES"
    ok, _ = verify_certificate(q.channel, q.mode, v2.certificate)
    assert ok


@pytest.mark.parametrize(
    "chan", [td_channel(TDParams(3, -0.25)), depolarizing(DepolParams(2, 1 / 3))]
)
def test_yes_without_search_is_trace_preserving(chan):
    # the pseudoinverse candidate is CP but not TP here; the certificate is
    # its trace-preserving projection
    q = Query(chan, Mode.ANTIDEGRADABLE)
    known, target = _build_system(q)
    D0, _, _ = candidate_map(known, target)
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


def test_decide_never_no_for_wide_channels(rng):
    # with d_out > d_in the channel superop has full row rank, so the
    # composition equation is always solvable and NO cannot occur
    for _ in range(20):
        c = random_channel(rng, 2, 3, 2)
        v = decide(Query(c, Mode.DEGRADABLE))
        assert v.consistent
        assert v.status in ("YES", "INCONCLUSIVE")


def test_conjugate_modes_run(rng):
    c = random_channel(rng, 2, 3, 2)
    for mode in (Mode.CONJ_DEGRADABLE, Mode.CONJ_ANTIDEGRADABLE):
        v = decide(Query(c, mode))
        assert v.status in ("YES", "NO", "INCONCLUSIVE")
        assert v.mode == mode


def test_certificate_matrix_verifies():
    chan = td_channel(TDParams(2, -2 / 3))
    cert = SuperOp(4, 2, antidegrading_certificate_matrix())
    ok, report = verify_certificate(chan, Mode.ANTIDEGRADABLE, cert)
    assert ok
    assert report["residual"] < 1e-9
    assert report["choi_min_eigenvalue"] > -1e-9
    npt.assert_allclose(report["choi_trace"], 4.0, atol=1e-12)


def test_certificate_choi_has_doubled_eigenvalue():
    R = superop_to_choi(SuperOp(4, 2, antidegrading_certificate_matrix())).matrix
    w = np.sort(np.linalg.eigvalsh(R))
    npt.assert_allclose(w, [0, 0, 0, 0, 0, 0, 2, 2], atol=1e-12)


def test_verify_certificate_rejects_wrong_shape():
    chan = td_channel(TDParams(2, -2 / 3))
    ok, report = verify_certificate(chan, Mode.DEGRADABLE, SuperOp(2, 2, np.zeros((4, 4))))
    assert not ok and "error" in report


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
    blob = json.loads(json.dumps(doc))
    cert = blob["certificate"]
    D = superop_from_pairs(cert["d_in"], cert["d_out"], cert["matrix"])
    npt.assert_allclose(D.matrix, v.certificate.matrix, atol=1e-15)
    npt.assert_allclose(superop_from_pairs(4, 2, superop_to_pairs(D)).matrix, D.matrix)
