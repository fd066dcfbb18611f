import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from chandeg.channel import (
    Channel,
    ChoiMatrix,
    DimensionMismatch,
    KrausSet,
    NotTP,
    SuperOp,
    apply,
    apply_choi,
    channel_from_dict,
    channel_to_dict,
    choi_rank,
    choi_to_superop,
    complement,
    is_cp,
    is_ppt,
    is_tp,
    json_pieces,
    kraus_to_choi,
    partial_transpose,
    superop_to_choi,
    to_pairs,
)
from chandeg.zoo import TDParams, td_channel

from conftest import is_unital, random_channel, random_state


def identity_channel(d):
    return Channel(KrausSet(d, d, (np.eye(d),)))


def test_identity_choi_is_maximally_entangled():
    R = kraus_to_choi(KrausSet(2, 2, (np.eye(2),)))
    phi = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            phi[i, j] = 1.0
    npt.assert_allclose(R.matrix, phi, atol=1e-14)
    assert np.isclose(np.trace(R.matrix), 2.0)


def test_td_choi_structure():
    t = 0.2
    R = td_channel(TDParams(2, t)).choi.matrix
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1
    npt.assert_allclose(R, t * swap + (1 - t) / 2 * np.eye(4), atol=1e-12)
    w = np.sort(np.linalg.eigvalsh(R))
    npt.assert_allclose(w, [-t + (1 - t) / 2] + [t + (1 - t) / 2] * 3, atol=1e-12)


def test_completely_depolarizing_choi():
    R = td_channel(TDParams(2, 0.0)).choi.matrix
    npt.assert_allclose(R, np.eye(4) / 2, atol=1e-12)


def test_reshuffle_round_trip(rng):
    M = SuperOp(2, 3, rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9)))
    back = choi_to_superop(superop_to_choi(M))
    npt.assert_array_equal(back.matrix, M.matrix)


def test_identity_superop():
    npt.assert_allclose(identity_channel(2).superop.matrix, np.eye(4), atol=1e-14)


def test_superop_action_matches_direct_formula(rng):
    t = 1 / 3
    c = td_channel(TDParams(2, t))
    for _ in range(10):
        rho = random_state(rng, 2)
        npt.assert_allclose(
            apply(c.superop, rho), t * rho.T + (1 - t) / 2 * np.eye(2), atol=1e-12
        )


def test_apply_and_apply_choi_agree(rng):
    for _ in range(100):
        c = random_channel(rng, rng.integers(2, 4), rng.integers(2, 4), 3)
        rho = random_state(rng, c.d_in)
        npt.assert_allclose(apply(c.superop, rho), apply_choi(c.choi, rho), atol=1e-9)


def test_apply_dimension_mismatch():
    c = identity_channel(2)
    with pytest.raises(DimensionMismatch):
        apply(c.superop, np.eye(3) / 3)
    with pytest.raises(DimensionMismatch):
        apply_choi(c.choi, np.eye(3) / 3)


@pytest.mark.parametrize("dims", [(0, 2), (2, -4), (4.7, 2), (2, 2.0), (True, 2), (2, False)])
def test_dimensions_must_be_positive_integers(dims):
    d_in, d_out = dims
    for build in (
        lambda: KrausSet(d_in, d_out, (np.zeros((2, 2)),)),
        lambda: ChoiMatrix(d_in, d_out, np.zeros((4, 4))),
        lambda: SuperOp(d_in, d_out, np.zeros((4, 4))),
    ):
        with pytest.raises(ValueError, match="dimensions must be integers >= 1"):
            build()


def test_compose(rng):
    # "apply M first, then N" is the plain product of the superoperators
    M = random_channel(rng, 2, 3, 2)
    N = random_channel(rng, 3, 2, 3)
    both = SuperOp(2, 2, M.superop.matrix @ N.superop.matrix)
    rho = random_state(rng, 2)
    npt.assert_allclose(apply(both, rho), apply(N.superop, apply(M.superop, rho)), atol=1e-10)
    ident = identity_channel(3)
    npt.assert_allclose(M.superop.matrix @ ident.superop.matrix, M.superop.matrix, atol=1e-12)


def test_compose_after_full_depolarization(rng):
    dep = td_channel(TDParams(2, 0.0))
    N = random_channel(rng, 2, 2, 2)
    both = SuperOp(2, 2, dep.superop.matrix @ N.superop.matrix)
    expected = apply(N.superop, np.eye(2) / 2)
    for _ in range(5):
        npt.assert_allclose(apply(both, random_state(rng, 2)), expected, atol=1e-10)


def test_complement_of_identity_is_trivial(rng):
    comp = complement(identity_channel(2))
    assert comp.d_out == 1
    rho = random_state(rng, 2)
    npt.assert_allclose(apply(comp.superop, rho), [[1.0]], atol=1e-12)


def test_complement_requires_tp():
    with pytest.raises(NotTP):
        complement(Channel(KrausSet(2, 2, (0.5 * np.eye(2),))))


def test_complement_entries_are_overlap_traces(rng):
    c = random_channel(rng, 3, 2, 4)
    comp = complement(c)
    rho = random_state(rng, 3)
    out = apply(comp.superop, rho)
    for e, Ke in enumerate(c.kraus.operators):
        for f, Kf in enumerate(c.kraus.operators):
            npt.assert_allclose(out[e, f], np.trace(Kf.conj().T @ Ke @ rho), atol=1e-10)


def test_complement_is_tp(rng):
    comp = complement(random_channel(rng, 2, 3, 3))
    ok, _ = is_tp(comp.choi)
    assert ok


def test_td_cp_boundaries():
    for d in (2, 3, 4):
        lo, hi = -1 / (d - 1), 1 / (d + 1)
        for t in (lo, 0.0, hi):
            ok, _ = is_cp(td_channel(TDParams(d, t)).choi)
            assert ok
        # just outside the range the Choi matrix acquires a negative eigenvalue
        eps = 1e-6
        swap = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                swap[i * d + j, j * d + i] = 1
        for t in (lo - eps, hi + eps):
            R = ChoiMatrix(d, d, t * swap + (1 - t) / d * np.eye(d * d))
            ok, _ = is_cp(R)
            assert not ok


def test_td_is_unital_and_tp():
    for t in (-0.5, 0.0, 0.25):
        c = td_channel(TDParams(2, t))
        assert is_unital(c)
        ok, _ = is_tp(c.choi)
        assert ok


def test_td_complement_unitality():
    # the environment side is unital only at t = 0, where all Choi
    # eigenvalues coincide
    for t, unital in ((-1.0, False), (0.0, True), (1 / 3, False), (0.2, False), (-0.5, False)):
        comp = complement(td_channel(TDParams(2, t)))
        assert is_unital(comp) == unital


def test_choi_rank_values():
    assert choi_rank(identity_channel(2)) == 1
    assert choi_rank(td_channel(TDParams(2, 0.17))) == 4
    assert choi_rank(td_channel(TDParams(3, 0.1))) == 9


def test_ppt():
    assert is_ppt(ChoiMatrix(2, 2, np.eye(4) / 2))
    phi = kraus_to_choi(KrausSet(2, 2, (np.eye(2),)))
    assert not is_ppt(phi)
    pt = partial_transpose(phi)
    assert np.isclose(np.linalg.eigvalsh(pt)[0], -1.0)
    assert np.linalg.matrix_rank(pt) == 4


def test_representation_coherence_cycle(rng):
    for _ in range(30):
        d_in, d_out = rng.integers(2, 4), rng.integers(2, 4)
        c = random_channel(rng, d_in, d_out, int(rng.integers(2, 5)))
        R = superop_to_choi(choi_to_superop(c.choi))
        rho = random_state(rng, d_in)
        npt.assert_allclose(apply_choi(R, rho), apply(c.superop, rho), atol=1e-9)


def test_channel_json_round_trip(rng):
    c = random_channel(rng, 2, 3, 2)
    doc = channel_to_dict(c)
    assert doc["schema_version"] == 1
    c2 = channel_from_dict(doc)
    npt.assert_allclose(c2.superop.matrix, c.superop.matrix, atol=1e-12)
    with pytest.raises(ValueError):
        channel_from_dict({"d_in": 2})


REALS = st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]) | st.floats()


@st.composite
def complex_matrices(draw):
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rows, cols = draw(st.sampled_from([(1, 1), (1, m), (n, 1), (n, m)]))
    parts = draw(st.lists(REALS, min_size=2 * rows * cols, max_size=2 * rows * cols))
    # Interleaved (re, im) pairs, so that no arithmetic touches NaN or inf.
    return np.array(parts).view(complex).reshape(rows, cols)


JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | REALS | st.text() | complex_matrices(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


def _with_pairs(doc):
    if isinstance(doc, np.ndarray):
        return to_pairs(doc)
    if isinstance(doc, dict):
        return {k: _with_pairs(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_with_pairs(v) for v in doc]
    return doc


@given(JSON_DOCS)
def test_json_pieces_match_json_dumps(doc):
    want = json.dumps(_with_pairs(doc), sort_keys=True, indent=2) + "\n"
    assert "".join(json_pieces(doc)) == want
