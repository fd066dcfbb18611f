"""The shared numerical rules at their edges: the CP-range test with its
absolute slack, and the PSD floor that every positivity test compares against."""

import numpy as np
import pytest

from chandeg.capacity import td_complement_capacity
from chandeg.channel import ChoiMatrix, is_cp, is_ppt, partial_transpose
from chandeg.linalg import psd_floor
from chandeg.zoo import OutOfCPRange, TDParams, td_complement_qubit

# (accepts t or raises OutOfCPRange, lo, hi): every user of the transpose-
# depolarizing CP range [-1/(d-1), 1/(d+1)].
RANGE_USERS = [
    pytest.param(lambda t, d=d: TDParams(d, t), -1 / (d - 1), 1 / (d + 1), id=f"TDParams-d{d}")
    for d in (2, 3, 4, 5)
] + [
    pytest.param(td_complement_qubit, -1.0, 1 / 3, id="td_complement_qubit"),
] + [
    pytest.param(
        lambda t, d=d: td_complement_capacity(d, t), -1 / (d - 1), 1 / (d + 1),
        id=f"td_complement_capacity-d{d}",
    )
    for d in (2, 3)
]


@pytest.mark.parametrize("build, lo, hi", RANGE_USERS)
def test_cp_range_slack_at_both_ends(build, lo, hi):
    build(lo - 0.5e-12)
    build(hi + 0.5e-12)
    for t in (lo - 1e-11, hi + 1e-11):
        with pytest.raises(OutOfCPRange):
            build(t)


@pytest.mark.parametrize("offset, accepted", [(1e-2, True), (-1e-2, False)])
def test_psd_floor_is_one_rule(offset, accepted):
    # A 4x4 matrix with trace about 3.5 whose smallest eigenvalue sits 1 %
    # above or below the floor -psd_tol * trace.
    q, _ = np.linalg.qr(np.arange(16.0).reshape(4, 4) + np.eye(4) * 5.0)
    lam_min = -1e-9 * 3.5 * (1.0 - offset)
    m = (q * [2.0, 1.0, 0.5, lam_min]) @ q.T
    # The same matrix scaled to unit trace: its smallest eigenvalue sits 1 %
    # above or below the floor -psd_tol too.
    state = m / np.trace(m)
    for x in (m, state):
        floor = psd_floor(x)
        assert (np.linalg.eigvalsh(x)[0] >= floor) == accepted
        assert abs(np.linalg.eigvalsh(x)[0] - floor) > 1e-3 * abs(floor)

    assert is_cp(ChoiMatrix(2, 2, m))[0] == accepted
    # The partial transpose is an involution, so m is the partial transpose
    # of its own partial transpose.
    assert is_ppt(ChoiMatrix(2, 2, partial_transpose(ChoiMatrix(2, 2, m)))) == accepted
