import json
from pathlib import Path

import numpy as np
import pytest

from chandeg.channel import Channel, KrausSet, apply
from chandeg.linalg import DEFAULT_TOL


def random_state(rng, d):
    """Random full-rank density matrix (normalized Gram matrix)."""
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    G = X @ X.conj().T
    return G / np.trace(G)


def haar_isometry(rng, rows, cols):
    """Haar-distributed isometry (rows >= cols); a unitary when rows == cols."""
    G = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    Q, R = np.linalg.qr(G)
    # fix the gauge so Q is Haar distributed
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_channel(rng, d_in, d_out, d_env):
    """Random channel from a Haar-distributed Stinespring isometry."""
    if d_out * d_env < d_in:
        raise ValueError("need d_out * d_env >= d_in for an isometry")
    blocks = haar_isometry(rng, d_out * d_env, d_in).reshape(d_env, d_out, d_in)
    return Channel(KrausSet(d_in, d_out, tuple(blocks[e] for e in range(d_env))))


def is_unital(c):
    """True when the channel maps I/d_in to I/d_out, within the default residual_tol."""
    out = apply(c.superop, np.eye(c.d_in) / c.d_in)
    return bool(np.linalg.norm(out - np.eye(c.d_out) / c.d_out) <= DEFAULT_TOL.residual_tol)


def fixture_certificate_matrix():
    """The 16 x 4 superoperator of the stored antidegrading certificate for
    the qubit TD channel at t = -2/3, decoded with plain complex(re, im)."""
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    doc = json.loads((fixtures / "antidegrading_certificate_qubit_td.json").read_text())
    return np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
