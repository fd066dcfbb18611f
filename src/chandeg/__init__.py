"""Degradability analysis for finite-dimensional quantum channels."""

from .linalg import Tolerance, DEFAULT_TOL
from .channel import (
    Channel,
    ChoiMatrix,
    KrausSet,
    SuperOp,
    apply,
    complement,
)
from .zoo import (
    ClonerParams,
    DepolParams,
    TDParams,
    depolarizing,
    known_antidegradable_range,
    td_channel,
    td_complement_qubit,
)

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Channel",
    "ChoiMatrix",
    "KrausSet",
    "SuperOp",
    "apply",
    "complement",
    "ClonerParams",
    "DepolParams",
    "TDParams",
    "depolarizing",
    "known_antidegradable_range",
    "td_channel",
    "td_complement_qubit",
]

__version__ = "0.1.0"
