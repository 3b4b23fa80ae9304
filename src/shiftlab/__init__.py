"""shiftlab: orbit-norm dynamics of weighted shifts on Köthe sequence spaces.

Finite-horizon certificates for expansivity criteria, an exact-arithmetic
reconstruction of the block-structured chaotic weight sequence with a full
inequality audit, upper-density chaos diagnostics, and a closure-law suite.
"""

__version__ = "0.1.0"

from .scalars import Exact, LogMagnitude
from .spaces import SparseVector, SpaceSpec, basis_vector, preset, seminorm
from .shifts import ShiftOperator, WeightSequence, apply, basis_orbit_norm, constant_weights
from .criteria import HorizonConfig, Verdict, VerdictKind
from .blocks import build_blocks

__all__ = [
    "Exact",
    "HorizonConfig",
    "LogMagnitude",
    "ShiftOperator",
    "SparseVector",
    "SpaceSpec",
    "Verdict",
    "VerdictKind",
    "WeightSequence",
    "apply",
    "basis_orbit_norm",
    "basis_vector",
    "build_blocks",
    "constant_weights",
    "preset",
    "seminorm",
    "__version__",
]
