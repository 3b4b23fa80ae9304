"""shiftlab: orbit-norm dynamics of weighted shifts on Köthe sequence spaces.

Finite-horizon certificates for expansivity criteria, an exact-arithmetic
reconstruction of the block-structured chaotic weight sequence with a full
inequality audit, upper-density chaos diagnostics, and a closure-law suite.
"""

__version__ = "0.1.0"

from .scalars import Exact
from .spaces import SpaceSpec, preset
from .shifts import ShiftOperator, WeightSequence, basis_orbit_norm, constant_weights
from .criteria import HorizonConfig, Verdict, VerdictKind
from .blocks import build_blocks

__all__ = [
    "Exact",
    "HorizonConfig",
    "ShiftOperator",
    "SpaceSpec",
    "Verdict",
    "VerdictKind",
    "WeightSequence",
    "basis_orbit_norm",
    "build_blocks",
    "constant_weights",
    "preset",
    "__version__",
]
