"""shiftlab: orbit-norm dynamics of weighted shifts on Köthe sequence spaces.

Finite-horizon certificates for expansivity criteria, an exact-arithmetic
reconstruction of the block-structured chaotic weight sequence with a full
inequality audit, upper-density chaos diagnostics, and a closure-law suite.
"""

__version__ = "0.1.0"

from .scalars import Exact
from .spaces import SpaceSpec, preset
from .shifts import ShiftOperator, WeightSequence, basis_orbit_norm, constant_weights


def __getattr__(name):
    # PEP 562: the criteria names load the log lane, and numpy, on first use;
    # build_blocks loads the block construction
    if name in ("HorizonConfig", "Verdict", "VerdictKind"):
        from . import criteria
        return getattr(criteria, name)
    if name == "build_blocks":
        from .blocks import build_blocks
        return build_blocks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
