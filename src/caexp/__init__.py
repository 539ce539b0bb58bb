"""Simulation and analysis toolkit for cellular automata over Z, Z^2 and
free groups, with exact oracles and bounded searches for expansivity-style
properties of the example families."""

from .alphabet import Bits, Cyclic, Pair
from .config import Configuration, random_config
from .engine import FrontSeries, TracePrefix, fronts, iterate, step, trace
from .errors import ResourceLimitError, UsageError
from .lattice import Z, Z2, FreeLattice, free, lattice_by_kind
from .rules import (LayeredFlipRule, LinearRule, MultRule, Rule,
                    SecondOrderInverseRule, SecondOrderRule)

__version__ = "0.1.0"

__all__ = [
    "Bits", "Cyclic", "Pair",
    "Configuration", "random_config",
    "FrontSeries", "TracePrefix", "fronts", "iterate", "step", "trace",
    "ResourceLimitError", "UsageError",
    "Z", "Z2", "FreeLattice", "free", "lattice_by_kind",
    "LayeredFlipRule", "LinearRule", "MultRule", "Rule",
    "SecondOrderInverseRule", "SecondOrderRule",
    "__version__",
]
