"""Exact decision procedures for zeroness and equivalence of weighted
basic parallel processes, CDF power series, and constructible species."""

from ._saturation import Outcome, SaturationStats, ZeroVerdict
from .groebner import GroebnerLimits
from .poly import Context, Derivation, Poly

__all__ = [
    "Context",
    "Derivation",
    "GroebnerLimits",
    "Outcome",
    "Poly",
    "SaturationStats",
    "ZeroVerdict",
]

__version__ = "0.1.0"
