"""carnotpoly: exact computations in stratified nilpotent Lie groups.

Builds free nilpotent Lie algebras on Hall bases, realizes the groups in
exponential coordinates of the second kind, computes graded prolongations
and extremal polynomials, verifies their structure formulas exactly, and
detects abnormal and Goh extremals along sampled horizontal curves.
"""

from .algebra import GradedLieAlgebra, StructureError, validate
from .freelie import DimensionCapError, HallWord, build_free, witt_dimension

__all__ = [
    "GradedLieAlgebra",
    "StructureError",
    "validate",
    "DimensionCapError",
    "HallWord",
    "build_free",
    "witt_dimension",
]
