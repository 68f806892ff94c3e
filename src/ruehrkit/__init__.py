"""Exact-arithmetic cross-verification of a family of classical identities:
binomial sums as integrals, the four-way Ruehr chain, the Kimura-Ruehr
moment equality, beta-distribution closed forms, and the large-deviation
tail sums behind generalized 3x+1-style density arguments.

Every identity is checked over arbitrary-precision rationals by two
independent computational paths; nothing is floating point except the
explicitly approximate decay-rate profile.
"""

from .exact_math import (
    InternalInconsistencyError,
    Polynomial,
    binomial,
)
from .identities import SidePair, SumFamily, compare_sides

__version__ = "0.1.0"

__all__ = [
    "InternalInconsistencyError",
    "Polynomial",
    "SidePair",
    "SumFamily",
    "binomial",
    "compare_sides",
    "__version__",
]
