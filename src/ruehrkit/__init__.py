"""Exact-arithmetic cross-verification of a family of classical identities:
binomial sums as integrals, the four-way Ruehr chain, the Kimura-Ruehr
moment equality, beta-distribution closed forms, and the large-deviation
tail sums behind generalized 3x+1-style density arguments.

Every identity is checked over arbitrary-precision rationals, most of
them by two independent computational paths (identities names the checks
that run one function on both sides); nothing is floating point except
the explicitly approximate decay-rate profile.
"""

__version__ = "0.1.0"
