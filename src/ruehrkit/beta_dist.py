"""Exact beta integrals and the distribution identities they encode.

Parameters are positive integers throughout, which keeps every quantity an
exact rational: the complete beta function has a factorial closed form and
the incomplete beta integral has a polynomial integrand.  The binomial
survival function and the negative binomial CDF are both regularized beta
values, and those identities are what the two *_sides checkers verify.

The primitives each side uses: the lhs of binom_tail_sides and
negbinom_cdf_sides (and negbinom_tail_partial) is a term-by-term binomial
sum, run in integers over one power of the denominator v of p = u/v and
divided once at the end.  Each walks from the far end of its sum by
exact ratio steps (exact_math's _walked_sum): _negbinom_mass along the
diagonal C(r+s-1, s), and binom_tail_sides through the comtet1 partial sum
of identities, reindexed.  The rhs is regularized_beta: incomplete_beta,
t^(x-1) (1-t)^(y-1) integrated by exact_math._unreduced_beta_integral,
over beta_exact, which is factorials only.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact_math import Scalar, _unreduced_beta_integral, _walked_sum, binomial
from .identities import SidePair, _comtet1_lhs, compare_sides


def _require_positive_params(x: int, y: int) -> None:
    if x < 1 or y < 1:
        raise ValueError(f"beta parameters must be integers >= 1, got x={x}, y={y}")


def beta_exact(x: int, y: int) -> Fraction:
    """B(x, y) = (x-1)! (y-1)! / (x+y-1)! for integer x, y >= 1.

    The integral route to the same value is incomplete_beta(1, x, y).  A
    widely reprinted "closed form" (x+y)/x * C(x+y, x)^-1 equals neither
    (try x=2, y=3: 1/4 versus 1/12), and the test suite pins the
    discrepancy.
    """
    _require_positive_params(x, y)
    return Fraction(math.factorial(x - 1) * math.factorial(y - 1),
                    math.factorial(x + y - 1))


def incomplete_beta(p, x: int, y: int) -> Fraction:
    """B_p(x, y) = integral_0^p t^(x-1) (1-t)^(y-1) dt, exact."""
    _require_positive_params(x, y)
    if not 0 <= p <= 1:
        raise ValueError(f"incomplete_beta requires p in [0, 1], got {p}")
    return Fraction(*_unreduced_beta_integral(1, -1, y - 1, x - 1, 0, p))


def regularized_beta(p, x: int, y: int) -> Fraction:
    """I_p(x, y) = B_p(x, y) / B(x, y), exact."""
    return incomplete_beta(p, x, y) / beta_exact(x, y)


def binom_tail_sides(n: int, a: int, p) -> SidePair:
    """Binomial upper tail versus its regularized-beta closed form.

    lhs = sum_{a<=s<=n} C(n, s) p^s (1-p)^(n-s)
    rhs = I_p(a, n-a+1)

    With i = n - s the lhs is the comtet1 partial binomial sum
    sum_{0<=i<=n-a} C(n, i) p^(n-i) (1-p)^i, so it is taken from there.
    """
    if n < 1:
        raise ValueError(f"binom_tail_sides requires n >= 1, got {n}")
    if not 1 <= a <= n:
        raise ValueError(f"binom_tail_sides requires 1 <= a <= n, got a={a}, n={n}")
    if not 0 <= p <= 1:
        raise ValueError(f"binom_tail_sides requires p in [0, 1], got {p}")
    lhs = _comtet1_lhs(n, n - a, p, 1 - p)
    rhs = regularized_beta(p, a, n - a + 1)
    return compare_sides(lhs, rhs)


def _negbinom_mass(r: int, lo: int, hi: int, p: Scalar) -> Fraction:
    """sum_{lo<=s<=hi} C(r+s-1, s) p^r (1-p)^s, over the one denominator v^(r+hi).

    With p = u/v each term is C(r+s-1, s) u^r (v-u)^s v^(hi-s) / v^(r+hi);
    the sum runs in integers and one Fraction is made at the end.  It starts
    from C(r+hi-1, hi) and walks down the diagonal by
    C(r+s-2, s-1) = C(r+s-1, s) s / (r+s-1), in Horner order in v - u.
    """
    u, v = p.numerator, p.denominator
    total = _walked_sum(binomial(r + hi - 1, hi),
                        zip(range(hi, lo, -1), range(r + hi - 1, r + lo - 1, -1)), v, v - u)
    return Fraction(u ** r * (v - u) ** lo * total, v ** (r + hi))


def negbinom_cdf_sides(r: int, k: int, p) -> SidePair:
    """Negative binomial CDF versus its regularized-beta closed form.

    lhs = sum_{0<=s<=k} C(r+s-1, s) p^r (1-p)^s
    rhs = I_p(r, k+1)

    This is the finite identity that holds exactly; the matching tail
    statement only holds with the failure count summed to infinity, which
    negbinom_tail_partial approaches monotonically.
    """
    if r < 1:
        raise ValueError(f"negbinom_cdf_sides requires r >= 1, got {r}")
    if k < 0:
        raise ValueError(f"negbinom_cdf_sides requires k >= 0, got {k}")
    if not 0 < p <= 1:
        raise ValueError(f"negbinom_cdf_sides requires p in (0, 1], got {p}")
    lhs = _negbinom_mass(r, 0, k, p)
    rhs = regularized_beta(p, r, k + 1)
    return compare_sides(lhs, rhs)


def negbinom_tail_partial(r: int, a: int, p, m_max: int) -> Fraction:
    """Partial negative binomial survivor mass sum_{a<=s<=m_max}.

    Each term is C(r+s-1, s) p^r (1-p)^s.  The partial sums are
    nondecreasing in m_max and converge upward to the survivor value
    I_(1-p)(a, r) = 1 - I_p(r, a); the gap shrinks geometrically.
    """
    if r < 1 or a < 1:
        raise ValueError(f"negbinom_tail_partial requires r, a >= 1, got r={r}, a={a}")
    if m_max < a:
        raise ValueError(f"negbinom_tail_partial requires m_max >= a, got m_max={m_max}, a={a}")
    if not 0 < p < 1:
        raise ValueError(f"negbinom_tail_partial requires p in (0, 1), got {p}")
    return _negbinom_mass(r, a, m_max, p)
