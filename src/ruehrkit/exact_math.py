"""Exact scalar arithmetic and dense univariate polynomials over the rationals.

Scalars are exact rationals: ints and ``fractions.Fraction`` values as
computed, so an integral value may be an int or a Fraction(n, 1); ``==``
and ``str`` treat them alike.  A polynomial is a plain ``list`` of such
coefficients in ascending degree order with no trailing zero coefficient.
The zero polynomial is the empty list; its degree is -1 by convention.

Int coefficients stay ints through every primitive, so polynomials with
integer coefficients, which are all a check builds, are multiplied and
added in native ``int`` arithmetic.  Inputs are used as given: a value is
read by its ``.numerator`` and ``.denominator``, which ints and Fractions
both have, and nothing is converted on the way in.

Rational results of int coefficients are computed over one denominator:
poly_eval at u/v, and the beta integral over bounds of common
denominator v, carry integer numerators over a power of v and reduce
only the final value (one gcd per result), never an intermediate step.
Fraction coefficients, which no check builds, take the same code in
plain Fraction arithmetic.  Every integral a check takes is
x^z (c0 + c1 x)^m over [lo, hi], an incomplete beta integral (DLMF 8.17):
_unreduced_beta_integral expands, integrates and evaluates it in one loop
with no list, and hands on its integer pair unreduced, so a caller that
scales it (identities.comtet1_integral) still reduces once.

Binomials come by four routes: binomial is one math.comb call each;
binomial_row walks a row up the bottom index from C(n, 0) (linear_power
and family_polynomial use it); _unreduced_beta_integral walks C(m, i)
c0^(m-i) down from C(m, m) = 1; and _walked_sum starts from one binomial
at the far end of a sum and steps back by exact ratios, summing in Horner
order as it goes (the term-by-term sides in identities and beta_dist use
it, and collatz_bound through identities' comtet1 sum).  It carries one
running term c_j u^j, so a step is a small product, one exact division
and one Horner step, with no big-by-big product.  The checkers set a side
on one route against a side on the other.

Composition is a Taylor shift.  poly_compose takes a linear (or
constant) q, as the Alzer shifts p(x + 1) use: repeated synthetic
division in place on a copy of p, then a running power of q's slope
through _times_powers, which linear_power's powers also go through.  An
integral q0 or q1 is taken as an int, which keeps an int p in int
arithmetic.  No caller composes with a longer q, so one raises ValueError.

One function normalizes: _normalized strips the trailing zeros of a list
its caller has just built, in place, and converts nothing.  poly_add,
poly_mul, linear_power and poly_compose, and identities' _bernstein_sum,
hand it their fresh lists; poly_normalize hands it a copy.

Everything in this module is a pure function over values that are never
mutated after construction (a fresh list is finished before it is
returned), so concurrent callers need no locking.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]
Polynomial = list[Scalar]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 for k < 0 or k > n.

    The out-of-range convention keeps reindexed sums honest: a bad index
    contributes nothing instead of crashing, so an off-by-one surfaces as a
    value mismatch rather than an exception.  Negative n is rejected
    because no sum here ever needs it.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binomial_row(n: int, top: int) -> list[int]:
    """[C(n, 0), ..., C(n, top)] by the exact step C(n, i+1) = C(n, i) (n-i) / (i+1).

    Entries past n are 0, as for binomial: the factor n - i is 0 at i = n.
    """
    if n < 0 or top < 0:
        raise ValueError(f"binomial_row requires n >= 0 and top >= 0, got n={n}, top={top}")
    c, row = 1, [1]
    for i in range(top):
        c = c * (n - i) // (i + 1)
        row.append(c)
    return row


def _walked_sum(c: int, steps, u: int, v: int) -> int:
    """sum_j c_j u^j v^(J-j), with c_0 = c and c_(j+1) = c_j * p // q for the j-th (p, q) of steps.

    J is the number of steps.  The sum runs in Horner order in v with one
    running term t_j = c_j u^j, stepped as t_(j+1) = t_j (p u) // q, so no
    power of u is built.  Every step must divide exactly, as the ratio steps
    between neighbouring binomials do: q divides c_j p, so it divides t_j p u.
    """
    total = term = c
    for p, q in steps:
        term = term * (p * u) // q
        total = total * v + term
    return total


def poly_normalize(coeffs) -> Polynomial:
    """The coefficients as given, trailing zeros stripped, in a fresh list."""
    return _normalized(list(coeffs))


def _normalized(out: list) -> Polynomial:
    """out, a list its caller has just built, with its trailing zeros stripped in place."""
    while out and not out[-1]:
        out.pop()
    return out


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    if len(a) < len(b):
        a, b = b, a
    out = list(map(operator.add, a, b))
    out += a[len(b):]
    return _normalized(out)


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for k, cb in enumerate(b, i):
            out[k] += ca * cb
    return _normalized(out)


def poly_pow(p: Polynomial, exponent: int) -> Polynomial:
    """p**exponent by iterated multiplication; exponent 0 gives [1]."""
    if exponent < 0:
        raise ValueError(f"poly_pow requires exponent >= 0, got {exponent}")
    out = [1]
    for _ in range(exponent):
        out = poly_mul(out, p)
    return out


def _times_powers(values: list, base: Scalar, indices: range) -> None:
    """values[i] *= base^j for the j-th index i of indices (j = 1, 2, ...), in place.

    The powers come from one running product, in int arithmetic for an int
    base and in Fraction arithmetic for a Fraction one.
    """
    power = 1
    for i in indices:
        power *= base
        values[i] *= power


def linear_power(c0, c1, exponent: int) -> Polynomial:
    """Expansion of (c0 + c1*x)**exponent by the binomial theorem.

    Equivalent to poly_pow([c0, c1], exponent) but O(exponent) products,
    which matters when it sits inside a doubly indexed verification sweep.
    Coefficient i is C(e, i) c0^(e-i) c1^i: the C(e, i) are one
    binomial_row, and each power is one running product over the row, up
    it for c1 and down it for c0.  Int c0 and c1 keep every step in ints.
    """
    if exponent < 0:
        raise ValueError(f"linear_power requires exponent >= 0, got {exponent}")
    e = exponent
    out = binomial_row(e, e)
    _times_powers(out, c1, range(1, e + 1))
    _times_powers(out, c0, range(e - 1, -1, -1))
    return _normalized(out)


def poly_shift(p: Polynomial, k: int) -> Polynomial:
    """Multiply by x**k (shift coefficients up by k places)."""
    if k < 0:
        raise ValueError(f"poly_shift requires k >= 0, got {k}")
    if not p:
        return []
    out = [0] * k
    out += p
    return out


def poly_compose(p: Polynomial, q: Polynomial) -> Polynomial:
    """p(q(x)) with exact coefficients, for a q of at most two coefficients.

    With q = q0 + q1 x this is a Taylor shift: p is shifted to p(x + q0) by
    repeated synthetic division on a copy of its coefficients, in place, and
    coefficient i is then scaled by q1^i with one running power.  A longer q
    raises ValueError.
    """
    if len(q) > 2:
        raise ValueError(f"poly_compose requires len(q) <= 2, got len(q) = {len(q)}")
    # An integral q0 or q1 is taken as its int numerator: the shift multiplies
    # by q0 O(n^2) times, and p(x + 1) at degree 40 takes 16.6 ms with
    # q0 = Fraction(1) against 0.4 ms with q0 = 1.
    q0, q1 = (c.numerator if c.denominator == 1 else c for c in (list(q) + [0, 0])[:2])
    out, n = list(p), len(p)
    for low in range(n - 1):  # one more division by x - q0, from the top down
        for k in range(n - 2, low - 1, -1):
            out[k] += q0 * out[k + 1]
    _times_powers(out, q1, range(1, n))
    return _normalized(out)


def poly_eval(p: Polynomial, x) -> Scalar:
    """Exact Horner evaluation; the zero polynomial evaluates to 0.

    x is an int or a Fraction.  At x = u/v the Horner sum runs in integers
    as sum p[i] u^i v^(deg-i), over v^deg, and is divided by it once.  For
    int coefficients the sum is an int and one Fraction is made at the end,
    and an int polynomial at an int point builds none.
    """
    if not p:
        return 0
    u, v = x.numerator, x.denominator
    total, v_pow = 0, 1
    for c in reversed(p):
        total = total * u + c * v_pow
        v_pow *= v
    den = v ** (len(p) - 1)
    return total if den == 1 else Fraction(total, den)


def _unreduced_beta_integral(c0: int, c1: int, m: int, z: int, lo, hi) -> tuple[int, int]:
    """(total, den): total / den is the integral of x^z (c0 + c1 x)^m over [lo, hi], unreduced.

    c0 and c1 are ints; the bounds are ints or Fractions, each U/V over
    their least common denominator V.  With top = z + m + 1, s a common
    multiple of z+1..top and f_i = s / (z+i+1) (_factors), the antiderivative
    at U/V is U^(z+1) sum_i b_i f_i (c1 U)^i / (s V^top), b_i = C(m, i) (c0 V)^(m-i).
    One loop walks b_i down from b_m = C(m, m) = 1 by the exact step
    b_(i-1) = b_i c0 V i / (m-i+1), exact for every c0, 0 included, and
    Horner-sums both bounds at once in c1 U.  It builds no list.
    """
    v = math.lcm(lo.denominator, hi.denominator)
    scale, factors = _factors(z, z + m + 1)
    u_hi, u_lo = hi.numerator * (v // hi.denominator), lo.numerator * (v // lo.denominator)
    w_hi, w_lo, step = c1 * u_hi, c1 * u_lo, c0 * v
    b, acc_hi, acc_lo = 1, 0, 0
    for i in range(m, -1, -1):
        a = b * factors[i]
        acc_hi = acc_hi * w_hi + a
        acc_lo = acc_lo * w_lo + a
        b = b * step * i // (m - i + 1)
    return u_hi ** (z + 1) * acc_hi - u_lo ** (z + 1) * acc_lo, scale * v ** (z + m + 1)


# Every degree up to this one has its own entry, so the memo never evicts
# and all 128 entries together take under half a megabyte.  A higher degree
# builds the factors it needs on each call (at top = 4000 all of them would
# take about 15 ms, and one entry would hold about 3 MB).
_FACTOR_MEMO_TOP = 128


@functools.lru_cache(maxsize=_FACTOR_MEMO_TOP)
def _antiderivative_factors(top: int) -> tuple:
    """(scale // 1, scale // 2, ..., scale // top) with scale = lcm(1..top)."""
    scale = math.lcm(*range(1, top + 1))
    return tuple(scale // i for i in range(1, top + 1))


def _factors(low: int, top: int) -> tuple:
    """(s, [s // (low+1), ..., s // top]): s = lcm(1..top) from the memo, or lcm(low+1..top)."""
    if top <= _FACTOR_MEMO_TOP:
        factors = _antiderivative_factors(top)
        return factors[0], factors[low:]
    scale = math.lcm(*range(low + 1, top + 1))
    return scale, [scale // j for j in range(low + 1, top + 1)]
