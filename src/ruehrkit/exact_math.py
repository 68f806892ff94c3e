"""Exact scalar arithmetic and dense univariate polynomials over the rationals.

Scalars are arbitrary precision, under one rule: a value is a plain
``int`` when it is integral and a ``fractions.Fraction`` (normalized,
denominator > 1) otherwise.  A polynomial is a plain ``list`` of such
coefficients in ascending degree order with no trailing zero coefficient.
The zero polynomial is the empty list; its degree is -1 by convention.

The polynomial primitives return coefficients and values under that rule,
so polynomials with integer coefficients are multiplied and added in
native ``int`` arithmetic.  Floats are converted exactly on the way in and
never produced.  Since ``int == Fraction`` compares by value, the rule
never changes an equality.

Rational results are computed over one denominator: evaluation,
integration and linear_power carry integer numerators over a common
integer denominator and normalize only the final value (one gcd per
result, or per coefficient for linear_power), never an intermediate step.
Every integral a check takes is x^z (c0 + c1 x)^m over [lo, hi], an
incomplete beta integral (DLMF 8.17): _unreduced_beta_integral expands,
integrates and evaluates it in one loop with no list, and hands on its
integer pair unreduced, so a caller that scales it
(identities.comtet1_integral) still normalizes once.  No check calls
poly_definite_integral, the integral of any polynomial.

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
through _times_powers, which linear_power's powers also go through.  No
caller composes with a longer q, so one raises ValueError.

One function normalizes: _normalized takes a list its caller has just
built, converts its entries by _scalar unless every one is exactly an int
(a bool such as True is not), and strips the trailing zeros in place.
poly_add, poly_mul, linear_power and poly_compose, and identities'
_bernstein_sum, hand it their fresh lists; poly_normalize hands it a copy.

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


def _scalar(c) -> Scalar:
    """c under the scalar rule: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:  # a Fraction is normalized already
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def poly_normalize(coeffs) -> Polynomial:
    """Coefficients under the scalar rule, trailing zeros stripped, in a fresh list."""
    return _normalized(list(coeffs))


def _normalized(out: list) -> Polynomial:
    """out, a list its caller has just built, under the scalar rule, in place.

    Unless every entry is exactly an int (so not True), each entry is
    converted by _scalar; then the trailing zeros are stripped and out
    itself is returned.
    """
    if not set(map(type, out)) <= {int}:
        out[:] = map(_scalar, out)
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
    if not a or not b:
        return []
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


def _times_powers(values: list, base: int, indices: range) -> None:
    """values[i] *= base^j for the j-th index i of indices (j = 1, 2, ...), in place.

    One running power; a base of 1 leaves values as they are.
    """
    if base != 1:
        power = 1
        for i in indices:
            power *= base
            values[i] *= power


def linear_power(c0, c1, exponent: int) -> Polynomial:
    """Expansion of (c0 + c1*x)**exponent by the binomial theorem.

    Equivalent to poly_pow([c0, c1], exponent) but O(exponent) products,
    which matters when it sits inside a doubly indexed verification sweep.
    With c0 = p0/q0 and c1 = p1/q1, coefficient i is the integer
    C(e, i) p0^(e-i) p1^i divided once by q0^(e-i) q1^i.  The C(e, i) are
    one binomial_row, and each power is one running product over the row:
    up it for p1, down it for p0.
    """
    if exponent < 0:
        raise ValueError(f"linear_power requires exponent >= 0, got {exponent}")
    c0 = _scalar(c0)
    c1 = _scalar(c1)
    e = exponent
    up, down = range(1, e + 1), range(e - 1, -1, -1)
    nums = binomial_row(e, e)
    _times_powers(nums, c1.numerator, up)
    _times_powers(nums, c0.numerator, down)
    if c0.denominator == c1.denominator == 1:
        return _normalized(nums)
    dens = [1] * (e + 1)
    _times_powers(dens, c1.denominator, up)
    _times_powers(dens, c0.denominator, down)
    return _normalized([Fraction(num, den) for num, den in zip(nums, dens)])


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
    q0, q1 = (list(map(_scalar, q)) + [0, 0])[:2]
    out, n = list(p), len(p)
    for low in range(n - 1):  # one more division by x - q0, from the top down
        for k in range(n - 2, low - 1, -1):
            out[k] += q0 * out[k + 1]
    _times_powers(out, q1, range(1, n))
    return _normalized(out)


def _over_common_denominator(p: Polynomial) -> tuple[list[int], int]:
    """(nums, den): p's coefficients are nums[i] / den, den their least common denominator."""
    if all(map(int.__instancecheck__, p)):  # one C-level pass, zeros from poly_shift included
        return p, 1
    den = math.lcm(*[c.denominator for c in p])
    return [c.numerator * (den // c.denominator) for c in p], den


def _horner(nums: list[int], u: int, v: int) -> int:
    """sum nums[i] u^i v^(deg-i): v^deg times the value of nums at u/v, in ints."""
    acc = 0
    if v == 1:
        for c in reversed(nums):
            acc = acc * u + c
        return acc
    v_pow = 1
    for c in reversed(nums):
        acc = acc * u + c * v_pow
        v_pow *= v
    return acc


def poly_eval(p: Polynomial, x) -> Scalar:
    """Exact Horner evaluation; the zero polynomial evaluates to 0.

    At x = u/v the sum runs in integers over the common denominator of the
    coefficients times v^deg, and one Fraction is made at the end; an int
    polynomial at an int point never builds a Fraction.
    """
    if not p:
        return 0
    x = _scalar(x)
    nums, den = _over_common_denominator(p)
    total = _horner(nums, x.numerator, x.denominator)
    den *= x.denominator ** (len(p) - 1)
    return total if den == 1 else _scalar(Fraction(total, den))


def poly_definite_integral(p: Polynomial, lo, hi) -> Scalar:
    """Exact definite integral of p over [lo, hi]; reversed bounds flip the sign.

    The antiderivative c_i x^i -> c_i x^(i+1) / (i+1) is taken in integer
    numerators over d lcm(1..deg+1), d the least common denominator of p's
    coefficients, and F(hi) - F(lo) over that times v^(deg+1), v the least
    common denominator of the bounds, so the value takes one gcd.
    """
    if not p:
        return 0
    nums, den = _over_common_denominator(p)
    top = len(p)  # degree of the antiderivative
    scale, factors = _factors(0, top)
    anti = list(map(operator.mul, nums, factors))
    lo, hi = _scalar(lo), _scalar(hi)
    v = math.lcm(lo.denominator, hi.denominator)
    total = sum(sign * x.numerator * _horner(anti, x.numerator, x.denominator)
                * (v // x.denominator) ** top for sign, x in ((1, hi), (-1, lo)))
    return _scalar(Fraction(total, den * scale * v ** top))


def _unreduced_beta_integral(c0: int, c1: int, m: int, z: int, lo, hi) -> tuple[int, int]:
    """(total, den): total / den is the integral of x^z (c0 + c1 x)^m over [lo, hi], unreduced.

    c0 and c1 are ints; the bounds are ints or Fractions, each U/V over
    their least common denominator V.  With top = z + m + 1, s a common
    multiple of z+1..top and f_i = s / (z+i+1) (_factors), the antiderivative
    at U/V is U^(z+1) sum_i b_i f_i (c1 U)^i / (s V^top), b_i = C(m, i) (c0 V)^(m-i).
    One loop walks b_i down from b_m = C(m, m) = 1 by the exact step
    b_(i-1) = b_i c0 V i / (m-i+1), exact for every c0, 0 included, and
    Horner-sums both bounds at once in c1 U.  It builds no list, and a lower
    bound at 0 takes no Horner work.
    """
    lo, hi = _scalar(lo), _scalar(hi)
    v = math.lcm(lo.denominator, hi.denominator)
    scale, factors = _factors(z, z + m + 1)
    u_hi, u_lo = hi.numerator * (v // hi.denominator), lo.numerator * (v // lo.denominator)
    w_hi, w_lo, step = c1 * u_hi, c1 * u_lo, c0 * v
    b, acc_hi, acc_lo = 1, 0, 0
    if u_lo:
        for i in range(m, -1, -1):
            a = b * factors[i]
            acc_hi = acc_hi * w_hi + a
            acc_lo = acc_lo * w_lo + a
            b = b * step * i // (m - i + 1)
        total = u_hi ** (z + 1) * acc_hi - u_lo ** (z + 1) * acc_lo
    else:
        for i in range(m, -1, -1):
            acc_hi = acc_hi * w_hi + b * factors[i]
            b = b * step * i // (m - i + 1)
        total = u_hi ** (z + 1) * acc_hi
    return total, scale * v ** (z + m + 1)


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
