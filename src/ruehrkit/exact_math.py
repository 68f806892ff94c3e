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
never changes an equality.  It also makes str the serialization: str of an
int or a Fraction is "num" or "num/den" in lowest terms, so a scalar is
serialized by str and a polynomial by format_polynomial, which joins those
texts.

Rational results are computed over one denominator: evaluation,
integration and linear_power carry integer numerators over a common
integer denominator and normalize only the final value (one gcd per
result, or per coefficient for linear_power), never an intermediate step.

Binomials come by three routes: binomial is one math.comb call each;
binomial_row walks a row up the bottom index from C(n, 0) (linear_power
uses it); and _walked_sum starts from one binomial at the far end of a sum
and steps back by exact ratios, summing in Horner order as it goes (the
term-by-term sides in identities, beta_dist and collatz_bound use it).  It
carries one running term c_j u^j, so a step is a small product, one
exact division and one Horner step, with no big-by-big product.
The checkers set a side on one route against a side on the other.

Composition has two routes.  poly_compose with a linear (or constant) q,
as the Alzer shifts p(x + 1) use, is a Taylor shift: repeated synthetic
division in place on a copy of p, then a running power of q's slope
through _times_powers, which linear_power's powers also go through.  A
longer q goes by Horner's scheme over poly_mul and poly_add.

poly_normalize copies.  poly_add, poly_mul and poly_compose, and
identities' _bernstein_sum, build a fresh list and normalize it with
_normalized, which strips it in place when every entry is exactly an int
and hands anything else (a Fraction, or a bool such as True) to
poly_normalize.

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
    """Coefficients under the scalar rule, trailing zeros stripped."""
    out = [c if type(c) is int else _scalar(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def _normalized(out: list) -> Polynomial:
    """out, a list its caller has just built, under the scalar rule.

    When every entry is exactly an int (so not True), the trailing zeros are
    stripped in place and out itself is returned; otherwise poly_normalize
    makes the copy.
    """
    if set(map(type, out)) <= {int}:
        while out and not out[-1]:
            out.pop()
        return out
    return poly_normalize(out)


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
        if not ca:
            continue
        for k, cb in enumerate(b, i):
            if cb:
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

    One running power; a base of -1 negates every other entry instead.
    """
    if base == -1:
        for i in indices[::2]:
            values[i] = -values[i]
    elif base != 1:
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
        while nums and not nums[-1]:  # every entry is an int already
            nums.pop()
        return nums
    dens = [1] * (e + 1)
    _times_powers(dens, c1.denominator, up)
    _times_powers(dens, c0.denominator, down)
    return poly_normalize([_scalar(Fraction(num, den)) for num, den in zip(nums, dens)])


def poly_shift(p: Polynomial, k: int) -> Polynomial:
    """Multiply by x**k (shift coefficients up by k places)."""
    if k < 0:
        raise ValueError(f"poly_shift requires k >= 0, got {k}")
    if not p:
        return []
    return [0] * k + list(p)


def poly_compose(p: Polynomial, q: Polynomial) -> Polynomial:
    """p(q(x)) with exact coefficients.

    A q of at most two coefficients, q0 + q1 x, is a Taylor shift: p is
    shifted to p(x + q0) by repeated synthetic division on a copy of its
    coefficients, in place, and coefficient i is then scaled by q1^i with
    one running power.  A longer q goes by Horner's scheme over polynomials,
    through poly_mul and poly_add.
    """
    if len(q) <= 2:
        q0, q1 = (list(map(_scalar, q)) + [0, 0])[:2]
        out, n = list(p), len(p)
        if q0:
            for low in range(n - 1):  # one more division by x - q0, from the top down
                for k in range(n - 2, low - 1, -1):
                    out[k] += q0 * out[k + 1]
        _times_powers(out, q1, range(1, n))
        return _normalized(out)
    out: Polynomial = []
    for c in reversed(p):
        out = poly_mul(out, q)
        if c:
            out = poly_add(out, [c])
    return out


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
    """Exact definite integral of p over [lo, hi].

    Term-by-term antiderivative c_i x^i -> c_i x^(i+1) / (i+1), evaluated
    at hi minus lo.  Reversed bounds (lo > hi) simply flip the sign.  The
    antiderivative's numerators share the denominator den * lcm(1..deg+1);
    F(hi) - F(lo) is brought over one denominator and divided once.  When
    p = x^z r(x), as poly_shift makes it, F = x^(z+1) R(x): the z zero
    coefficients are skipped and x^(z+1) is one power, and a bound at 0
    takes no Horner pass.
    """
    if not p:
        return 0
    nums, den = _over_common_denominator(p)
    top = len(p)  # degree of the antiderivative
    low = nums.index(next(filter(None, nums)))
    factors = (_antiderivative_factors if top <= _FACTOR_MEMO_TOP
               else _antiderivative_factors.__wrapped__)(top)
    scale = factors[0]  # lcm(1..top) // 1
    anti = list(map(operator.mul, nums[low:], factors[low:]))
    lo, hi = _scalar(lo), _scalar(hi)
    v = math.lcm(lo.denominator, hi.denominator)
    total = _antiderivative_at(anti, low, hi, v, top) - _antiderivative_at(anti, low, lo, v, top)
    return _scalar(Fraction(total, den * scale * v ** top))


# Every degree up to this one has its own entry, so the memo never evicts
# and all 128 entries together take under half a megabyte.  A higher degree
# builds its factors on each call: about 0.1 ms at top = 200 and 15 ms at
# top = 4000, where one entry would hold about 3 MB.
_FACTOR_MEMO_TOP = 128


@functools.lru_cache(maxsize=_FACTOR_MEMO_TOP)
def _antiderivative_factors(top: int) -> tuple:
    """(scale // 1, scale // 2, ..., scale // top) with scale = lcm(1..top)."""
    scale = math.lcm(*range(1, top + 1))
    return tuple(scale // i for i in range(1, top + 1))


def _antiderivative_at(anti: list[int], low: int, x: Scalar, v: int, top: int) -> int:
    """v^top x^(low+1) sum anti[i] x^i, an integer when v is a multiple of x's denominator."""
    u, v_x = x.numerator, x.denominator
    if not u:
        return 0
    return u ** (low + 1) * _horner(anti, u, v_x) * (v // v_x) ** top


def format_polynomial(p: Polynomial) -> str:
    """Serialize as a JSON array of rational strings, ascending degree.

    Coefficients follow the scalar rule, so str gives each "num/den" text,
    and a join gives json.dumps' bytes: rational strings need no JSON
    escapes.
    """
    return '["' + '", "'.join(map(str, p)) + '"]' if p else "[]"
