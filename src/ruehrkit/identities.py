"""Dual-path verification of a family of binomial-sum and integral identities.

Most checkers here build the two sides of one identity by different
routes: term-by-term summation on one side, polynomial algebra plus exact
integration on the other.  Those routes share nothing beyond the binomial
and rational primitives, so exact agreement is strong evidence that
neither path is wrong.  All results are exact; there is no tolerance
anywhere.

Some checks run one decisive function on both sides.  They prove an
identity that function must satisfy, not the function against a second
route, and a fault in it is caught elsewhere or not at all:

* kimura_ruehr_moments integrates with one primitive,
  _unreduced_beta_integral, over two intervals.  It is blind to an
  exponent off by one, since the equality also holds for
  x^(2n+1) (3-2x)^n and x^(2n) (3-2x)^(n+1); only corollary1, which sets
  one of the same integrals against a chain sum, catches that fault.
* the harness's beta_complement calls beta_dist.regularized_beta twice.
* the harness's tailsum_comtet1 calls comtet1_integral twice.
* the harness's recurrence_f and recurrence_g call proof_helper on both
  sides; whenever comtet3 holds, recurrence_g reports the same two sides
  as recurrence_f.
* corollary2 and the harness's alzer_shift check one identity, the
  Alzer-Prodinger shift, on the same family_polynomial coefficient lists
  by two transforms: nested multiplication in 1 - x, and a Taylor shift.

The paper's derivation of the Ruehr chain, link by link, with K = 3x^2 -
2x^3, c = (n+1) C(3n+1, 2n) and the check that proves each link at each n
it runs for:

  A_n(3) = B_n(2)                          corollary2 first at x = 2/3
  B_n(2) = c integral_0^1 K^n              corollary1 pos
  integral_(-1/2)^(3/2) K^n = 2 integral_0^1 K^n      kimura_ruehr_moments
  D_n(-4) = c/2 integral_(-1/2)^(3/2) K^n  corollary1 neg
  C_n(-3) = D_n(-4)                        corollary2 second at x = 4/3

The two corollary2 links are the harness's ruehr_specialization checks;
corollary2 itself is comtet2 at (m, N) = (2n+1, 3n+1) or (n+1, 3n+1),
divided by x^m.  The harness's ruehr_chain check sets the four direct
sums against the four family values at once.

The cast of identities:

* the Comtet pair: a partial binomial sum written as a scaled definite
  integral, and a negative-binomial-shaped sum equal to a binomial-shaped
  sum (with its reindexed form and the f/g proof families);
* their corollaries specialised to the (3n, 2n) exponent pattern, whose
  scaled-integral and polynomial forms appear below as corollary1/2;
* the Alzer-Prodinger polynomial families A, B, C, D with the shift
  relations A_n(x+1) = B_n(x) and C_n(x+1) = D_n(x);
* the four-way Ruehr chain A_n(3) = B_n(2) = D_n(-4) = C_n(-3);
* the Kimura-Ruehr moment equality for the kernel 3x^2 - 2x^3.

The primitives each side uses, and the route of its binomials (math.comb
through binomial, a binomial_row walk up the bottom index, a walk up the
top index, a _walked_sum walk back from one math.comb value, or the walk
of _unreduced_beta_integral down from C(m, m) = 1):

* comtet1: the lhs is a term-by-term sum, run in integers over the common
  denominator of a and b, that walks down from one math.comb value C(n, k)
  to C(n, 0) in Horner order (_comtet1_lhs, by _walked_sum).  The
  rhs, comtet1_integral, substitutes t = u/q, q the least common
  denominator of a and b: the integrand u^k (H-u)^e, e = n-k-1, has
  integer coefficients and integer bounds L = bq and H = L + aq.  The
  shorter factor is expanded, in the walk of _unreduced_beta_integral:
  with k >= e, (H-u)^e over [L, H], its antiderivative evaluated at both
  bounds; with k < e, w = H - u turns it into (H-w)^k w^e over
  [0, H-L], whose lower-bound term is 0.  That branch cannot see a fault
  that takes the antiderivative at 0 instead of the lower bound; the [L, H]
  branch, about half the fuzzed checks, does.  The integral's unreduced
  pair is scaled by (n-k) C(n, k) / q^n and made a single Fraction at the
  end, so each rhs takes one gcd.
  These two functions are the only copies of the sum and the integral;
  the harness's partial_sum, tailsum_comtet1 and tailsum_integral checks,
  beta_dist.binom_tail_sides and both tails of collatz_bound.tail_sum take
  their partial sums from them.
* corollary1: the lhs is one chain sum of ruehr_sum_direct; the rhs scales
  one integral of kimura_ruehr_moments.
* the Ruehr chain: ruehr_sums_direct against ruehr_polynomial_values,
  family_polynomial evaluated by poly_eval; the harness's ruehr_chain
  check sets the two against each other and gives the one verdict.
  family_polynomial takes B and D from binomial_row and A and C from
  walks up the top index; ruehr_sums_direct starts each sum from one
  math.comb value and walks the other way, term by term, with the same
  _walked_sum as the comtet1 lhs.
* kimura_ruehr_moments: _unreduced_beta_integral of x^(2n) (3 - 2x)^n,
  the kernel's power, over two intervals, one Fraction each.

Where both sides are polynomials in x (comtet2, comtet3 and corollary2),
each side is a sum of terms c x^s (1-x)^r.  A comtet2 or corollary2 side,
sum_j c_j x^(low + step*j) (1-x)^(t-j), is built by _bernstein_sum by
nested multiplication in 1 - x (Schumaker and Volk, CAGD 3 (1986) 149-154).
Every side is built afresh on each call except the f/g members of comtet3,
which are memoized in chains and built incrementally, each from the one
before it in its own family plus the chain's running row (1-x)^N times one
math.comb value, added by poly_add:

  f(m, N) = f(m, N-1) + C(m-1+N, N) (1-x)^N
  g(m, N) = x g(m+1, N-1) + C(N+m, N) (1-x)^N   (x by poly_shift)

Both builders multiply by 1 - x in _times_one_minus_x.  The comtet2 and f/g
sides take no binomial_row; the corollary2 sides take their coefficients
from family_polynomial, so the rhs takes B or D from binomial_row.
g is never built by f's rule
g(m, N) = g(m, N-1) + C(m-1+N, N) (1-x)^N, though it holds too: then
comtet3 would hold by construction.  The f/g recurrence checks in the
harness multiply by 1 - x on their own, with poly_mul, and add with
poly_add, so a fault in _times_one_minus_x surfaces there, and a fault in
poly_shift parts g from f.  What stays unproved: the recurrences are
checked at each (j, N) the suite asks for, not for every (j, N), and their
base case f(1, N) = g(1, N) is comtet3 at m = 1.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction
from typing import Literal, NamedTuple, Union

from .exact_math import (
    Polynomial,
    Scalar,
    _normalized,
    _unreduced_beta_integral,
    _walked_sum,
    binomial,
    binomial_row,
    poly_add,
    poly_eval,
    poly_mul,  # noqa: F401  (not called here; bench/test_bench.py rebinds identities.poly_mul)
    poly_shift,
)


class SumFamily(Enum):
    """Selector for the four Alzer-Prodinger coefficient families."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"


Side = Union[Fraction, Polynomial]


class SidePair(NamedTuple):
    """Named tuple (lhs, rhs, equal): both sides of one instance and the exact verdict."""

    lhs: Side
    rhs: Side
    equal: bool


def compare_sides(lhs: Side, rhs: Side) -> SidePair:
    """Pair two exactly computed sides; equality is exact, never approximate."""
    return SidePair(lhs, rhs, lhs == rhs)


def _bernstein_sum(coeffs, low: int, step: int) -> Polynomial:
    """sum_j c_j x^(low + step*j) (1-x)^(t-j) over the t + 1 integers c_j of coeffs.

    Nested multiplication: acc = acc (1-x) + c_j x^(step*j) for j = 0..t,
    then x^low in front by poly_shift, so no power of 1 - x is built apart.
    """
    acc = []
    for j, c in enumerate(coeffs):
        _times_one_minus_x(acc)
        acc[step * j] += c
    return poly_shift(_normalized(acc), low)


def _times_one_minus_x(acc: list) -> None:
    """acc = acc (1-x), in place: acc[i] -= acc[i-1] from the top down."""
    acc.append(0)
    for i in range(len(acc) - 1, 0, -1):
        acc[i] -= acc[i - 1]


def family_polynomial(fam: SumFamily, n: int) -> Polynomial:
    """Coefficient polynomial of one of the four families.

    A_n(x) = sum_{0<=j<=n}  C(3n-j, 2n)   x^j   (degree n)
    B_n(x) = sum_{0<=j<=n}  C(3n+1, n-j)  x^j   (degree n)
    C_n(x) = sum_{0<=j<=2n} C(3n-j, n)    x^j   (degree 2n)
    D_n(x) = sum_{0<=j<=2n} C(3n+1, n+1+j) x^j  (degree 2n)

    B and D are binomial rows reversed (C(3n+1, n+1+j) = C(3n+1, 2n-j)); A
    and C are columns C(low, low), ..., C(3n, low) walked up the top index.
    Every coefficient is an int and the top one is 1, so the list is
    returned as built.
    """
    if n < 0:
        raise ValueError(f"family_polynomial requires n >= 0, got {n}")
    if fam is SumFamily.A or fam is SumFamily.C:
        low = 2 * n if fam is SumFamily.A else n
        coeffs = [1]
        for m in range(low + 1, 3 * n + 1):
            coeffs.append(coeffs[-1] * m // (m - low))
        coeffs.reverse()
    elif fam is SumFamily.B:
        coeffs = binomial_row(3 * n + 1, n)[::-1]
    elif fam is SumFamily.D:
        coeffs = binomial_row(3 * n + 1, 2 * n)[::-1]
    else:
        raise ValueError(f"unknown family {fam!r}")
    return coeffs


def ruehr_sums_direct(n: int) -> tuple[int, int, int, int]:
    """The four chain sums by direct big-integer summation.

    Returns (A_n(3), B_n(2), D_n(-4), C_n(-3)) where each entry is the
    corresponding weighted binomial sum, evaluated term by term so no
    polynomial machinery is involved.
    """
    return tuple(ruehr_sum_direct(n, index) for index in range(4))


def ruehr_sum_direct(n: int, index: int) -> int:
    """Entry index of ruehr_sums_direct(n), and only that sum.

    The sum starts from its j = 0 binomial (math.comb) and walks against
    family_polynomial's direction, one _walked_sum with weight^j as u^j.
    """
    if n < 0:
        raise ValueError(f"ruehr_sum_direct requires n >= 0, got {n}")
    n2, n3 = 2 * n, 3 * n
    weight, top, low, steps = (
        (3, n3, n2, zip(range(n, 0, -1), range(n3, n2, -1))),
        (2, n3 + 1, n, zip(range(n, 0, -1), range(n2 + 2, n3 + 2))),
        (-4, n3 + 1, n + 1, zip(range(n2, 0, -1), range(n + 2, n3 + 2))),
        (-3, n3, n, zip(range(n2, 0, -1), range(n3, n, -1))),
    )[index]
    return _walked_sum(binomial(top, low), steps, weight, 1)


def ruehr_polynomial_values(n: int) -> tuple[int, int, int, int]:
    """The four chain values via family_polynomial + Horner evaluation."""
    return (
        poly_eval(family_polynomial(SumFamily.A, n), 3),
        poly_eval(family_polynomial(SumFamily.B, n), 2),
        poly_eval(family_polynomial(SumFamily.D, n), -4),
        poly_eval(family_polynomial(SumFamily.C, n), -3),
    )


def comtet1_sides(n: int, k: int, a, b) -> SidePair:
    """Partial binomial sum versus its integral representation.

    lhs = sum_{0<=i<=k} C(n,i) a^(n-i) b^i
    rhs = comtet1_integral(n, k, a, b)

    Requires 0 <= k < n (k >= n would put a negative exponent in the
    integrand).  For int or Fraction a, b, used as given, both sides are
    exact rationals: ints and Fractions as computed, which == and str treat
    alike.
    """
    if not 0 <= k < n:
        raise ValueError(f"comtet1_sides requires 0 <= k < n, got k={k}, n={n}")
    return compare_sides(_comtet1_lhs(n, k, a, b), comtet1_integral(n, k, a, b))


def comtet1_integral(n: int, k: int, a, b) -> Scalar:
    """(n-k) C(n,k) * integral_b^(a+b) t^k (a+b-t)^(n-k-1) dt, for 0 <= k < n.

    a and b are ints or Fractions.  By comtet1_sides this is the partial sum
    sum_{0<=i<=k} C(n,i) a^(n-i) b^i.  With t = u/q, q the least common
    denominator of a and b, it is integral_L^H u^k (H-u)^e du / q^n, e = n-k-1,
    over the integer bounds L = bq and H = L + aq.  _unreduced_beta_integral
    expands the shorter factor: (H-u)^e when k >= e, over [L, H]; else, with
    u = H - w, (H-w)^k times w^e, integrated over [0, H-L], so the walk takes
    k+1 steps and the lower bound's term is 0.  The integral's unreduced
    numerator and denominator are scaled by (n-k) C(n,k) and q^n and made
    one Fraction.
    """
    q = math.lcm(a.denominator, b.denominator)
    lo = b.numerator * (q // b.denominator)
    hi = lo + a.numerator * (q // a.denominator)
    e = n - k - 1
    if k < e:  # expand the shorter factor: u = H - w puts it over [0, H - L]
        total, den = _unreduced_beta_integral(hi, -1, k, e, 0, hi - lo)
    else:
        total, den = _unreduced_beta_integral(hi, -1, e, k, lo, hi)
    return Fraction((n - k) * binomial(n, k) * total, den * q ** n)


def _comtet1_lhs(n: int, k: int, a: Scalar, b: Scalar) -> Scalar:
    """sum_{0<=i<=k} C(n,i) a^(n-i) b^i, summed as A^(n-k) sum C(n,i) A^(k-i) B^i / D^n.

    a = A/D and b = B/D over their least common denominator D, so the sum
    runs in integers and one scalar is made at the end.  The sum starts
    from C(n, k) and walks down to C(n, 0) by C(n, i-1) = C(n, i) i / (n-i+1),
    in Horner order in B: the other direction from binomial_row.
    """
    den = math.lcm(a.denominator, b.denominator)
    big_a = a.numerator * (den // a.denominator)
    big_b = b.numerator * (den // b.denominator)
    total = _walked_sum(binomial(n, k), zip(range(k, 0, -1), range(n - k + 1, n + 1)),
                        big_a, big_b)
    return Fraction(total * big_a ** (n - k), den ** n)


def comtet2_sides(m: int, n: int) -> SidePair:
    """Negative-binomial-shaped sum versus binomial-shaped sum, in x.

    lhs = sum_{m<=k<=n} C(k-1, m-1) x^m (1-x)^(k-m)
    rhs = sum_{m<=k<=n} C(n, k)     x^k (1-x)^(n-k)

    Both sides are built as exact polynomials and compared coefficient-wise.
    """
    if not 1 <= m <= n:
        raise ValueError(f"comtet2_sides requires 1 <= m <= n, got m={m}, n={n}")
    return compare_sides(
        _bernstein_sum([binomial(k - 1, m - 1) for k in range(n, m - 1, -1)], m, 0),
        _bernstein_sum([binomial(n, k) for k in range(m, n + 1)], m, 1),
    )


def comtet3_sides(m: int, big_n: int) -> SidePair:
    """Reindexed form of comtet2 as an identity between the f and g families.

    lhs = sum_{0<=j<=N} C(m-1+j, m-1) (1-x)^j
    rhs = sum_{0<=j<=N} C(N+m, j) x^(N-j) (1-x)^j
    """
    return compare_sides(proof_helper("f", m, big_n), proof_helper("g", m, big_n))


def proof_helper(kind: Literal["f", "g"], m: int, big_n: int) -> Polynomial:
    """The f/g polynomial families whose shared recurrence proves comtet3.

    f(m,N) = sum_{0<=j<=N} C(m-1+j, m-1) (1-x)^j
    g(m,N) = sum_{0<=j<=N} C(N+m, j) x^(N-j) (1-x)^j

    Both satisfy a Pascal-rule recurrence in m (checked by the harness's
    recurrence_f and recurrence_g and by acceptance criterion 4), and
    f(1,N) = g(1,N) for every N, which together give f = g everywhere.

    Each member is built from the one before it in its own family (see
    _fg_member), and the comtet3 and recurrence checks ask for the same
    members many times, so they are memoized; every call returns a fresh
    list, which the caller may change without touching the memo.
    """
    if kind not in ("f", "g"):
        raise ValueError(f"proof_helper kind must be 'f' or 'g', got {kind!r}")
    if m < 1:
        raise ValueError(f"proof_helper requires m >= 1, got {m}")
    if big_n < 0:
        raise ValueError(f"proof_helper requires N >= 0, got {big_n}")
    return list(_fg_member(kind, m, big_n))


def _fg_member(kind: str, m: int, big_n: int) -> tuple:
    """proof_helper's value as an immutable tuple.

    f(m, N) = f(m, N-1) + C(m-1+N, N) (1-x)^N
    g(m, N) = x g(m+1, N-1) + C(N+m, N) (1-x)^N

    Along an f chain m stays fixed, along a g chain m + N does.  One loop
    extends the chain from the member n of its row (1-x)^n, times 1 - x per
    step, so no call recurses; each family takes only its own chains.
    """
    key = m if kind == "f" else m + big_n
    chain = _fg_chain(kind, key)
    members, (n, row) = chain
    if big_n in members:
        return members[big_n]
    member, row = members[n], list(row)
    for n in range(n + 1, big_n + 1):
        _times_one_minus_x(row)
        c = binomial(m - 1 + n, m - 1) if kind == "f" else binomial(key, n)
        if kind == "g":
            member = poly_shift(member, 1)
        member = tuple(poly_add([c * entry for entry in row], member))
        if n <= _STORED_N:
            members[n] = member  # before the row, so the row's member is always stored
            chain[1] = (n, tuple(row))
    return member


# Chain members are stored up to this N.  A deeper member is carried on from
# its chain's last stored member in a local, so one deep request does not keep
# a chain that long (all 1501 members of g(1, 1500) take about 300 MB).
_STORED_N = 128


# The polynomial suite walks the f chains m <= max_n + 1 and the g chains
# m + N <= 2 max_n + 1, 62 chains at max_n = 20.  Its checks run by name: each
# comtet3 m and each recurrence_g j is a pass over a window of max_n + 2
# chains, and recurrence_f walks two f chains at a time.  A memo smaller than
# the window would lose every chain before its next pass and rebuild it from
# N = 0; 256 chains hold the window up to max_n = 254, and at most 256 * 129
# members.  Above max_n = 84 the suite has more chains than that, so a later
# check name rebuilds some of them: 768 builds of 386 chains at max_n = 128.
@functools.lru_cache(maxsize=256)
def _fg_chain(kind: str, key: int) -> list:
    """[stored members by N, (n, (1-x)^n)] of f(key, N), or of g(key - N, N) for g."""
    return [{0: (1,)}, (0, (1,))]


def corollary1_sides(n: int, variant: Literal["pos", "neg"]) -> SidePair:
    """The weight-2 and weight-(-4) chain sums as scaled integrals.

    pos: sum_{0<=j<=n}  2^j   C(3n+1, n-j)
         = (n+1) C(3n+1, 2n) * integral_0^1 (3-2x)^n x^(2n) dx
    neg: sum_{0<=j<=2n} (-4)^j C(3n+1, n+1+j)
         = (n+1)/2 C(3n+1, 2n) * integral_(-1/2)^(3/2) (3-2x)^n x^(2n) dx

    The sums are the chain values B_n(2) and D_n(-4) of ruehr_sum_direct;
    the integrals are those of kimura_ruehr_moments(n).  Each variant
    computes only its own sum and its own integral.
    """
    if n < 0:
        raise ValueError(f"corollary1_sides requires n >= 0, got {n}")
    if variant not in ("pos", "neg"):
        raise ValueError(f"corollary1_sides variant must be 'pos' or 'neg', got {variant!r}")
    scale = (n + 1) * binomial(3 * n + 1, 2 * n)
    if variant == "pos":
        (integral,) = _kimura_integrals(n, _UNIT_INTERVAL)
        return compare_sides(ruehr_sum_direct(n, 1), scale * integral)
    (integral,) = _kimura_integrals(n, _WIDE_INTERVAL)
    return compare_sides(ruehr_sum_direct(n, 2), Fraction(scale, 2) * integral)


def corollary2_sides(n: int, variant: Literal["first", "second"]) -> SidePair:
    """Polynomial forms of the chain equalities, compared coefficient-wise.

    first:  sum_{0<=j<=n}  C(3n-j, 2n) (1-x)^(n-j)
            = sum_{0<=j<=n}  C(3n+1, n-j)   x^j (1-x)^(n-j)
    second: sum_{0<=j<=2n} C(3n-j, n)  (1-x)^(2n-j)
            = sum_{0<=k<=2n} C(3n+1, n+1+k) x^k (1-x)^(2n-k)

    The coefficients are those of A_n and B_n (first) or C_n and D_n
    (second), taken from family_polynomial; top = n or 2n is their degree.
    The identity is the Alzer-Prodinger shift A_n(y) = B_n(y-1) or
    C_n(y) = D_n(y-1) in homogeneous form: both sides are (1-x)^top times
    the family at y = 1/(1-x), and y - 1 = x/(1-x).  It is also
    comtet2_sides(m, 3n+1) divided by x^m, at m = 2n+1 (first) or m = n+1
    (second), and term by term comtet3_sides(m, 3n+1-m), the f and g
    members of that (m, N).  So this check and the harness's alzer_shift
    test one identity by two transforms of the same coefficient lists:
    nested multiplication in 1 - x here, a Taylor shift there.

    Polynomial equality subsumes every numeric specialization; the spot
    values at x = 2/3 (y = 3) and x = 4/3 (y = -3) that recover the chain
    are kept as separate checks in the harness.
    """
    return compare_sides(corollary2_lhs(n, variant), corollary2_rhs(n, variant))


def corollary2_lhs(n: int, variant: Literal["first", "second"]) -> Polynomial:
    """The lhs of corollary2_sides: A_n or C_n with x^j replaced by (1-x)^(top-j)."""
    return _bernstein_sum(family_polynomial(_corollary2_families(n, variant)[0], n), 0, 0)


def corollary2_rhs(n: int, variant: Literal["first", "second"]) -> Polynomial:
    """The rhs of corollary2_sides: B_n or D_n with x^j replaced by x^j (1-x)^(top-j)."""
    return _bernstein_sum(family_polynomial(_corollary2_families(n, variant)[1], n), 0, 1)


def _corollary2_families(n: int, variant: str) -> tuple[SumFamily, SumFamily]:
    """(A, B) for the first variant and (C, D) for the second."""
    if n < 0:
        raise ValueError(f"corollary2_sides requires n >= 0, got {n}")
    if variant == "first":
        return SumFamily.A, SumFamily.B
    if variant == "second":
        return SumFamily.C, SumFamily.D
    raise ValueError(f"corollary2_sides variant must be 'first' or 'second', got {variant!r}")


def kimura_ruehr_moments(n: int) -> SidePair:
    """Moment equality of the kernel 3x^2 - 2x^3 at exponent n.

    lhs = integral_(-1/2)^(3/2) (3x^2 - 2x^3)^n dx
    rhs = 2 * integral_0^1      (3x^2 - 2x^3)^n dx
    """
    if n < 0:
        raise ValueError(f"kimura_ruehr_moments requires n >= 0, got {n}")
    wide, unit = _kimura_integrals(n, _WIDE_INTERVAL, _UNIT_INTERVAL)
    return compare_sides(wide, 2 * unit)


_WIDE_INTERVAL = (Fraction(-1, 2), Fraction(3, 2))
_UNIT_INTERVAL = (0, 1)


def _kimura_integrals(n: int, *intervals) -> tuple:
    """The integral of (3x^2 - 2x^3)^n = x^(2n) (3 - 2x)^n over each interval (lo, hi)."""
    return tuple(Fraction(*_unreduced_beta_integral(3, -2, n, 2 * n, lo, hi))
                 for lo, hi in intervals)
