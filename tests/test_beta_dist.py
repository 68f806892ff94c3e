import math
from fractions import Fraction as F

import pytest

from ruehrkit.beta_dist import (
    beta_exact,
    binom_tail_sides,
    incomplete_beta,
    negbinom_cdf_sides,
    negbinom_tail_partial,
    regularized_beta,
)
from ruehrkit.exact_math import binomial
from ruehrkit.harness import FuzzSource, fuzz_int, fuzz_probability


def test_beta_exact_hand_values():
    assert beta_exact(1, 1) == 1
    assert beta_exact(2, 3) == F(1, 12)
    for x in range(1, 11):
        assert beta_exact(x, 1) == F(1, x)


def test_beta_symmetry():
    for x in range(1, 12):
        for y in range(1, 12):
            assert beta_exact(x, y) == beta_exact(y, x)


def test_beta_rejects_nonpositive_params():
    for bad in ((0, 1), (1, 0), (-2, 3)):
        with pytest.raises(ValueError):
            beta_exact(*bad)
        with pytest.raises(ValueError):
            incomplete_beta(1, *bad)


def test_beta_factorial_path_equals_integral_path():
    for x in range(1, 31):
        for y in range(1, 31):
            assert beta_exact(x, y) == incomplete_beta(1, x, y)


def test_beta_printed_ratio_form_is_wrong():
    """The tempting closed form (x+y)/x * C(x+y,x)^-1 is not B(x,y).

    At (2,3) it gives 1/4 while the integral gives 1/12; the factorial
    form tracks the integral.  Pinned so nobody "simplifies" beta_exact
    back onto the broken expression.
    """
    ratio_form = F(2 + 3, 2) / math.comb(2 + 3, 2)
    assert ratio_form == F(1, 4)
    assert incomplete_beta(1, 2, 3) == F(1, 12)
    assert beta_exact(2, 3) == incomplete_beta(1, 2, 3)
    assert ratio_form != beta_exact(2, 3)


def test_incomplete_beta_hand_values():
    assert incomplete_beta(F(1, 2), 2, 2) == F(1, 12)
    for x in range(1, 8):
        for y in range(1, 8):
            assert incomplete_beta(1, x, y) == beta_exact(x, y)
            assert incomplete_beta(0, x, y) == 0


def test_incomplete_beta_rejects_bad_p():
    with pytest.raises(ValueError):
        incomplete_beta(F(3, 2), 1, 1)
    with pytest.raises(ValueError):
        incomplete_beta(F(-1, 2), 1, 1)


def test_regularized_beta_hand_values():
    for p in (F(0), F(1, 3), F(2, 3), F(1)):
        assert regularized_beta(p, 1, 1) == p
    assert regularized_beta(F(1, 2), 2, 2) == F(1, 2)
    assert regularized_beta(F(1, 2), 1, 2) == F(3, 4)


def test_regularized_beta_complement():
    'I_p(x,y) + I_(1-p)(y,x) = 1'
    src = FuzzSource(23)
    for _ in range(20):
        x = fuzz_int(src, 1, 30)
        y = fuzz_int(src, 1, 30)
        p = fuzz_probability(src, 30)
        assert regularized_beta(p, x, y) + regularized_beta(1 - p, y, x) == 1


def test_binom_tail_hand_values():
    pair = binom_tail_sides(2, 1, F(1, 2))
    assert (pair.lhs, pair.rhs, pair.equal) == (F(3, 4), F(3, 4), True)
    for n in range(1, 8):
        assert binom_tail_sides(n, 1, 1).lhs == 1
        for p in (F(1, 3), F(4, 5)):
            pair = binom_tail_sides(n, n, p)
            assert pair.lhs == p ** n
            assert pair.equal


def test_binom_tail_validation():
    with pytest.raises(ValueError):
        binom_tail_sides(3, 0, F(1, 2))
    with pytest.raises(ValueError):
        binom_tail_sides(3, 4, F(1, 2))
    with pytest.raises(ValueError):
        binom_tail_sides(0, 0, F(1, 2))
    with pytest.raises(ValueError):
        binom_tail_sides(3, 1, F(3, 2))


def test_binom_tail_fuzzed_equality():
    src = FuzzSource(29)
    for n in range(1, 13):
        for a in range(1, n + 1):
            for _ in range(4):
                assert binom_tail_sides(n, a, fuzz_probability(src, 9)).equal


def _probabilities(seed, count, **open_ends):
    src = FuzzSource(seed)
    return [fuzz_probability(src, 99, **open_ends) for _ in range(count)]


def test_binom_tail_integer_lhs_matches_fraction_sum():
    'the one-denominator lhs equals the plain Fraction sum it replaced'
    src = FuzzSource(47)
    for p in [F(0), F(1), F(1, 2)] + _probabilities(53, 60):
        n = fuzz_int(src, 1, 40)
        a = fuzz_int(src, 1, n)
        want = F(0)
        for s in range(a, n + 1):
            want += binomial(n, s) * p ** s * (1 - p) ** (n - s)
        pair = binom_tail_sides(n, a, p)
        assert pair.lhs == want
        assert pair.equal


def _negbinom_fraction_sum(r, lo, hi, p):
    total = F(0)
    for s in range(lo, hi + 1):
        total += binomial(r + s - 1, s) * p ** r * (1 - p) ** s
    return total


def test_negbinom_integer_sums_match_fraction_sums():
    'the CDF lhs and the partial tail mass equal the plain Fraction sums they replaced'
    src = FuzzSource(59)
    for p in [F(1, 2), F(1, 99)] + _probabilities(61, 60, lo_open=True, hi_open=True):
        r = fuzz_int(src, 1, 10)
        k = fuzz_int(src, 0, 40)
        a = fuzz_int(src, 1, 10)
        m_max = a + fuzz_int(src, 0, 40)
        pair = negbinom_cdf_sides(r, k, p)
        assert pair.lhs == _negbinom_fraction_sum(r, 0, k, p) and type(pair.lhs) is F
        assert pair.equal
        partial = negbinom_tail_partial(r, a, p, m_max)
        assert partial == _negbinom_fraction_sum(r, a, m_max, p) and type(partial) is F
    assert negbinom_cdf_sides(3, 4, F(1)).lhs == _negbinom_fraction_sum(3, 0, 4, F(1)) == 1


def test_negbinom_mass_diagonal_walk_edges():
    'one term, r = 1, s from 0, p = 1 and a long walk down the diagonal C(r+s-1, s)'
    from ruehrkit.beta_dist import _negbinom_mass
    cases = [(1, 0, 0, F(1, 3)), (1, 4, 4, F(2, 5)), (4, 0, 0, F(1)), (4, 3, 9, F(1)),
             (1, 0, 12, F(7, 8)), (7, 5, 5, F(1, 9)), (3, 0, 300, F(1, 50)), (9, 120, 260, F(5, 6))]
    for r, lo, hi, p in cases:
        assert _negbinom_mass(r, lo, hi, p) == _negbinom_fraction_sum(r, lo, hi, p), (r, lo, hi, p)


def test_negbinom_cdf_hand_values():
    for p in (F(1, 4), F(2, 3), F(1)):
        pair = negbinom_cdf_sides(1, 0, p)
        assert pair.lhs == p
        assert pair.equal
    pair = negbinom_cdf_sides(2, 1, F(1, 2))
    assert (pair.lhs, pair.rhs, pair.equal) == (F(1, 2), F(1, 2), True)
    for r in range(1, 6):
        for k in range(5):
            assert negbinom_cdf_sides(r, k, 1).lhs == 1


def test_negbinom_cdf_validation():
    with pytest.raises(ValueError):
        negbinom_cdf_sides(0, 1, F(1, 2))
    with pytest.raises(ValueError):
        negbinom_cdf_sides(1, -1, F(1, 2))
    with pytest.raises(ValueError):
        negbinom_cdf_sides(1, 1, F(0))


def test_negbinom_cdf_fuzzed_equality():
    src = FuzzSource(31)
    for r in range(1, 9):
        for k in range(0, 13):
            assert negbinom_cdf_sides(r, k, fuzz_probability(src, 9, lo_open=True)).equal


def test_finite_tail_reading_fails_where_cdf_form_holds():
    """sum_{s=a..n} with n finite is NOT a regularized beta value.

    At r=1, a=1, truncating at n=1 gives p(1-p), but I_(1-p)(1,1) = 1-p.
    The survivor identity needs the full infinite sum, which the partial
    sums approach from below; the finite identity that does hold exactly
    is the CDF form checked above.
    """
    p = F(1, 3)
    truncated = negbinom_tail_partial(1, 1, p, 1)
    assert truncated == p * (1 - p)
    survivor = 1 - regularized_beta(p, 1, 1)
    assert survivor == 1 - p
    assert truncated != survivor
    assert truncated < survivor


def test_negbinom_partial_geometric_case():
    'r=1, p=1/2 collapses to a geometric series with a closed form'
    for m_max in range(1, 12):
        assert negbinom_tail_partial(1, 1, F(1, 2), m_max) == F(1, 2) - F(1, 2 ** (m_max + 1))


def test_negbinom_partial_single_term():
    for r in range(1, 5):
        for a in range(1, 5):
            p = F(2, 5)
            expected = math.comb(r + a - 1, a) * p ** r * (1 - p) ** a
            assert negbinom_tail_partial(r, a, p, a) == expected


def test_negbinom_partial_close_to_survivor():
    value = negbinom_tail_partial(2, 1, F(1, 2), 20)
    survivor = 1 - regularized_beta(F(1, 2), 2, 1)
    assert survivor == F(3, 4)
    assert 0 < survivor - value < F(1, 10 ** 4)


def test_negbinom_partial_monotone_and_bounded():
    src = FuzzSource(37)
    for _ in range(15):
        r = fuzz_int(src, 1, 6)
        a = fuzz_int(src, 1, 6)
        p = fuzz_probability(src, 7, lo_open=True, hi_open=True)
        survivor = 1 - regularized_beta(p, r, a)
        previous = F(-1)
        for m_max in (a, a + 5, a + 15, a + 40):
            value = negbinom_tail_partial(r, a, p, m_max)
            assert previous < value < survivor
            previous = value


def test_negbinom_partial_validation():
    with pytest.raises(ValueError):
        negbinom_tail_partial(0, 1, F(1, 2), 5)
    with pytest.raises(ValueError):
        negbinom_tail_partial(1, 0, F(1, 2), 5)
    with pytest.raises(ValueError):
        negbinom_tail_partial(1, 3, F(1, 2), 2)
    with pytest.raises(ValueError):
        negbinom_tail_partial(1, 1, F(1), 5)
