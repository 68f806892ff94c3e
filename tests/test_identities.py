import functools
import math
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from conftest import polynomial_integral

from ruehrkit import harness, identities
from ruehrkit.exact_math import (
    binomial,
    linear_power,
    poly_add,
    poly_eval,
    poly_mul,
    poly_normalize,
    poly_pow,
    poly_shift,
)
from ruehrkit.identities import (
    SumFamily,
    compare_sides,
    comtet1_sides,
    comtet2_sides,
    comtet3_sides,
    corollary1_sides,
    corollary2_lhs,
    corollary2_rhs,
    corollary2_sides,
    family_polynomial,
    kimura_ruehr_moments,
    proof_helper,
    ruehr_polynomial_values,
    ruehr_sums_direct,
)
from ruehrkit.harness import FuzzSource, fuzz_int, fuzz_rational

ONE_MINUS_X = [F(1), F(-1)]


def test_compare_sides_verdict():
    assert compare_sides(F(1, 2), F(2, 4)).equal
    assert not compare_sides(F(1), F(2)).equal
    assert compare_sides([F(1)], [F(1)]).equal


def test_family_polynomials_small():
    assert family_polynomial(SumFamily.A, 1) == [F(3), F(1)]
    assert family_polynomial(SumFamily.B, 1) == [F(4), F(1)]
    assert family_polynomial(SumFamily.C, 1) == [F(3), F(2), F(1)]
    assert family_polynomial(SumFamily.D, 1) == [F(6), F(4), F(1)]
    for fam in SumFamily:
        assert family_polynomial(fam, 0) == [F(1)]


def test_family_polynomials_against_direct_binomials():
    'each coefficient is a single binomial value, checked independently'
    for n in range(25):
        assert family_polynomial(SumFamily.A, n) == \
            [F(binomial(3 * n - j, 2 * n)) for j in range(n + 1)]
        assert family_polynomial(SumFamily.B, n) == \
            [F(binomial(3 * n + 1, n - j)) for j in range(n + 1)]
        assert family_polynomial(SumFamily.C, n) == \
            [F(binomial(3 * n - j, n)) for j in range(2 * n + 1)]
        assert family_polynomial(SumFamily.D, n) == \
            [F(binomial(3 * n + 1, n + 1 + j)) for j in range(2 * n + 1)]


def test_family_polynomial_degrees_and_monic():
    for n in range(41):
        for fam, deg in ((SumFamily.A, n), (SumFamily.B, n),
                         (SumFamily.C, 2 * n), (SumFamily.D, 2 * n)):
            p = family_polynomial(fam, n)
            assert len(p) - 1 == deg
            assert p[-1] == 1


def test_family_polynomial_rejects_negative():
    with pytest.raises(ValueError):
        family_polynomial(SumFamily.A, -1)
    with pytest.raises(ValueError):
        family_polynomial("A", 1)


def test_ruehr_chain_flags_internal_path_mismatch(monkeypatch):
    monkeypatch.setattr(identities, "ruehr_sums_direct", lambda n: (1, 2, 3, 4))
    assert harness._ruehr_chain_sides(1).equal is False


def test_comtet1_hand_cases():
    pair = comtet1_sides(2, 1, 2, 1)
    assert (pair.lhs, pair.rhs, pair.equal) == (8, 8, True)
    pair = comtet1_sides(2, 1, 1, 1)
    assert (pair.lhs, pair.rhs, pair.equal) == (3, 3, True)


def test_comtet1_takes_int_and_fraction_arguments_alike():
    'a and b are used as given: int and Fraction arguments of equal value give equal sides'
    pair = comtet1_sides(6, 3, 2, -1)
    assert pair == comtet1_sides(6, 3, F(2), F(-1))


def test_comtet1_rejects_bad_k():
    with pytest.raises(ValueError):
        comtet1_sides(3, 3, 1, 1)
    with pytest.raises(ValueError):
        comtet1_sides(3, 5, 1, 1)
    with pytest.raises(ValueError):
        comtet1_sides(3, -1, 1, 1)
    with pytest.raises(ValueError):
        comtet1_sides(-1, 0, 1, 1)


def _naive_partial_sum(n, k, a, b):
    'sum_{0<=i<=k} C(n,i) a^(n-i) b^i, one Fraction term at a time'
    return sum((F(binomial(n, i)) * F(a) ** (n - i) * F(b) ** i for i in range(k + 1)), F(0))


def _assert_lhs_is_the_naive_sum(cases):
    for n, k, a, b in cases:
        pair = comtet1_sides(n, k, a, b)
        assert pair.lhs == _naive_partial_sum(n, k, a, b), (n, k, a, b)
        assert pair.equal, (n, k, a, b)


def test_comtet1_integer_lhs_matches_fraction_sum():
    'the one-denominator lhs, with a and b passed as given, ints among them'
    src = FuzzSource(43)
    cases = [(3, 1, 0, F(1, 2)), (4, 2, F(2, 3), 0), (5, 4, 2, 1), (6, 3, F(-1, 2), F(1, 2))]
    for _ in range(150):
        n = fuzz_int(src, 1, 40)
        cases.append((n, fuzz_int(src, 0, n - 1), fuzz_rational(src, 9, 9),
                      fuzz_rational(src, 99, 99)))
    _assert_lhs_is_the_naive_sum(cases)


def test_comtet1_single_term_case():
    'k = 0 collapses the sum to a^n'
    _assert_lhs_is_the_naive_sum([(n, 0, a, b) for n in range(1, 8)
                                  for a, b in ((2, 1), (F(1, 2), 3), (-3, F(5, 7)))])


def test_comtet1_lhs_walk_matches_naive_fraction_sum():
    'the walk down from C(n, k) in Horner order, at zero and negative a, b and at both ends of k'
    src = FuzzSource(45)
    cases = [(1, 0, F(3, 4), F(-2, 5)), (1, 0, 0, F(1, 2)), (1, 0, F(-7, 3), 0),
             (5, 0, 0, 0), (5, 4, 0, 0), (6, 0, F(-2, 3), F(-5, 4)), (6, 5, F(-2, 3), F(-5, 4)),
             (9, 8, 0, F(-3, 7)), (9, 3, F(-1, 2), 0), (12, 11, -3, -5), (12, 0, 7, 2)]
    for _ in range(200):
        n = fuzz_int(src, 1, 45)
        k = (0, n - 1, fuzz_int(src, 0, n - 1))[fuzz_int(src, 0, 2)]
        a = (fuzz_rational(src, 9, 9), F(0))[fuzz_int(src, 0, 4) == 0]
        b = (fuzz_rational(src, 99, 99), F(0))[fuzz_int(src, 0, 4) == 0]
        cases.append((n, k, a, b))
    _assert_lhs_is_the_naive_sum(cases)


def test_comtet1_lhs_uses_neither_the_row_nor_the_horner_kernel(monkeypatch):
    'the sum side walks away from binomial_row and reaches neither the beta integral nor poly_eval'
    import ruehrkit.exact_math as em

    def forbidden(*args):
        raise AssertionError("the comtet1 lhs reached the integral side's kernels")
    for name in ("_unreduced_beta_integral", "poly_eval", "binomial_row"):
        for module in (em, identities):
            monkeypatch.setattr(module, name, forbidden)
    assert identities._comtet1_lhs(30, 17, F(2, 3), F(-5, 7)) == _naive_partial_sum(
        30, 17, F(2, 3), F(-5, 7))


def _naive_comtet1_integral(n, k, a, b):
    '(n-k) C(n,k) times the integral of t^k (a+b-t)^(n-k-1) over [b, a+b], term by term'
    e, top = n - k - 1, F(a) + F(b)

    def anti(t):  # t^k (top - t)^e = sum_j C(e, j) top^(e-j) (-1)^j t^(k+j)
        return sum((math.comb(e, j) * top ** (e - j) * (-1) ** j * F(t) ** (k + j + 1)
                    / (k + j + 1) for j in range(e + 1)), F(0))
    return (n - k) * math.comb(n, k) * (anti(top) - anti(b))


def test_comtet1_integral_matches_naive_fraction_integral_on_both_branches():
    'every k < n <= 14, so both k < n-k-1 (over [0, H-L]) and k >= n-k-1 (over [L, H]) run'
    pairs = [(F(2, 3), F(-5, 7)), (F(1, 2), F(1, 3)), (3, 2), (F(-3, 4), F(1, 2)),
             (F(-7, 5), F(-2, 9)), (F(5, 6), F(-5, 6)), (F(-4, 3), F(4, 3)), (-2, 2)]
    for n in range(1, 15):
        for k in range(n):
            for a, b in pairs:
                got = identities.comtet1_integral(n, k, F(a), F(b))
                assert got == _naive_comtet1_integral(n, k, a, b), (n, k, a, b)


def test_comtet1_integer_rhs_matches_fraction_route():
    'the integer rhs over q^n at both ends of k, b = -a (H = L), a or b zero, one denominator or two'
    src = FuzzSource(44)
    cases = [(1, 0, F(3, 4), F(-3, 4)), (5, 2, F(-2, 3), F(2, 3)), (6, 5, F(7, 2), F(-7, 2)),
             (4, 0, F(-5, 3), 0), (7, 6, F(2, 9), 0), (3, 1, 0, 0), (8, 0, F(-1, 2), F(-3, 5)),
             (8, 7, F(-1, 2), F(-3, 5)), (2, 1, 2, 1), (9, 4, 0, F(5, 6))]
    for _ in range(300):
        n = fuzz_int(src, 1, 30)
        k = (0, n - 1, fuzz_int(src, 0, n - 1))[fuzz_int(src, 0, 2)]
        a = fuzz_rational(src, 9, 9)
        b = (fuzz_rational(src, 99, 99), -a, F(0))[fuzz_int(src, 0, 2)]
        cases.append((n, k, a, b))
    for n, k, a, b in cases:
        rhs = comtet1_sides(n, k, a, b).rhs
        assert rhs == _naive_comtet1_integral(n, k, a, b), (n, k, a, b)


def test_comtet1_sides_with_a_plus_b_zero_integrate_with_c0_zero():
    'H = 0 makes c0 = 0 in the integral walk; each side is a^n (-1)^k C(n-1, k)'
    for n in range(1, 25):
        for k in range(n):
            for a in (F(2, 3), -3, F(-5, 7)):
                pair = comtet1_sides(n, k, a, -a)
                assert pair.equal and pair.rhs == a ** n * (-1) ** k * math.comb(n - 1, k)


def test_comtet1_integral_builds_one_fraction_per_call(fraction_constructions):
    'the unreduced integral is scaled in integers and reduced once, on both branches'
    cases = [(60, 30, F(3, 7), F(-5, 2)), (60, 10, F(3, 7), F(-5, 2)), (9, 4, 1, 2),
             (40, 3, F(1, 2), 0), (1, 0, F(2, 3), 1), (5, 2, F(-2, 3), F(2, 3))]
    for case in cases:
        value = _naive_comtet1_integral(*case)
        fraction_constructions.clear()
        assert identities.comtet1_integral(*case) == value, case
        assert len(fraction_constructions) == 1, (case, fraction_constructions)


def test_comtet2_hand_cases():
    pair = comtet2_sides(1, 2)
    assert pair.lhs == [F(0), F(2), F(-1)]
    assert pair.rhs == [F(0), F(2), F(-1)]
    assert comtet2_sides(1, 1).lhs == [F(0), F(1)]
    for m in range(1, 6):
        pair = comtet2_sides(m, m)
        assert pair.lhs == poly_shift([F(1)], m)
        assert pair.equal


def test_comtet2_rejects_bad_range():
    with pytest.raises(ValueError):
        comtet2_sides(0, 3)
    with pytest.raises(ValueError):
        comtet2_sides(4, 3)


def test_comtet3_hand_cases():
    pair = comtet3_sides(1, 1)
    assert pair.lhs == [F(2), F(-1)]
    assert pair.equal
    for m in range(1, 6):
        assert comtet3_sides(m, 0).lhs == [F(1)]
    pair = comtet3_sides(2, 1)
    assert pair.equal
    assert poly_eval(pair.lhs, 1) == 1


def test_proof_helper_base_cases():
    assert proof_helper("f", 1, 0) == [F(1)]
    assert proof_helper("f", 1, 1) == [F(2), F(-1)]


def test_proof_helper_validation():
    with pytest.raises(ValueError):
        proof_helper("h", 1, 1)
    with pytest.raises(ValueError):
        proof_helper("f", 0, 1)
    with pytest.raises(ValueError):
        proof_helper("f", 1, -1)


@functools.lru_cache(maxsize=None)
def _one_minus_x_to(r):
    '(1-x)^r by poly_pow, built once per r for the references below'
    return tuple(poly_pow(ONE_MINUS_X, r))


def _bernstein_reference(terms):
    'sum c x^s (1-x)^r over triples (c, s, r) by poly_pow, poly_shift and poly_mul'
    out = []
    for c, s, r in terms:
        out = poly_add(out, poly_mul([c], poly_shift(list(_one_minus_x_to(r)), s)))
    return out


def test_bernstein_sum_matches_powers_of_one_minus_x():
    'the nested builder of the comtet2 and corollary2 sides against repeated poly_mul'
    src = FuzzSource(31)
    for t in range(31):
        coeffs = [fuzz_int(src, -9, 9) * binomial(40, fuzz_int(src, 0, 40)) for _ in range(t + 1)]
        for low in (0, 1, 5):
            for step in (0, 1):
                expected = _bernstein_reference(
                    (c, low + step * j, t - j) for j, c in enumerate(coeffs))
                assert identities._bernstein_sum(coeffs, low, step) == expected, (t, low, step)
    # (1-x) + x and (1-x)^2 + 2x (1-x) + x^2 cancel to the constant 1, times x^low
    assert identities._bernstein_sum([1, 1], 0, 1) == [1]
    assert identities._bernstein_sum([1, 2, 1], 3, 1) == [0, 0, 0, 1]
    assert identities._bernstein_sum([1, -1, 1], 1, 0) == [0, 1, -1, 1]
    assert identities._bernstein_sum([0, 0], 3, 1) == []
    assert identities._bernstein_sum(iter([2, 0, 0]), 1, 0) == [0, 2, -4, 2]
    assert identities._bernstein_sum([], 4, 1) == []


def test_proof_helper_results_cannot_poison_the_memo():
    for kind in ("f", "g"):
        truth = proof_helper(kind, 3, 5)
        first = proof_helper(kind, 3, 5)
        first[0] += 1
        first.append(F(7))
        assert proof_helper(kind, 3, 5) == truth


def _fg_definition(kind, m, big_n):
    'f(m, N) or g(m, N) from its full term list, by the poly_pow reference'
    js = range(big_n + 1)
    if kind == "f":
        return _bernstein_reference((binomial(m - 1 + j, m - 1), 0, j) for j in js)
    return _bernstein_reference((binomial(big_n + m, j), big_n - j, j) for j in js)


def test_fg_members_asked_for_in_any_order_match_their_definition(fresh_memos):
    'each member extends its own chain; in any order it is its full term list'
    keys = [(kind, m, big_n) for kind in "fg" for m in range(1, 13) for big_n in range(13)]
    random.Random(13).shuffle(keys)
    for key in keys:
        assert proof_helper(*key) == _fg_definition(*key), key


def test_fg_members_match_their_definition_past_eviction_and_the_stored_depth(
        monkeypatch, fresh_memos):
    'two chains in the memo and three members stored per chain: every member still right'
    monkeypatch.setattr(identities, "_fg_chain",
                        functools.lru_cache(maxsize=2)(identities._fg_chain.__wrapped__))
    monkeypatch.setattr(identities, "_STORED_N", 3)
    keys = [(kind, m, big_n) for kind in "fg" for m in range(1, 9) for big_n in range(13)]
    random.Random(14).shuffle(keys)
    for key in keys:
        assert proof_helper(*key) == _fg_definition(*key), key
    assert identities._fg_chain.cache_info().currsize == 2
    proof_helper("f", 5, 12)
    proof_helper("g", 1, 12)
    for kind, key in (("f", 5), ("g", 13)):
        members, (n, row) = identities._fg_chain(kind, key)
        assert (sorted(members), n, list(row)) == ([0, 1, 2, 3], 3, poly_pow(ONE_MINUS_X, 3))


class _MembersStoredBeforeTheirRow(dict):
    'the members of one chain, asserting that no store comes after the row reached its N'

    def __init__(self, chain):
        super().__init__(chain[0])
        self.chain = chain

    def __setitem__(self, n, member):
        # another extender may have stored member n and moved the row past it already
        assert self.chain[1][0] < n or n in self, f"the row reached N = {n} before its member"
        super().__setitem__(n, member)


def test_fg_chains_extended_by_several_threads_agree_with_their_definition(fresh_memos):
    'threads that extend the same chains at once put every member in its place'
    keys = [(kind, m, big_n) for kind in "fg" for m in range(1, 9) for big_n in range(25)]
    expected = {key: _fg_definition(*key) for key in keys}
    results, errors = [], []
    # a reader takes a chain's row and carries on from the member of its N, so each
    # member is stored before the row moves to it: one thread first, then all of them
    chain = identities._fg_chain("f", 3)
    chain[0] = _MembersStoredBeforeTheirRow(chain)
    assert proof_helper("f", 3, 12) == expected["f", 3, 12]

    def ask(seed):
        order = random.Random(seed).sample(keys, len(keys))
        try:
            results.append({key: proof_helper(*key) for key in order})
        except Exception as exc:  # reported below, with the thread's results
            errors.append(exc)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 6 and all(result == expected for result in results)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_fg_members_need_no_deep_recursion(fresh_memos):
    'a cold chain is filled by a loop, and carried on past its last stored member and row'
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        deep = [proof_helper(kind, 1, 1500) for kind in "fg"]
    finally:
        sys.setrecursionlimit(limit)
    assert deep[0] == deep[1] and len(deep[0]) == 1501
    for kind, key in (("f", 1), ("g", 1501)):
        members, (n, row) = identities._fg_chain(kind, key)
        assert (len(members), n, len(row)) == (identities._STORED_N + 1, identities._STORED_N,
                                               identities._STORED_N + 1)


def test_deep_corollary2_sides_agree_past_the_old_row_depth():
    'corollary2 at n = 70, second variant, sums (1-x)^r up to r = 140, deeper than any chain row'
    assert corollary2_lhs(70, "second") == corollary2_rhs(70, "second")


def test_polynomial_sides_take_no_binomial_row(monkeypatch, fresh_memos):
    'comtet2 and the f/g chains multiply by 1-x and take math.comb coefficients'
    import ruehrkit.exact_math as em

    def forbidden(*args):
        raise AssertionError("a polynomial side took a binomial_row")
    monkeypatch.setattr(em, "binomial_row", forbidden)
    monkeypatch.setattr(identities, "binomial_row", forbidden)
    for n in range(1, 9):
        assert all(comtet2_sides(m, n).equal for m in range(1, n + 1))
        assert all(comtet3_sides(m, n).equal for m in range(1, 9))


def test_corollary1_hand_cases():
    for n, variant, expected in ((1, "pos", 6), (1, "neg", 6),
                                 (0, "pos", 1), (0, "neg", 1)):
        pair = corollary1_sides(n, variant)
        assert pair.lhs == expected
        assert pair.equal


@pytest.mark.parametrize("variant, chain_index, bounds", [
    ("pos", 1, [(0, 1)]),
    ("neg", 2, [(F(-1, 2), F(3, 2))]),
])
def test_corollary1_computes_only_its_own_integral_and_chain_sum(monkeypatch, variant,
                                                                chain_index, bounds):
    'one integral and one chain sum per variant, and the same sides as the moments give'
    integrated, walked = [], []
    integral, walk = identities._unreduced_beta_integral, identities.ruehr_sum_direct

    def counting_integral(c0, c1, m, z, lo, hi):
        integrated.append((lo, hi))
        return integral(c0, c1, m, z, lo, hi)

    def counting_walk(n, index):
        walked.append(index)
        return walk(n, index)
    monkeypatch.setattr(identities, "_unreduced_beta_integral", counting_integral)
    monkeypatch.setattr(identities, "ruehr_sum_direct", counting_walk)
    monkeypatch.setattr(identities, "ruehr_sums_direct", None)
    pair = corollary1_sides(7, variant)
    assert (integrated, walked) == (bounds, [chain_index])
    assert pair.equal and pair.lhs == ruehr_polynomial_values(7)[chain_index]


def test_ruehr_sum_direct_is_one_entry_of_the_four():
    for n in range(25):
        assert tuple(identities.ruehr_sum_direct(n, i) for i in range(4)) == ruehr_sums_direct(n)
    with pytest.raises(ValueError):
        identities.ruehr_sum_direct(-1, 0)


def test_corollary1_validation():
    with pytest.raises(ValueError):
        corollary1_sides(-1, "pos")
    with pytest.raises(ValueError):
        corollary1_sides(1, "sideways")


def test_corollary2_hand_cases():
    pair = corollary2_sides(1, "first")
    assert pair.lhs == [F(4), F(-3)]
    assert pair.rhs == [F(4), F(-3)]
    assert corollary2_sides(0, "first").lhs == [F(1)]
    pair = corollary2_sides(1, "second")
    assert pair.equal
    # x = 4/3 with the 9^n rescale recovers the chain value 6
    assert poly_eval(pair.lhs, F(4, 3)) * 9 == 6


def test_corollary2_sides_are_one_function_each():
    for n in range(10):
        for variant in ("first", "second"):
            pair = corollary2_sides(n, variant)
            assert (pair.lhs, pair.rhs) == (corollary2_lhs(n, variant), corollary2_rhs(n, variant))
    for side in (corollary2_sides, corollary2_lhs, corollary2_rhs):
        with pytest.raises(ValueError, match="n >= 0"):
            side(-1, "first")
        with pytest.raises(ValueError, match="'first' or 'second'"):
            side(1, "third")


def test_corollary2_matches_comtet3_specialization():
    'each side against its definition: math.comb coefficient lists summed by the poly_pow reference'
    for n in range(13):
        first = [(math.comb(3 * n - j, 2 * n), math.comb(3 * n + 1, n - j), n - j)
                 for j in range(n + 1)]
        second = [(math.comb(3 * n - j, n), math.comb(3 * n + 1, n + 1 + j), 2 * n - j)
                  for j in range(2 * n + 1)]
        for variant, terms, m in (("first", first, 2 * n + 1), ("second", second, n + 1)):
            lhs = _bernstein_reference((c, 0, r) for c, _, r in terms)
            rhs = _bernstein_reference((c, j, r) for j, (_, c, r) in enumerate(terms))
            assert corollary2_lhs(n, variant) == lhs, (n, variant)
            assert corollary2_rhs(n, variant) == rhs, (n, variant)
            # term by term, the sides are the f and g members of comtet3 at (m, 3n + 1 - m)
            assert comtet3_sides(m, 3 * n + 1 - m)[:2] == (lhs, rhs), (n, variant)


def test_corollary2_is_comtet2_divided_by_x_to_the_m():
    'x^m corollary2(n) is comtet2(m, 3n+1) at m = 2n+1 (first) and m = n+1 (second)'
    for n in range(13):
        for variant, m in (("first", 2 * n + 1), ("second", n + 1)):
            pair = comtet2_sides(m, 3 * n + 1)
            assert poly_shift(corollary2_lhs(n, variant), m) == pair.lhs, (n, variant)
            assert poly_shift(corollary2_rhs(n, variant), m) == pair.rhs, (n, variant)


def test_specialization_recovers_chain_values():
    'lhs of the first polynomial form at x=2/3, times 3^n, equals A_n(3)'
    for n in range(61):
        poly = corollary2_sides(n, "first").lhs
        assert poly_eval(poly, F(2, 3)) * 3 ** n == ruehr_sums_direct(n)[0]


def test_specialization_second_form():
    for n in range(21):
        poly = corollary2_sides(n, "second").lhs
        assert poly_eval(poly, F(4, 3)) * 9 ** n == ruehr_sums_direct(n)[2]


def test_moments_pinned_values():
    pair = kimura_ruehr_moments(0)
    assert (pair.lhs, pair.rhs) == (2, 2)
    assert kimura_ruehr_moments(1).lhs == 1
    assert kimura_ruehr_moments(2).lhs == F(26, 35)
    assert kimura_ruehr_moments(2).equal
    with pytest.raises(ValueError):
        kimura_ruehr_moments(-1)


def test_kimura_kernel_closed_form_matches_poly_pow():
    'x^(2n) (3-2x)^n is (3x^2-2x^3)^n, and the moments use that kernel'
    kernel = poly_normalize([0, 0, 3, -2])
    for n in range(31):
        power = poly_pow(kernel, n)
        assert poly_shift(linear_power(3, -2, n), 2 * n) == power
        pair = kimura_ruehr_moments(n)
        assert pair.lhs == polynomial_integral(power, F(-1, 2), F(3, 2))
        assert pair.rhs == 2 * polynomial_integral(power, 0, 1)
