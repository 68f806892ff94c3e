import ast
import inspect
import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest

import ruehrkit
from ruehrkit import beta_dist, cli, collatz_bound, exact_math, harness, identities
from ruehrkit.exact_math import (
    binomial,
    binomial_row,
    linear_power,
    poly_add,
    poly_compose,
    poly_definite_integral,
    poly_eval,
    poly_mul,
    poly_normalize,
    poly_pow,
    poly_shift,
)
from ruehrkit.harness import FuzzSource, fuzz_int, fuzz_rational, serialize_value


def fuzz_poly(src, max_degree=6):
    coeffs = [F(fuzz_int(src, -9, 9), fuzz_int(src, 1, 9))
              for _ in range(fuzz_int(src, 0, max_degree) + 1)]
    return poly_normalize(coeffs)


def test_binomial_known_values():
    examples = {
        (0, 0): 1,
        (4, 2): 6,
        (10, -1): 0,
        (10, 11): 0,
        (1, 0): 1,
        (10, 3): 120,
        (6, 3): 20,
    }
    for (n, k), expected in examples.items():
        assert binomial(n, k) == expected


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(-5, 2)


def test_binomial_pascal_rule():
    'C(n,k) = C(n-1,k) + C(n-1,k-1), including out-of-range k'
    for n in range(1, 201):
        for k in range(-1, n + 2):
            assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)


def test_binomial_row_sums():
    for n in range(201):
        assert sum(binomial(n, k) for k in range(n + 1)) == 2 ** n


def test_binomial_row_matches_math_comb():
    'every entry C(n, k), k <= n <= 300; a row cut at top is the prefix of the full row'
    for n in range(301):
        full = binomial_row(n, n)
        assert full == [math.comb(n, k) for k in range(n + 1)], n
        for top in {t for t in (0, 1, n // 3, n // 2, n - 1) if 0 <= t <= n}:
            assert binomial_row(n, top) == full[:top + 1], (n, top)


def test_binomial_row_edges_and_out_of_range():
    'n = 0 and top = 0 work; past n the entries are 0, the convention of binomial'
    assert binomial_row(0, 0) == [1]
    assert binomial_row(7, 0) == [1]
    assert binomial_row(0, 3) == [1, 0, 0, 0]
    assert binomial_row(3, 6) == [1, 3, 3, 1, 0, 0, 0]
    for n in range(12):
        assert binomial_row(n, n + 5) == [binomial(n, k) for k in range(n + 6)]
    for n, top in ((-1, 0), (3, -1)):
        with pytest.raises(ValueError):
            binomial_row(n, top)


def test_binomial_large_operands_exact():
    # thousands of bits; sanity against an independent formula
    big = binomial(2000, 1000)
    assert big == math.factorial(2000) // (math.factorial(1000) ** 2)
    assert big.bit_length() > 1900
    assert binomial(2000, 777) == binomial(1999, 777) + binomial(1999, 776)


def test_poly_normalize_strips_trailing_zeros():
    assert poly_normalize([1, 2, 0, 0]) == [F(1), F(2)]
    assert poly_normalize([0, 0]) == []
    assert poly_normalize([5]) == [5]


def test_poly_mul_difference_of_squares():
    assert poly_mul(poly_normalize([1, 1]), poly_normalize([1, -1])) == [F(1), F(0), F(-1)]


def test_poly_pow_kernel():
    kernel = poly_normalize([0, 0, 3, -2])
    assert poly_pow(kernel, 0) == [F(1)]
    assert poly_pow(kernel, 1) == kernel
    assert poly_pow(kernel, 2) == poly_normalize([0, 0, 0, 0, 9, -12, 4])
    with pytest.raises(ValueError):
        poly_pow(kernel, -1)


def test_poly_pow_zero_polynomial():
    assert poly_pow([], 0) == [F(1)]
    assert poly_pow([], 3) == []


def test_linear_power_matches_poly_pow():
    src = FuzzSource(7)
    for _ in range(30):
        c0 = fuzz_rational(src, 9, 9)
        c1 = fuzz_rational(src, 9, 9)
        e = fuzz_int(src, 0, 12)
        assert linear_power(c0, c1, e) == poly_pow(poly_normalize([c0, c1]), e)
    assert linear_power(0, 2, 3) == [F(0), F(0), F(0), F(8)]
    assert linear_power(2, 0, 3) == [F(8)]
    # small int bases, 0 and +-1 among them, at exponents 0 to 9: every coefficient stays an int
    for c0 in (-3, -1, 0, 1, 2):
        for c1 in (-2, -1, 0, 1, 5):
            for e in range(10):
                got = linear_power(c0, c1, e)
                assert got == poly_pow(poly_normalize([c0, c1]), e), (c0, c1, e)
                assert all(type(c) is int for c in got)


def test_poly_compose_shift_examples():
    assert poly_compose(poly_normalize([3, 1]), poly_normalize([1, 1])) == [F(4), F(1)]
    assert poly_compose(poly_normalize([3, 2, 1]), poly_normalize([1, 1])) == [F(6), F(4), F(1)]
    assert poly_compose([], poly_normalize([1, 1])) == []
    with pytest.raises(ValueError, match=r"len\(q\) = 3"):
        poly_compose([7], [1, 2, 3])


def test_poly_compose_agrees_with_eval():
    src = FuzzSource(11)
    for _ in range(40):
        p = fuzz_poly(src)
        q = fuzz_poly(src, max_degree=1)
        x = fuzz_rational(src, 9, 9)
        assert poly_eval(poly_compose(p, q), x) == poly_eval(p, poly_eval(q, x))


def _composed_by_horner(p, q):
    'p(q(x)) by Horner over polynomials, each product a plain convolution, as the reference'
    out = []
    for c in reversed(p):
        product = [c] + [0] * (len(out) + len(q))
        for i, a in enumerate(out):
            for j, b in enumerate(q):
                product[i + j] += a * b
        out = product
    return poly_normalize(out)


@pytest.mark.parametrize("q", [[1, 1], [-1, 1], [2, -3], [F(1, 2), F(-2, 3)], [0, 1], [3, 0], [5],
                               [], [F(1), F(1)]])
def test_poly_compose_with_a_linear_q_is_horner_coefficient_by_coefficient(q):
    'a q of at most two coefficients takes the Taylor shift; Horner is the reference'
    src = FuzzSource(29)
    q = poly_normalize(q)
    integral_q = all(c.denominator == 1 for c in q)
    for _ in range(30):
        ints = poly_normalize([fuzz_int(src, -9, 9) for _ in range(fuzz_int(src, 0, 12))])
        for p in (ints, fuzz_poly(src, max_degree=12)):
            got, expected = poly_compose(p, q), _composed_by_horner(p, q)
            assert got == expected, (p, q)
            _assert_scalar_rule(got)
            if p is ints and integral_q:  # bench/probes.py's shift by [F(1), F(1)] stays in ints
                assert all(type(c) is int for c in got), (p, q)


def test_poly_eval_examples():
    assert poly_eval(poly_normalize([3, 1]), 3) == 6
    assert poly_eval(poly_normalize([6, 4, 1]), -4) == 6
    assert poly_eval([], 7) == 0


def test_definite_integral_examples():
    assert poly_definite_integral(poly_normalize([0, 0, 1]), 0, 1) == F(1, 3)
    assert poly_definite_integral(poly_normalize([0, 0, 3, -2]), F(-1, 2), F(3, 2)) == 1
    assert poly_definite_integral(poly_normalize([1]), 1, 3) == 2


def test_definite_integral_reversed_bounds_flip_sign():
    p = poly_normalize([1, 2, 3])
    assert poly_definite_integral(p, 2, 0) == -poly_definite_integral(p, 0, 2)


def test_definite_integral_additive_in_interval():
    src = FuzzSource(13)
    for _ in range(40):
        p = fuzz_poly(src)
        a = fuzz_rational(src, 9, 9)
        b = fuzz_rational(src, 9, 9)
        c = fuzz_rational(src, 9, 9)
        whole = poly_definite_integral(p, a, c)
        split = poly_definite_integral(p, a, b) + poly_definite_integral(p, b, c)
        assert whole == split


def test_poly_add_sub_shift():
    p = poly_normalize([1, 2])
    q = poly_normalize([-1, -2, 5])
    assert poly_add(p, q) == [F(0), F(0), F(5)]
    assert poly_shift(p, 2) == [F(0), F(0), F(1), F(2)]
    assert poly_shift([], 3) == []


def _assert_scalar_rule(values):
    'int or Fraction, never float (0.5 == F(1, 2), so check types)'
    for value in values:
        assert type(value) in (int, F), (value, type(value))


@pytest.mark.parametrize("p, q, c, x", [
    ([1, -2, 3], [4, 5], 3, 2),                       # int only
    ([1, F(1, 2), -2], [F(3, 2), 4], F(2), F(1, 3)),  # mixed
    ([F(1, 2), F(-3, 4)], [F(2, 3), F(1, 3)], F(3, 2), F(-5, 7)),  # Fraction only
    ([F(1, 2), F(3, 2)], [F(1, 2), F(-1, 2)], 2, F(3)),  # integral sums of Fractions
])
def test_primitives_return_int_or_fraction_never_float(p, q, c, x):
    polys = [
        poly_normalize(p), poly_add(p, q),
        poly_mul(p, q), poly_pow(q, 3), poly_shift(p, 2),
        poly_compose(p, q), linear_power(c, x, 4), _parse_polynomial(serialize_value(p)),
    ]
    for poly in polys:
        _assert_scalar_rule(poly)
    _assert_scalar_rule([poly_eval(p, x), poly_definite_integral(p, 0, x),
                         poly_definite_integral(q, x, c)])


def test_rational_arithmetic_exact_under_fuzz():
    '(a + b) - b recovers a exactly, and results stay normalized'
    src = FuzzSource(17)
    for _ in range(200):
        a = fuzz_rational(src, 9, 9)
        b = fuzz_rational(src, 9, 9)
        total = a + b
        assert total - b == a
        assert math.gcd(total.numerator, total.denominator) == 1
        assert total.denominator > 0


def test_rational_serialization():
    'str writes a scalar and Fraction reads it back'
    assert str(F(26, 35)) == "26/35"
    assert str(F(5)) == "5"
    assert str(F(-3, 7)) == "-3/7"
    assert str(0) == "0"
    assert F("26/35") == F(26, 35)
    assert F("-12") == F(-12)
    src = FuzzSource(19)
    for _ in range(50):
        q = fuzz_rational(src, 999, 999)
        assert F(str(q)) == q


def _parse_polynomial(text):
    'a JSON array of rational strings back to a polynomial under the scalar rule'
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError(f"polynomial serialization must be a JSON array, got {text!r}")
    return poly_normalize(F(item) for item in data)


def test_polynomial_serialization():
    p = poly_normalize([F(4), F(-3), F(1, 2)])
    text = serialize_value(p)
    assert text == '["4", "-3", "1/2"]'
    assert _parse_polynomial(text) == p
    assert serialize_value([]) == "[]"
    assert _parse_polynomial("[]") == []
    with pytest.raises(ValueError):
        _parse_polynomial('{"not": "a list"}')


def _json_array_reference(p):
    """The JSON encoder route that serialize_value's string join replaces."""
    return json.dumps([_format_rational_reference(c) for c in p])


def test_serialize_value_matches_json_encoder():
    cases = [
        [], [0], [1], [-1, -2, -3], [2 ** 200, -(2 ** 200) - 1, 3 ** 150],
        [F(1, 2)], [F(-7, 3), F(5, 9), F(-(2 ** 100), 3 ** 70)],
        [0, F(1, 2), -4, F(-1, 3), 2 ** 64], (1, 6, 39, 258, 1719),
    ]
    for p in cases:
        assert serialize_value(p) == _json_array_reference(p), p
    src = FuzzSource(23)
    for _ in range(50):
        p = [fuzz_rational(src, 10 ** 30, 10 ** 30) if fuzz_int(src, 0, 1)
             else fuzz_int(src, -(10 ** 40), 10 ** 40) for _ in range(fuzz_int(src, 0, 12))]
        assert serialize_value(p) == _json_array_reference(p), p


def _format_rational_reference(q):
    'num/den from the normalized Fraction, or num alone when the denominator is 1'
    q = F(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def test_str_is_the_serialization_of_ints_and_fractions():
    'str gives the num/den text for every int and Fraction, unreduced input included'
    values = [0, 7, -7, 2 ** 200, -(3 ** 150), F(6, 3), F(-10, 4), F(0, 5), F(4, -6),
              F(-(2 ** 100), 3 ** 70), F(10 ** 40, 10 ** 38)]
    src = FuzzSource(31)
    values += [F(fuzz_int(src, -(10 ** 30), 10 ** 30), fuzz_int(src, 1, 10 ** 30))
               for _ in range(100)]
    for q in values:
        assert str(q) == _format_rational_reference(q), q


def _reference_eval(p, x):
    'the plain Fraction Horner scheme the integer kernel replaced'
    acc = F(0)
    for c in reversed(p):
        acc = acc * F(x) + c
    return acc


def _reference_integral(p, lo, hi):
    anti = [F(0)] + [F(c) / (i + 1) for i, c in enumerate(p)]
    return _reference_eval(anti, hi) - _reference_eval(anti, lo)


_COEFFICIENTS = {
    "int": lambda src: fuzz_int(src, -9, 9),
    "fraction": lambda src: fuzz_rational(src, 9, 9),
    "mixed": lambda src: (fuzz_int(src, -9, 9) if fuzz_int(src, 0, 1)
                          else fuzz_rational(src, 9, 9)),
}
_POINTS = [0, -3, 5, F(2, 3), F(-7, 4), F(6, 3), F(1, 9)]


def _kernel_polys(kind, seed):
    'seeded raw coefficient lists, the empty list and degree 0 included'
    src = FuzzSource(seed)
    draw = _COEFFICIENTS[kind]
    return [[], [draw(src)]] + [[draw(src) for _ in range(fuzz_int(src, 1, 9))]
                                for _ in range(40)]


@pytest.mark.parametrize("kind", sorted(_COEFFICIENTS))
def test_poly_eval_matches_fraction_horner(kind):
    src = FuzzSource(29)
    for p in _kernel_polys(kind, 23):
        for x in _POINTS + [fuzz_rational(src, 99, 99)]:
            assert poly_eval(p, x) == _reference_eval(p, x)


@pytest.mark.parametrize("kind", sorted(_COEFFICIENTS))
def test_poly_definite_integral_matches_fraction_horner(kind):
    src = FuzzSource(31)
    bounds = [(0, 1), (1, 0), (F(-1, 2), F(3, 2)), (F(3, 2), F(-1, 2)), (-3, -3),
              (F(2, 3), F(2, 3)), (0, 0), (-2, F(5, 7))]
    for p in _kernel_polys(kind, 37):
        pairs = bounds + [(fuzz_rational(src, 9, 9), fuzz_rational(src, 9, 9))]
        for lo, hi in pairs:
            assert poly_definite_integral(p, lo, hi) == _reference_integral(p, lo, hi)
        assert poly_definite_integral(p, 2, F(1, 3)) == -poly_definite_integral(p, F(1, 3), 2)


def _naive_integral(p, lo, hi):
    'F(hi) - F(lo) with F = sum c_i x^(i+1) / (i+1), every term a Fraction'
    def anti(x):
        return sum((F(c) * F(x) ** (i + 1) / (i + 1) for i, c in enumerate(p)), F(0))
    return anti(hi) - anti(lo)


def test_antiderivative_factors_above_the_memo_are_built_without_it():
    'an antiderivative of degree _FACTOR_MEMO_TOP + 1 is exact and leaves the factor memo alone'
    top = exact_math._FACTOR_MEMO_TOP + 1
    p = [F(i % 7 - 3, i % 5 + 1) for i in range(top)]  # the antiderivative has degree top
    before = exact_math._antiderivative_factors.cache_info()
    assert poly_definite_integral(p, F(-1, 2), F(3, 2)) == _naive_integral(p, F(-1, 2), F(3, 2))
    kernel = poly_shift(linear_power(3, -2, 1), top - 2)  # x^(top-2) (3 - 2x), degree top - 1
    pair = exact_math._unreduced_beta_integral(3, -2, 1, top - 2, F(-1, 2), F(3, 2))
    assert F(*pair) == _naive_integral(kernel, F(-1, 2), F(3, 2))
    assert exact_math._antiderivative_factors.cache_info() == before


def test_poly_definite_integral_matches_naive_antiderivative():
    'leading zeros, constants, rational, reversed and equal bounds, long integrands; and unreduced'
    src = FuzzSource(53)
    bounds = [(0, 1), (1, 0), (0, F(-5, 3)), (F(-5, 3), 0), (F(-1, 2), F(3, 2)),
              (F(3, 2), F(-1, 2)), (F(2, 7), F(-9, 4)), (-4, 3), (F(3, 5), F(3, 5)), (0, 0),
              (-2, -2)]
    polys = [[F(7)], [-3], [F(-2, 9)], [0, 0, 0, F(5, 4)], [0, 0, 1], [0, F(1, 3), 0, -2]]
    for _ in range(25):
        polys.append(poly_shift(fuzz_poly(src), fuzz_int(src, 0, 6)))
    polys += [poly_shift(linear_power(F(2, 3), -1, 9), 4),
              poly_shift(linear_power(3, -2, 70), 140),  # degree 210: past the factor memo
              [fuzz_rational(src, 9, 9) for _ in range(133)]]
    for p in polys:
        for lo, hi in bounds + [(fuzz_rational(src, 9, 9), fuzz_rational(src, 9, 9))]:
            assert poly_definite_integral(p, lo, hi) == _naive_integral(p, lo, hi)
    assert poly_definite_integral([], 2, 5) == 0


def test_unreduced_beta_integral_matches_the_polynomial_route():
    'x^z (c0 + c1 x)^m integrated in one walk: the value of the linear_power route, as an int pair'
    bounds = [(0, 1), (F(-1, 2), F(3, 2)), (3, -2), (F(5, 7), 0), (F(2, 9), F(2, 9)), (0, 0)]
    for c0 in (-3, 0, 1, 3, 97):
        for c1 in (-2, -1, 0, 2):
            for m in range(31):
                for z in (0, 1, 7, 140):  # z = 140 puts the top degree past the factor memo
                    p = poly_shift(linear_power(c0, c1, m), z)
                    for lo, hi in bounds:
                        total, den = exact_math._unreduced_beta_integral(c0, c1, m, z, lo, hi)
                        assert type(total) is int and type(den) is int and den > 0
                        assert F(total, den) == poly_definite_integral(p, lo, hi), (c0, c1, m, z)


def test_poly_definite_integral_builds_one_fraction_per_call(fraction_constructions):
    'with int coefficients the antiderivative runs in integers and is reduced once'
    cases = [([0, 0, 3, -2], F(-1, 2), F(3, 2)),
             (poly_shift(linear_power(3, -2, 70), 140), F(1, 3), 1)]
    for case in cases:
        value = _naive_integral(*case)
        fraction_constructions.clear()
        assert poly_definite_integral(*case) == value
        assert len(fraction_constructions) == 1, fraction_constructions


def test_walked_sum_is_a_horner_sum_over_the_walk():
    'sum_j c_j u^j v^(J-j) over C(n, k), C(n, k-1), ..., C(n, 0), u and v of any sign'
    from ruehrkit.exact_math import _walked_sum
    for n, k in ((1, 0), (5, 0), (5, 4), (12, 7), (30, 29)):
        for u, v in ((1, 1), (2, -3), (-5, 0), (0, 4), (7, 1)):
            steps = zip(range(k, 0, -1), range(n - k + 1, n + 1))
            want = sum(binomial(n, k - j) * u ** j * v ** (k - j) for j in range(k + 1))
            assert _walked_sum(binomial(n, k), steps, u, v) == want, (n, k, u, v)


def test_poly_eval_of_int_polynomial_at_int_point_builds_no_fraction(fraction_constructions):
    'an int polynomial builds no Fraction at an int point, and exactly one at a rational point'
    p = [binomial(90, j) for j in range(31)]
    x, want = F(-4, 7), sum(c * F(-4, 7) ** j for j, c in enumerate(p))
    fraction_constructions.clear()
    assert poly_eval(p, -4) == sum(c * (-4) ** j for j, c in enumerate(p))
    assert poly_eval([], 7) == 0
    assert fraction_constructions == []
    assert poly_eval(p, x) == want
    assert len(fraction_constructions) == 1, fraction_constructions


def test_linear_power_with_fraction_coefficients_matches_poly_pow():
    src = FuzzSource(41)
    cases = [(F(1, 2), F(-1, 3)), (F(3, 7), -1), (2, F(5, 4)), (F(4, 2), F(6, 3)),
             (0, F(2, 3)), (F(2, 3), 0)]
    cases += [(fuzz_rational(src, 9, 9), fuzz_rational(src, 9, 9)) for _ in range(30)]
    inputs = [(c0, c1, e) for c0, c1 in cases for e in (0, 1, 2, 7, fuzz_int(src, 0, 25))]
    inputs += [(F(1, 3), F(-2, 5), 40), (F(1, 3), F(-2, 5), 120)]  # bench/probes.py's operands
    for c0, c1, e in inputs:
        got = linear_power(c0, c1, e)
        want = poly_pow(poly_normalize([c0, c1]), e)
        assert got == want
        _assert_scalar_rule(got)


def _names_read(path):
    'every name a module reads or takes as an attribute; def lines, imports and text do not count'
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_function_and_class_is_used_by_the_package_or_the_benchmark():
    'a function or class that only the tests use belongs in the tests'
    root = Path(__file__).resolve().parents[1]
    paths = [*(root / "src" / "ruehrkit").glob("*.py"), *(root / "bench").glob("*.py")]
    used = set().union(*map(_names_read, paths))
    public = [f"{module.__name__}.{name}"
              for module in (exact_math, identities, beta_dist, collatz_bound, harness, cli)
              for name, value in vars(module).items()
              if (inspect.isfunction(value) or inspect.isclass(value))
              and value.__module__ == module.__name__ and not name.startswith("_")]
    assert {"ruehrkit.exact_math.poly_add", "ruehrkit.collatz_bound.GenCollatzConfig",
            "ruehrkit.cli.cmd_orbit"} <= set(public)
    # the general integral of a polynomial stays public for library callers; every
    # check integrates x^z (c0 + c1 x)^m by the private _unreduced_beta_integral
    library_only = ["ruehrkit.exact_math.poly_definite_integral"]
    assert [name for name in public if name.rpartition(".")[2] not in used] == library_only
    assert [name for name, value in vars(ruehrkit).items()
            if not name.startswith("_") and not inspect.ismodule(value)] == []
