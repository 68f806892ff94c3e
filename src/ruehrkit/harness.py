"""Deterministic check harness: seeded fuzzing, reports, suites, renderers.

Each suite builder yields its checks as specs, plain tuples
(check_name, params, checker, args) whose checker is one pure function
returning a SidePair.  build_suites runs the builders up front, in a fixed
order, each to its end before the next, so every fuzz draw comes from one
linear-congruential source in the same order; it alone turns each spec into
a CheckInstance.  The harness, not the checker, decides each verdict: a
report is equal only when the checker's relation holds and, except for the
two inequality checks in _INEQUALITIES, the two serialized sides are the
same string.  run_instances sorts the instances by check_name, stably, so
generation order holds within a name, then runs them one at a time and
yields each report as its check finishes; a caller that writes each report
as it arrives holds none of them.  The same seed and flags always produce
byte-identical output apart from the elapsed_ms field.

The tailsum suite takes its partial sums S(m) = sum_{i<=m} C(k,i) (d-1)^i
from identities: partial_sum is comtet1_sides at a = 1, b = d - 1,
tailsum_comtet1 sets comtet1_integral's S(m) against d^k minus the
integral of the reflected terms i > m, and tailsum_integral sets
collatz_bound.tail_sum against two such integrals.

Report records are CheckReport named tuples with exactly the fields
check_name, params, lhs, rhs, equal, elapsed_ms; rationals serialize as
"num/den" and polynomials (or value tuples) as JSON arrays of rational
strings.  An instance keeps its params as values (ints, Fractions and
strs); their texts are made only when its report is built.  CheckInstance
and FuzzSource are plain mutable classes.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Iterator, NamedTuple, Optional

from . import beta_dist, collatz_bound, identities
from .exact_math import poly_add, poly_compose, poly_eval, poly_mul
from .identities import SidePair, SumFamily, compare_sides

MASK64 = (1 << 64) - 1
LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407


class FuzzSource:
    """64-bit linear congruential generator with pinned constants.

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64.
    The constants are fixed so identical seeds fuzz identical parameter
    streams everywhere the harness runs.
    """

    def __init__(self, state: int):
        self.state = state & MASK64

    def next_word(self) -> int:
        self.state = (LCG_MULTIPLIER * self.state + LCG_INCREMENT) & MASK64
        return self.state


def fuzz_int(src: FuzzSource, lo: int, hi: int) -> int:
    """Uniform-ish integer in [lo, hi]; consumes one generator step."""
    if hi < lo:
        raise ValueError(f"fuzz_int requires lo <= hi, got [{lo}, {hi}]")
    return lo + src.next_word() % (hi - lo + 1)


def fuzz_rational(src: FuzzSource, num_bound: int, den_bound: int) -> Fraction:
    """Nonzero rational with |num| <= num_bound, den <= den_bound, normalized.

    The numerator is drawn from [-num_bound, num_bound] without 0 (a draw
    of 0 or more shifts up by one) and the denominator from [1, den_bound],
    each by one fuzz_int; consumes exactly two generator steps.
    """
    if num_bound < 1 or den_bound < 1:
        raise ValueError("fuzz_rational bounds must be >= 1")
    num = fuzz_int(src, -num_bound, num_bound - 1)
    return _rational(num if num < 0 else num + 1, fuzz_int(src, 1, den_bound))


def fuzz_probability(src: FuzzSource, den_bound: int, *,
                     lo_open: bool = False, hi_open: bool = False) -> Fraction:
    """Rational probability with denominator <= den_bound; two generator steps.

    Endpoints are included unless lo_open / hi_open exclude them.  An
    open-open interval needs den_bound >= 2, or fuzz_int raises ValueError.
    """
    den = fuzz_int(src, 1 + (lo_open and hi_open), den_bound)
    num = fuzz_int(src, lo_open, den - hi_open)
    return _rational(num, den)


# The suites draw at most 207 distinct pairs: the 162 of fuzz_rational(9, 9) and
# the 90 of fuzz_probability(12), 45 of them shared; the smaller bounds draw subsets.
@functools.lru_cache(maxsize=256)
def _rational(num: int, den: int) -> Fraction:
    """Fraction(num, den), normalized once per pair; the fuzzers draw few distinct pairs."""
    return Fraction(num, den)


class CheckReport(NamedTuple):
    """One verified identity instance in serialized form, as a named tuple."""

    check_name: str
    params: dict
    lhs: str
    rhs: str
    equal: bool
    elapsed_ms: int


def serialize_value(value) -> str:
    """Rational -> "num/den"; list/tuple of rationals -> JSON array of them.

    str gives an int and a Fraction of the same value the same "num" or
    "num/den" text in lowest terms (Fraction(1, 1) is "1"), and a join gives
    json.dumps' bytes for the array: rational strings need no JSON escapes.
    """
    if isinstance(value, (list, tuple)):
        return '["' + '", "'.join(map(str, value)) + '"]' if value else "[]"
    return str(value)


# The only checks whose rhs is a bound rather than a value equal to the lhs.
_INEQUALITIES = frozenset({"eta_bound", "tailsum_monotone"})


class CheckInstance:
    """A named, parametrized check waiting to run: checker(*args).

    params maps each name to its value, an int, a Fraction or a str, whose
    str is its report text.  run() returns (lhs, rhs, equal) with both sides
    serialized.  equal holds only when the checker's SidePair.equal does and,
    for every check outside _INEQUALITIES, the serialized lhs is the
    serialized rhs.

    The class stays plain and mutable because bench/tracer.py assigns a
    wrapper to instance.run, until the tracer wraps checker instead
    (ROADMAP item 1).
    """

    def __init__(self, check_name: str, params: dict,
                 checker: Callable[..., SidePair], args: tuple):
        self.check_name, self.params, self.checker, self.args = check_name, params, checker, args

    def run(self) -> tuple[str, str, bool]:
        pair = self.checker(*self.args)
        lhs, rhs = serialize_value(pair.lhs), serialize_value(pair.rhs)
        return lhs, rhs, pair.equal and (self.check_name in _INEQUALITIES or lhs == rhs)


# What a suite builder yields: CheckInstance's four arguments, in order.
CheckSpec = tuple[str, dict, Callable[..., SidePair], tuple]


def _ruehr_chain_sides(n: int) -> SidePair:
    """Direct chain sums against polynomial values; all must be one value."""
    direct = identities.ruehr_sums_direct(n)
    via_poly = identities.ruehr_polynomial_values(n)
    return SidePair(direct, via_poly, direct == via_poly and len(set(direct)) == 1)


def _suite_ruehr(src: FuzzSource, max_n: int, trials: int) -> list[CheckSpec]:
    return [("ruehr_chain", {"n": n}, _ruehr_chain_sides, (n,)) for n in range(max_n + 1)]


def _suite_moments(src: FuzzSource, max_n: int, trials: int) -> list[CheckSpec]:
    return [("kimura_ruehr_moments", {"n": n}, identities.kimura_ruehr_moments, (n,))
            for n in range(max_n + 1)]


def _suite_comtet(src: FuzzSource, max_n: int, trials: int) -> Iterator[CheckSpec]:
    top = max(max_n, 1)
    for trial in range(trials):
        n = fuzz_int(src, 1, top)
        k = fuzz_int(src, 0, n - 1)
        a = fuzz_rational(src, 9, 9)
        b = fuzz_rational(src, 9, 9)
        yield ("comtet1", {"trial": trial, "n": n, "k": k, "a": a, "b": b},
               identities.comtet1_sides, (n, k, a, b))


def _ruehr_specialization_sides(n: int, variant: str, point: Fraction, scale: int,
                                chain_index: int) -> SidePair:
    """A corollary2 polynomial at `point`, times scale^n, against a chain sum."""
    poly = identities.corollary2_lhs(n, variant)
    lhs = poly_eval(poly, point) * scale ** n
    return compare_sides(lhs, identities.ruehr_sum_direct(n, chain_index))


def _suite_corollaries(src: FuzzSource, max_n: int, trials: int) -> Iterator[CheckSpec]:
    for n in range(max_n + 1):
        for variant in ("pos", "neg"):
            yield ("corollary1", {"n": n, "variant": variant},
                   identities.corollary1_sides, (n, variant))
        for variant in ("first", "second"):
            yield ("corollary2", {"n": n, "variant": variant},
                   identities.corollary2_sides, (n, variant))
        # one link of the chain each: 3^n lhs(2/3) = A_n(3) against B_n(2), and
        # 9^n lhs(4/3) = C_n(-3) against D_n(-4)
        for variant, point, scale, chain_index in (("first", Fraction(2, 3), 3, 1),
                                                   ("second", Fraction(4, 3), 9, 2)):
            yield ("ruehr_specialization", {"n": n, "point": point},
                   _ruehr_specialization_sides, (n, variant, point, scale, chain_index))


_ONE_MINUS_X = [1, -1]


def _alzer_shift_sides(n: int, left: SumFamily, right: SumFamily) -> SidePair:
    """The shift relation left_n(x+1) = right_n(x), coefficient-wise.

    left_n(x+1) is poly_compose with q = 1 + x, a Taylor shift by
    synthetic division; it goes through neither poly_mul nor poly_add, and
    its slope of 1 leaves _times_powers nothing to scale.  The right side
    is built by its own route in family_polynomial (binomial_row for B and
    D, a walk up the top index for A and C).  corollary2 checks the same
    shift in homogeneous form, from the same coefficient lists.
    """
    lhs = poly_compose(identities.family_polynomial(left, n), [1, 1])
    return compare_sides(lhs, identities.family_polynomial(right, n))


def _recurrence_sides(kind: str, j: int, big_n: int) -> SidePair:
    """The Pascal-rule recurrence h(j+1,N) = (1-x) h(j+1,N-1) + h(j,N), h = f or g."""
    lhs = identities.proof_helper(kind, j + 1, big_n)
    rhs = poly_add(
        poly_mul(_ONE_MINUS_X, identities.proof_helper(kind, j + 1, big_n - 1)),
        identities.proof_helper(kind, j, big_n))
    return compare_sides(lhs, rhs)


def _suite_polynomials(src: FuzzSource, max_n: int, trials: int) -> Iterator[CheckSpec]:
    for n in range(max_n + 1):
        for left, right in ((SumFamily.A, SumFamily.B), (SumFamily.C, SumFamily.D)):
            yield ("alzer_shift", {"n": n, "pair": left.value + right.value},
                   _alzer_shift_sides, (n, left, right))
    for n in range(1, max_n + 1):
        for m in range(1, n + 1):
            yield "comtet2", {"m": m, "n": n}, identities.comtet2_sides, (m, n)
    for m in range(1, max_n + 1):
        for big_n in range(max_n + 1):
            yield "comtet3", {"m": m, "N": big_n}, identities.comtet3_sides, (m, big_n)
    for j in range(1, max_n + 1):
        for big_n in range(1, max_n + 1):
            for kind in ("f", "g"):
                yield (f"recurrence_{kind}", {"j": j, "N": big_n},
                       _recurrence_sides, (kind, j, big_n))


def _beta_cross_sides(x: int, y: int) -> SidePair:
    """B(x, y) from factorials against the exact integral over [0, 1]."""
    return compare_sides(beta_dist.beta_exact(x, y), beta_dist.incomplete_beta(1, x, y))


def _beta_complement_sides(x: int, y: int, p: Fraction) -> SidePair:
    """I_p(x, y) + I_(1-p)(y, x) = 1."""
    lhs = beta_dist.regularized_beta(p, x, y) + beta_dist.regularized_beta(1 - p, y, x)
    return compare_sides(lhs, 1)


def _suite_beta(src: FuzzSource, max_n: int, trials: int) -> Iterator[CheckSpec]:
    for x in range(1, 9):
        for y in range(1, 9):
            yield "beta_cross", {"x": x, "y": y}, _beta_cross_sides, (x, y)
    for trial in range(trials):
        x = fuzz_int(src, 1, 12)
        y = fuzz_int(src, 1, 12)
        p = fuzz_probability(src, 12)
        yield ("beta_complement", {"trial": trial, "x": x, "y": y, "p": p},
               _beta_complement_sides, (x, y, p))
    for trial in range(trials):
        n = fuzz_int(src, 1, max(max_n, 1))
        a = fuzz_int(src, 1, n)
        p = fuzz_probability(src, 9)
        yield ("binom_tail", {"trial": trial, "n": n, "a": a, "p": p},
               beta_dist.binom_tail_sides, (n, a, p))


def _suite_negbinom(src: FuzzSource, max_n: int, trials: int) -> Iterator[CheckSpec]:
    for trial in range(trials):
        r = fuzz_int(src, 1, 10)
        k = fuzz_int(src, 0, max(max_n, 1))
        p = fuzz_probability(src, 9, lo_open=True)
        yield ("negbinom_cdf", {"trial": trial, "r": r, "k": k, "p": p},
               beta_dist.negbinom_window_sides, (r, 0, k, p))
    for r in range(1, 4):
        for a in range(1, 4):
            p = Fraction(a, a + 2)
            yield ("negbinom_tail", {"r": r, "a": a, "p": p, "m_max": 60},
                   beta_dist.negbinom_window_sides, (r, a, 60, p))


def _tailsum_comtet1_sides(k: int, m: int, d: int) -> SidePair:
    """S(m) = sum_{i<=m} C(k,i) (d-1)^i as an integral against its reflection.

    lhs is comtet1_integral(k, m, 1, d-1); the terms i > m, reindexed by
    j = k - i, are the comtet1 sum at a = d-1, b = 1 up to k-m-1, so the rhs
    is d^k minus the integral of t^(k-m-1) (d-t)^m over [1, d].
    """
    below = identities.comtet1_integral(k, m, 1, d - 1)
    return compare_sides(below, d ** k - identities.comtet1_integral(k, k - m - 1, d - 1, 1))


def _tailsum_monotone_sides(k: int, d: int, eps: Fraction) -> SidePair:
    """Halving the margin can only widen the tail: mass(eps/2) >= mass(eps)."""
    wide = collatz_bound.tail_sum(collatz_bound.TailSumQuery(k=k, d=d, eps=eps / 2))
    narrow = collatz_bound.tail_sum(collatz_bound.TailSumQuery(k=k, d=d, eps=eps))
    return SidePair(wide, narrow, wide >= narrow)


def _tailsum_integral_sides(k: int, d: int, eps: Fraction) -> SidePair:
    """tail_sum against d^k minus the middle band, each end a comtet1 integral.

    The tail holds i <= ceil(c - eps k) - 1 and i >= floor(c + eps k) + 1
    with c = (d-1)k/d; S(j) = sum_{i<=j} C(k,i) (d-1)^i is the integral
    comtet1_integral(k, j, 1, d-1), 0 below j = 0 and d^k from j = k on.
    """
    def below(j):
        if j < 0:
            return 0
        return d ** k if j >= k else identities.comtet1_integral(k, j, 1, d - 1)
    center, margin = Fraction((d - 1) * k, d), eps * k
    outside = below(math.ceil(center - margin) - 1) + d ** k - below(math.floor(center + margin))
    mass = collatz_bound.tail_sum(collatz_bound.TailSumQuery(k=k, d=d, eps=eps))
    return compare_sides(mass, Fraction(outside, d ** k))


def _eta_bound_sides(k: int, d: int, eps: Fraction, root_bound: Fraction) -> SidePair:
    """The exact tail mass lies strictly below root_bound^k."""
    mass = collatz_bound.tail_sum(collatz_bound.TailSumQuery(k=k, d=d, eps=eps))
    cap = root_bound ** k
    return SidePair(mass, cap, mass < cap)


def _suite_tailsum(src: FuzzSource, max_n: int, trials: int) -> Iterator[CheckSpec]:
    for trial in range(trials):
        k = fuzz_int(src, 1, max(max_n, 1))
        m = fuzz_int(src, 0, k - 1)
        d = fuzz_int(src, 2, 6)
        params = {"trial": trial, "k": k, "m": m, "d": d}
        yield "partial_sum", params, identities.comtet1_sides, (k, m, 1, d - 1)
        yield "tailsum_comtet1", params, _tailsum_comtet1_sides, (k, m, d)
    for trial in range(trials // 2):
        k = fuzz_int(src, 1, max(max_n, 1))
        d = fuzz_int(src, 2, 4)
        eps = fuzz_probability(src, 9, lo_open=True, hi_open=True)
        params = {"trial": trial, "k": k, "d": d, "eps": eps}
        yield "tailsum_monotone", params, _tailsum_monotone_sides, (k, d, eps)
        yield "tailsum_integral", params, _tailsum_integral_sides, (k, d, eps)
    eps, root_bound = Fraction(1, 4), Fraction(19, 20)
    for k in (50, 100, 200, 400):
        params = {"k": k, "d": 2, "eps": eps, "root_bound": root_bound}
        yield "eta_bound", params, _eta_bound_sides, (k, 2, eps, root_bound)


def _orbit_cycle_sides(max_start: int, max_steps: int) -> SidePair:
    """Count of starts 1..max_start whose classical orbit ends in the {1, 2} cycle."""
    fates = collatz_bound.orbit_fates(collatz_bound.CLASSICAL, max_start, max_steps)
    converged = fates.count(("cycle-found", frozenset({1, 2})))
    return compare_sides(converged, max_start)


def _suite_orbit(src: FuzzSource, max_n: int, trials: int) -> list[CheckSpec]:
    if max_n < 1:
        return []  # no start value to check
    max_steps = 10_000
    return [("orbit_cycle", {"max_start": max_n, "max_steps": max_steps, "preset": "classical"},
             _orbit_cycle_sides, (max_n, max_steps))]


# name -> (builder, default max_n, default trials), in the order `all` runs
# them; a default of 0 trials marks a suite that draws no fuzz.  Each
# builder(src, max_n, trials) yields or returns its CheckSpecs in report
# order within a name, reading its checkers from their modules as it runs.
_SUITES = {
    "ruehr": (_suite_ruehr, 20, 0),
    "moments": (_suite_moments, 20, 0),
    "comtet": (_suite_comtet, 30, 25),
    "corollaries": (_suite_corollaries, 15, 0),
    "polynomials": (_suite_polynomials, 10, 0),
    "beta": (_suite_beta, 20, 20),
    "negbinom": (_suite_negbinom, 20, 20),
    "tailsum": (_suite_tailsum, 40, 20),
    "orbit": (_suite_orbit, 1000, 0),
}
SUITE_ORDER = tuple(_SUITES)


def build_suites(names, seed: int,
                 max_n: Optional[int] = None,
                 trials: Optional[int] = None) -> list[CheckInstance]:
    """Expand suites in order against one seeded source, drawing fuzz now.

    Each builder's specs become CheckInstances, and the builder runs to its
    end before the next starts.  max_n and trials fall back to each suite's
    defaults when None.
    """
    src = FuzzSource(seed)
    instances = []
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITE_ORDER} or 'all'")
        build, default_max_n, default_trials = _SUITES[name]
        instances += [CheckInstance(*spec) for spec in build(
            src, default_max_n if max_n is None else max_n,
            default_trials if trials is None else trials)]
    return instances


def run_instances(instances, jobs: int = 1) -> Iterator[CheckReport]:
    """Sort the instances by check_name, then run and yield them one at a time.

    The sort is stable, so within a name the reports keep generation order,
    which already enumerates parameters ascending.  Each report is yielded
    as its check finishes, on the calling thread; jobs is accepted for
    compatibility and does not change execution.  A check that raises
    becomes a failed report whose lhs names the exception type.  The params
    texts are made after the elapsed_ms clock stops.
    """
    for inst in sorted(instances, key=lambda inst: inst.check_name):
        started = time.perf_counter()
        try:
            lhs, rhs, equal = inst.run()
        except Exception as exc:  # one broken check must not end the run
            lhs, rhs, equal = f"error: {type(exc).__name__}", " ".join(str(exc).split()), False
        elapsed_ms = int((time.perf_counter() - started) * 1000)
        params = {key: str(value) for key, value in inst.params.items()}
        yield CheckReport(inst.check_name, params, lhs, rhs, equal, elapsed_ms)


def report_to_json(report: CheckReport) -> str:
    """The report as json.dumps would write it, params sorted, built by a string join.

    An rhs equal to the lhs, as on every passing equality report, reuses the
    lhs's escaped text.
    """
    params = ", ".join([f"{_json_str(key)}: {_json_str(report.params[key])}"
                        for key in sorted(report.params)])
    lhs = _json_str(report.lhs)
    rhs = lhs if report.rhs == report.lhs else _json_str(report.rhs)
    return (f'{{"check_name": {_json_str(report.check_name)}, "params": {{{params}}}, '
            f'"lhs": {lhs}, "rhs": {rhs}, '
            f'"equal": {"true" if report.equal else "false"}, '
            f'"elapsed_ms": {report.elapsed_ms}}}')


def report_to_csv_row(report: CheckReport) -> list[str]:
    params = ";".join(f"{key}={report.params[key]}" for key in sorted(report.params))
    return [report.check_name, params, report.lhs, report.rhs,
            "true" if report.equal else "false", str(report.elapsed_ms)]


def report_to_text(report: CheckReport) -> str:
    status = "ok  " if report.equal else "FAIL"
    params = " ".join(f"{key}={report.params[key]}" for key in sorted(report.params))
    return f"[{status}] {report.check_name} {params} lhs={report.lhs} rhs={report.rhs}"
