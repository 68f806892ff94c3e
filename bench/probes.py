"""Fixed-size probes of single primitives and checkers.

Each probe calls one function at a fixed size, checks its result against
an independent computation, and reports the median CPU time of one call in
microseconds.  CPU time, because a call can be shorter than the slices in
which a probe and a speed meter sharing its CPU take turns.  The sizes do
not depend on the seed or the workload, so a probe moves only when the code
under it changes.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

PROBE_NAMES = ("probe.poly_mul_40_us", "probe.poly_mul_120_us",
               "probe.linear_power_100_us", "probe.poly_compose_c40_us",
               "probe.comtet1_60_30_us", "probe.binom_tail_40_20_us",
               "probe.tail_sum_400_us")

MIN_REPEATS = 3
MAX_REPEATS = 2000
BUDGET_S = 0.2


def _product_ok(em, product, a, b) -> bool:
    """A product of two polynomials evaluates to the product of their values."""
    points = (Fraction(2), Fraction(1, 3), Fraction(-5, 7))
    return all(em.poly_eval(product, x) == em.poly_eval(a, x) * em.poly_eval(b, x)
               for x in points)


def _tail_sum_reference(k: int, d: int, eps: Fraction) -> Fraction:
    center = Fraction((d - 1) * k, d)
    total = sum(math.comb(k, i) * (d - 1) ** i for i in range(k + 1)
                if abs(i - center) > eps * k)
    return Fraction(total, d ** k)


def _cases():
    from ruehrkit import beta_dist, collatz_bound
    from ruehrkit import exact_math as em
    from ruehrkit import identities
    from ruehrkit.identities import SumFamily

    a40 = em.linear_power(Fraction(1, 3), Fraction(-2, 5), 40)
    b40 = identities.family_polynomial(SumFamily.C, 20)
    a120 = em.linear_power(Fraction(1, 3), Fraction(-2, 5), 120)
    b120 = identities.family_polynomial(SumFamily.C, 60)
    c40 = identities.family_polynomial(SumFamily.C, 40)
    d40 = identities.family_polynomial(SumFamily.D, 40)
    p = Fraction(1, 3)
    query = collatz_bound.TailSumQuery(k=400, d=2, eps=Fraction(1, 4))
    return [
        ("probe.poly_mul_40_us", lambda: em.poly_mul(a40, b40),
         lambda r: _product_ok(em, r, a40, b40)),
        ("probe.poly_mul_120_us", lambda: em.poly_mul(a120, b120),
         lambda r: _product_ok(em, r, a120, b120)),
        ("probe.linear_power_100_us", lambda: em.linear_power(3, -2, 100),
         lambda r: r == em.poly_pow(em.poly_normalize([3, -2]), 100)),
        ("probe.poly_compose_c40_us", lambda: em.poly_compose(c40, [Fraction(1), Fraction(1)]),
         lambda r: r == d40),
        ("probe.comtet1_60_30_us",
         lambda: identities.comtet1_sides(60, 30, Fraction(3, 7), Fraction(-5, 2)),
         lambda r: r.equal and r.lhs == r.rhs != 0),
        ("probe.binom_tail_40_20_us", lambda: beta_dist.binom_tail_sides(40, 20, p),
         lambda r: r.equal and 0 < r.lhs < 1),
        ("probe.tail_sum_400_us", lambda: collatz_bound.tail_sum(query),
         lambda r: r == _tail_sum_reference(400, 2, Fraction(1, 4))),
    ]


def run_probes() -> tuple[dict[str, float], list[str]]:
    """Median CPU microseconds per probe, and the names of probes whose check failed."""
    timings, failed = {}, []
    for name, call, check in _cases():
        if not check(call()):
            failed.append(name)
        samples = []
        while len(samples) < MIN_REPEATS or (sum(samples) < BUDGET_S
                                             and len(samples) < MAX_REPEATS):
            started = time.process_time()
            call()
            samples.append(time.process_time() - started)
        timings[name] = statistics.median(samples) * 1e6
    return timings, failed
