"""Acceptance suite: one test per exit criterion, full stated ranges.

Every criterion is exact-equality or an exact-order property; the only
tolerances are the stated wall-clock budgets, asserted per criterion.
Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import math
import time
from fractions import Fraction as F

from conftest import strip_elapsed
from ruehrkit import beta_dist, cli, collatz_bound, harness, identities
from ruehrkit.harness import FuzzSource, fuzz_int, fuzz_probability, fuzz_rational
from ruehrkit.identities import SidePair, SumFamily


def _passed(number, elapsed, detail):
    print(f"[PASS] criterion {number} ({elapsed:.1f}s): {detail}")


def test_criterion_1_ruehr_chain_to_200():
    started = time.perf_counter()
    for n, value in ((0, 1), (1, 6), (2, 39)):
        assert harness._ruehr_chain_sides(n).lhs == (value, value, value, value)
    for n in range(201):
        pair = harness._ruehr_chain_sides(n)  # equal: both paths agree, all four one value
        assert pair.equal, f"chain broken at n={n}: {pair.lhs} vs {pair.rhs}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _passed(1, elapsed, "four-way chain equal, both paths agree, n <= 200")


def test_criterion_2_moments_to_100():
    started = time.perf_counter()
    assert identities.kimura_ruehr_moments(1).lhs == 1
    assert identities.kimura_ruehr_moments(2).lhs == F(26, 35)
    for n in range(101):
        pair = identities.kimura_ruehr_moments(n)
        assert pair.equal, f"moment mismatch at n={n}: {pair.lhs} vs {pair.rhs}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    _passed(2, elapsed, "kernel moment integrals equal exactly, n <= 100")


def test_criterion_3_comtet1_full_sweep():
    started = time.perf_counter()
    src = FuzzSource(42)
    checked = 0
    for n in range(1, 61):
        for k in range(n):
            for _ in range(5):
                a = fuzz_rational(src, 9, 9)
                b = fuzz_rational(src, 9, 9)
                pair = identities.comtet1_sides(n, k, a, b)
                assert pair.equal, f"mismatch at n={n} k={k} a={a} b={b}"
                checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 9150
    assert elapsed < 120
    _passed(3, elapsed, f"{checked} fuzzed sum-vs-integral instances, n <= 60")


def test_criterion_4_comtet23_and_recurrences():
    started = time.perf_counter()
    for n in range(1, 41):
        for m in range(1, n + 1):
            assert identities.comtet2_sides(m, n).equal, f"comtet2 m={m} n={n}"
    for m in range(1, 41):
        for big_n in range(41):
            assert identities.comtet3_sides(m, big_n).equal, f"comtet3 m={m} N={big_n}"
    for j in range(1, 21):
        for big_n in range(1, 21):
            for kind in ("f", "g"):
                assert harness._recurrence_sides(kind, j, big_n).equal, \
                    f"recurrence_{kind} j={j} N={big_n}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _passed(4, elapsed, "comtet2/3 to 40, f/g recurrences to 20")


def test_criterion_5_corollaries_and_shifts():
    started = time.perf_counter()
    for n in range(101):
        assert identities.corollary1_sides(n, "pos").equal, f"cor1 pos n={n}"
        assert identities.corollary1_sides(n, "neg").equal, f"cor1 neg n={n}"
    for n in range(41):
        assert identities.corollary2_sides(n, "first").equal, f"cor2 first n={n}"
        assert identities.corollary2_sides(n, "second").equal, f"cor2 second n={n}"
    for n in range(41):
        for left, right in ((SumFamily.A, SumFamily.B), (SumFamily.C, SumFamily.D)):
            assert harness._alzer_shift_sides(n, left, right).equal, \
                f"{left.value}/{right.value} shift n={n}"
    elapsed = time.perf_counter() - started
    _passed(5, elapsed, "corollary1 to 100, corollary2 and both shifts to 40")


def test_criterion_6_distribution_identities():
    started = time.perf_counter()
    src = FuzzSource(42)
    for n in range(1, 41):
        for a in range(1, n + 1):
            for _ in range(20):
                p = fuzz_probability(src, 9)
                assert beta_dist.binom_tail_sides(n, a, p).equal, \
                    f"binom tail n={n} a={a} p={p}"
    for r in range(1, 26):
        for k in range(41):
            for _ in range(2):
                p = fuzz_probability(src, 9, lo_open=True)
                assert beta_dist.negbinom_window_sides(r, 0, k, p).equal, \
                    f"negbinom cdf r={r} k={k} p={p}"
    # the partial tail sum's gap to the survivor value is itself a regularized beta value
    for p in (F(1, 2), F(2, 5)):
        for r in range(1, 6):
            for a in range(1, 6):
                survivor = 1 - beta_dist.regularized_beta(p, r, a)
                gaps = []
                for m_max in (50, 100, 150, 200, 210):
                    window = beta_dist.negbinom_window_sides(r, a, m_max, p)
                    assert window.equal, f"negbinom window r={r} a={a} M={m_max} p={p}"
                    gaps.append(survivor - window.lhs)
                    assert gaps[-1] == beta_dist.regularized_beta(1 - p, m_max + 1, r), \
                        f"gap is not I_(1-p)(M+1, r) at r={r} a={a} M={m_max} p={p}"
                assert all(later < earlier for earlier, later in zip(gaps, gaps[1:])), \
                    f"gap not decreasing at r={r} a={a} p={p}"
                assert gaps[3] < F(1, 10 ** 6), f"gap at M=200 too large: r={r} a={a} p={p}"
    # the reprinted ratio form is wrong; the implementation follows the integral
    ratio_form = F(2 + 3, 2) / math.comb(5, 2)
    assert ratio_form == F(1, 4)
    assert beta_dist.incomplete_beta(1, 2, 3) == F(1, 12)
    assert beta_dist.beta_exact(2, 3) == F(1, 12)
    elapsed = time.perf_counter() - started
    _passed(6, elapsed, "binomial/negative-binomial beta identities, gap decay, "
                        "beta closed-form erratum pinned")


def test_criterion_7_tail_bound():
    started = time.perf_counter()
    assert collatz_bound.tail_sum(collatz_bound.TailSumQuery(4, 2, F(1, 4))) == F(1, 8)
    assert collatz_bound.tail_sum(collatz_bound.TailSumQuery(2, 3, F(1, 3))) == F(1, 9)
    src = FuzzSource(42)
    for _ in range(40):
        k = fuzz_int(src, 1, 60)
        m = fuzz_int(src, 0, k - 1)
        d = fuzz_int(src, 2, 6)
        pair = identities.comtet1_sides(k, m, 1, d - 1)
        reflection = d ** k - identities.comtet1_integral(k, k - m - 1, d - 1, 1)
        assert pair.equal and pair.lhs == reflection, \
            f"partial sum disagrees with its integral or reflection at k={k} m={m} d={d}"
    roots = {k: collatz_bound.kth_root(
        collatz_bound.tail_sum(collatz_bound.TailSumQuery(k, 2, F(1, 4))), k)
        for k in (50, 100, 200, 400)}
    max_root = max(roots.values())
    assert max_root < 0.95, f"decay witness failed: {roots}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    _passed(7, elapsed, f"tail sums pinned, integral form cross-checked, "
                        f"max k-th root {max_root:.4f} < 0.95")


def test_criterion_8_harness_determinism_and_fault_injection(capsys, monkeypatch):
    started = time.perf_counter()
    argv = ["verify", "all", "--seed", "42", "--format", "json"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert strip_elapsed(first) == strip_elapsed(second), \
        "repeat run with the same seed is not byte-identical"
    assert len(first.splitlines()) > 100

    monkeypatch.setattr(identities, "comtet1_sides",
                        lambda n, k, a, b: SidePair(lhs=F(0), rhs=F(1), equal=False))
    assert cli.main(argv) == 1
    capsys.readouterr()
    elapsed = time.perf_counter() - started
    _passed(8, elapsed, "verify all deterministic at seed 42; corrupted checker exits 1")


def test_criterion_9_ruehr_chain_at_2000():
    started = time.perf_counter()
    pair = harness._ruehr_chain_sides(2000)  # equal: both paths agree, all four one value
    assert pair.equal, "chain broken at n=2000"
    values = pair.lhs
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    _passed(9, elapsed, f"four-way chain equal at n=2000 ({values[0].bit_length()} bits)")


def test_criterion_10_tailsum_integral_at_4000():
    started = time.perf_counter()
    pair = harness._tailsum_integral_sides(4000, 2, F(1, 4))
    assert pair.equal, "tail_sum disagrees with its comtet1 integral form at k=4000"
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    _passed(10, elapsed, "tail_sum equals d^k minus two comtet1 integrals at k=4000, d=2, eps=1/4")


def test_criterion_11_orbit_cycle_at_100000():
    started = time.perf_counter()
    pair = harness._orbit_cycle_sides(100_000, 10_000)
    assert pair.equal, f"only {pair.lhs} of {pair.rhs} classical orbits reach {{1, 2}}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    _passed(11, elapsed, "every classical orbit from a start <= 100000 ends in the {1, 2} cycle")
