import math
from fractions import Fraction as F

import pytest

from ruehrkit.collatz_bound import (
    CLASSICAL,
    GenCollatzConfig,
    OrbitResult,
    TailSumQuery,
    g_step,
    kth_root,
    orbit,
    orbit_fates,
    tail_sum,
)
from ruehrkit.harness import FuzzSource, fuzz_int
from ruehrkit.identities import comtet1_sides


def test_classical_config():
    assert CLASSICAL.mult == 3
    assert CLASSICAL.div == 2
    assert CLASSICAL.residues == (0, -1)


def test_config_accepts_list_residues():
    cfg = GenCollatzConfig(mult=5, div=3, residues=[0, 1, -1])
    assert cfg.residues == (0, 1, -1)


def test_records_are_values_built_by_keyword():
    cfg = GenCollatzConfig(mult=5, div=3, residues=[0, 1, -1])
    assert type(cfg.residues) is tuple
    same = GenCollatzConfig(5, 3, (0, 1, -1))
    assert cfg == same and hash(cfg) == hash(same)
    assert cfg != GenCollatzConfig(mult=5, div=3, residues=(0, -1, 1))
    assert cfg != CLASSICAL
    assert repr(cfg) == "GenCollatzConfig(mult=5, div=3, residues=(0, 1, -1))"
    assert TailSumQuery(k=4, d=2, eps="1/4").eps == F(1, 4)
    result = OrbitResult(steps=[1, 2, 1], terminated="cycle-found", cycle=[1, 2])
    assert (result.steps, result.terminated, result.cycle) == ([1, 2, 1], "cycle-found", [1, 2])
    assert orbit(1, CLASSICAL, 10) == result


def test_config_is_immutable():
    cfg = GenCollatzConfig(mult=5, div=3, residues=(0, 1, -1))
    with pytest.raises(AttributeError):
        cfg.mult = 7
    assert cfg.mult == 5


def test_g_step_rejects_residues_that_miss_a_class():
    'a config that bypasses validation (namedtuple _replace does) fails with ValueError'
    broken = CLASSICAL._replace(residues=(0, 2))
    assert g_step(4, broken) == 2
    with pytest.raises(ValueError, match=r"no residue in \(0, 2\) matches 9 modulo 2"):
        g_step(3, broken)


def test_config_validation():
    'each guard by its own message: mult=0 is also not coprime with div, so only the message tells'
    with pytest.raises(ValueError, match="mult must be >= 1, got 0"):
        GenCollatzConfig(mult=0, div=2, residues=(0, -1))
    with pytest.raises(ValueError, match="div must be >= 2, got 1"):
        GenCollatzConfig(mult=3, div=1, residues=(0,))
    with pytest.raises(ValueError, match="mult=2 and div=2 must be coprime"):
        GenCollatzConfig(mult=2, div=2, residues=(0, -1))
    with pytest.raises(ValueError, match="need exactly div=2 residues, got 3"):
        GenCollatzConfig(mult=3, div=2, residues=(0, -1, 1))
    with pytest.raises(ValueError, match=r"residues \(0, 2\) are not pairwise distinct modulo 2"):
        GenCollatzConfig(mult=3, div=2, residues=(0, 2))


def test_g_step_classical():
    assert g_step(7, CLASSICAL) == 11
    assert g_step(8, CLASSICAL) == 4
    assert g_step(1, CLASSICAL) == 2
    with pytest.raises(ValueError):
        g_step(0, CLASSICAL)


def test_g_step_odd_branch_formula():
    'on odds the classical map is (3*ell + 1) / 2'
    for ell in range(1, 200, 2):
        assert g_step(ell, CLASSICAL) == (3 * ell + 1) // 2


def test_g_step_division_always_exact_under_fuzz():
    'any complete residue system keeps the affine branch divisible, by the residue it subtracts'
    src = FuzzSource(41)
    for _ in range(60):
        d = fuzz_int(src, 2, 6)
        mult = d + 1  # coprime with d
        residues = tuple(r + d * fuzz_int(src, -3, 3) for r in range(d))
        cfg = GenCollatzConfig(mult=mult, div=d, residues=residues)
        for _ in range(40):
            ell = fuzz_int(src, 1, 10 ** 6)
            step = g_step(ell, cfg)
            if ell % d:
                assert -(d * step - mult * ell) in cfg.residues, (ell, cfg, step)


def test_orbit_of_seven():
    result = orbit(7, CLASSICAL, 50)
    assert result.steps == [7, 11, 17, 26, 13, 20, 10, 5, 8, 4, 2, 1, 2]
    assert result.terminated == "cycle-found"
    assert set(result.cycle) == {1, 2}


def test_orbit_step_budget():
    result = orbit(27, CLASSICAL, 1)
    assert result.terminated == "max-steps-reached"
    assert len(result.steps) == 2
    assert result.cycle is None
    with pytest.raises(ValueError):
        orbit(27, CLASSICAL, 0)


@pytest.mark.parametrize("residues, start, steps", [
    ((0, 1), 3, [3, 1, 0]),    # 1 -> (1 - 1) / 2 = 0
    ((0, 3), 1, [1, -1]),      # 1 -> (1 - 3) / 2 = -1
])
def test_orbit_stops_where_the_map_leaves_the_positive_integers(residues, start, steps):
    cfg = GenCollatzConfig(mult=1, div=2, residues=residues)
    result = orbit(start, cfg, 100)
    assert result.steps == steps
    assert result.terminated == "left-positive-integers"
    assert result.cycle is None
    with pytest.raises(ValueError):
        g_step(steps[-1], cfg)


def test_classical_orbits_reach_cycle_at_desk_scale():
    'every start below 10^4 lands in {1, 2}; observed range, not a theorem'
    for ell in range(1, 10 ** 4 + 1):
        result = orbit(ell, CLASSICAL, 10 ** 4)
        assert result.terminated == "cycle-found"
        assert set(result.cycle) == {1, 2}


_FATE_CONFIGS = {
    "classical": CLASSICAL,
    # cycles through 1, 13 and 17; most other starts run out of budget
    "5x+1": GenCollatzConfig(mult=5, div=2, residues=(0, -1)),
    "5x/3": GenCollatzConfig(mult=5, div=3, residues=(0, 1, -1)),
    "leaves-at-0": GenCollatzConfig(mult=1, div=2, residues=(0, 1)),
    "leaves-at-minus-1": GenCollatzConfig(mult=1, div=2, residues=(0, 3)),
}


@pytest.mark.parametrize("name", sorted(_FATE_CONFIGS))
def test_orbit_fates_match_orbit_start_by_start(name):
    'the classical orbit of 235, the longest from a start <= 300, ends at step 82'
    cfg = _FATE_CONFIGS[name]
    for max_steps in (1, 2, 3, 20, 81, 82, 83, 10_000):
        # a growing 5x+1 orbit (7, 9, ...) walks the whole budget in big integers on both routes
        max_start = 10 if name == "5x+1" and max_steps == 10_000 else 300
        expected = []
        for start in range(1, max_start + 1):
            r = orbit(start, cfg, max_steps)
            expected.append((r.terminated, frozenset(r.cycle) if r.cycle is not None else None))
        assert orbit_fates(cfg, max_start, max_steps) == expected, (name, max_steps)


def test_orbit_fates_validation():
    assert orbit_fates(CLASSICAL, 0, 10) == []
    with pytest.raises(ValueError):
        orbit_fates(CLASSICAL, 10, 0)


def test_tail_sum_pinned_values():
    # k=4, d=2: center 2, margin 1; i=1 and i=3 sit exactly on it and are excluded
    assert tail_sum(TailSumQuery(k=4, d=2, eps=F(1, 4))) == F(1, 8)
    assert tail_sum(TailSumQuery(k=4, d=2, eps=F(1, 2))) == 0
    assert tail_sum(TailSumQuery(k=2, d=3, eps=F(1, 3))) == F(1, 9)
    assert tail_sum(TailSumQuery(k=8, d=2, eps=F(1, 4))) == F(18, 256)


def _assert_tail_sum_is_the_fraction_membership_sum(cases):
    'the Fraction test |i - (d-1)k/d| > eps*k picks the terms C(k, i) (d-1)^i of the reference'
    for k, d, eps in cases:
        center, margin = F((d - 1) * k, d), eps * k
        expected = sum(math.comb(k, i) * (d - 1) ** i for i in range(k + 1)
                       if abs(i - center) > margin)
        assert tail_sum(TailSumQuery(k=k, d=d, eps=eps)) == F(expected, d ** k), (k, d, eps)


def test_tail_sum_integer_membership_matches_fraction_comparison():
    '1/4, 1/3 and 1/2 hit the boundary'
    _assert_tail_sum_is_the_fraction_membership_sum(
        [(k, d, eps) for k in range(1, 60) for d in range(2, 6)
         for eps in (F(1, 9), F(1, 4), F(1, 3), F(1, 2), F(2, 7), F(8, 9))])


def test_tail_sum_inner_end_walks_match_one_row_at_large_k():
    'each tail (none, one or both empty) walked out from C(k, low) or C(k, high)'
    _assert_tail_sum_is_the_fraction_membership_sum(
        [(1000, 2, F(1, 4)), (997, 3, F(1, 3)), (1200, 2, F(1, 2)), (800, 5, F(1, 9)),
         (600, 4, F(1, 3))])


def test_tail_sum_query_validation():
    with pytest.raises(ValueError):
        TailSumQuery(k=0, d=2, eps=F(1, 4))
    with pytest.raises(ValueError):
        TailSumQuery(k=4, d=1, eps=F(1, 4))
    with pytest.raises(ValueError):
        TailSumQuery(k=4, d=2, eps=F(0))
    with pytest.raises(ValueError):
        TailSumQuery(k=4, d=2, eps=F(1))


def test_tail_sum_nonincreasing_in_eps():
    src = FuzzSource(43)
    for _ in range(25):
        k = fuzz_int(src, 1, 40)
        d = fuzz_int(src, 2, 5)
        num = fuzz_int(src, 1, 8)
        den = fuzz_int(src, num + 1, 12)
        eps = F(num, den)
        wide = tail_sum(TailSumQuery(k=k, d=d, eps=eps / 2))
        narrow = tail_sum(TailSumQuery(k=k, d=d, eps=eps))
        assert wide >= narrow


def _eta(d, eps, k):
    'the decay rate that ruehrkit tailsum prints: the k-th root of the tail mass'
    return kth_root(tail_sum(TailSumQuery(k=k, d=d, eps=eps)), k)


def test_kth_root_of_tail_sum_values():
    root = _eta(2, F(1, 4), 4)
    assert root == pytest.approx(0.125 ** 0.25, rel=1e-12)
    assert round(root, 4) == 0.5946
    root8 = _eta(2, F(1, 4), 8)
    assert root8 == pytest.approx((18 / 256) ** 0.125, rel=1e-12)
    assert round(root8, 4) == 0.7176


@pytest.mark.parametrize("k, eps, root", [
    (8000, F(1, 4), 0.876880918317923),  # mass about 3e-457, below every float
    (3000, F(1, 3), 0.783386423531309),  # mass about 8.5e-319, a subnormal float
])
def test_kth_root_keeps_its_precision_below_the_float_range(k, eps, root):
    'the roots agree with mpmath at 40 digits: 0.87688091831792317... and 0.78338642353130949...'
    assert abs(kth_root(tail_sum(TailSumQuery(k, 2, eps)), k) - root) < 1e-12


def test_kth_root_of_zero_tail_is_zero():
    assert _eta(2, F(1, 2), 4) == 0.0


def test_comtet1_partial_sum_hand_cases():
    'the leading partial sums sum_{i<=m} C(k,i) (d-1)^i are comtet1 at a = 1, b = d - 1'
    pair = comtet1_sides(3, 1, 1, 3 - 1)
    assert (pair.lhs, pair.rhs, pair.equal) == (7, 7, True)
    for k in range(1, 11):
        pair = comtet1_sides(k, 0, 1, 2 - 1)
        assert pair.lhs == 1
        assert pair.equal
