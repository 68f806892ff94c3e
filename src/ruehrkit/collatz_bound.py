"""Generalized divide-or-affine orbit maps and their large-deviation tail sums.

The map divides by d on multiples of d and otherwise sends ell to
(mult*ell - r)/d, where r is the unique representative of mult*ell in a
complete residue system modulo d.  The classical 3x+1 map is mult=3, d=2
with residues {0, -1}.  orbit walks one start with cycle detection and
records its path (the orbit subcommand); orbit_fates gives the same ending
for every start 1..N from walks that stop at values resolved earlier in the
call, and is what the harness's orbit_cycle check counts.

The density argument for these maps needs an exact large-deviation bound:
the normalized sum of C(k, i) (d-1)^i over indices i deviating from the
mean (d-1)k/d by more than eps*k.  tail_sum computes it exactly, each
tail by one exact walk down the row from its far end (exact_math's
_walked_sum), and kth_root gives its k-th root, the decay rate that the
tailsum subcommand prints.  The leading partial sums
sum_{0<=i<=m} C(k, i) (d-1)^i are identities.comtet1_sides at a = 1,
b = d - 1; the harness checks them there and sets tail_sum against
identities.comtet1_integral.
"""

from __future__ import annotations

import collections
import math
from fractions import Fraction
from typing import Literal, NamedTuple, Optional, Sequence

from .exact_math import _walked_sum, binomial


class GenCollatzConfig(collections.namedtuple("GenCollatzConfig", "mult div residues")):
    """Parameters (mult, div, residues) of a divide-or-affine map; an immutable named tuple."""

    __slots__ = ()  # no instance dict: the named fields are all there is

    def __new__(cls, mult: int, div: int, residues: Sequence[int]):
        residues = tuple(residues)
        if mult < 1:
            raise ValueError(f"mult must be >= 1, got {mult}")
        if div < 2:
            raise ValueError(f"div must be >= 2, got {div}")
        if math.gcd(div, mult) != 1:
            raise ValueError(f"mult={mult} and div={div} must be coprime")
        if len(residues) != div:
            raise ValueError(f"need exactly div={div} residues, got {len(residues)}")
        if len({r % div for r in residues}) != div:
            raise ValueError(f"residues {residues} are not pairwise distinct modulo {div}")
        return super().__new__(cls, mult, div, residues)


CLASSICAL = GenCollatzConfig(mult=3, div=2, residues=(0, -1))


class OrbitResult(NamedTuple):
    """Named tuple: recorded orbit prefix, how iteration stopped, the cycle if found."""

    steps: list[int]
    terminated: Literal["cycle-found", "max-steps-reached", "left-positive-integers"]
    cycle: Optional[list[int]]


class TailSumQuery:
    """Inputs of the large-deviation tail sum: length k, base d, margin eps in (0, 1)."""

    def __init__(self, k: int, d: int, eps):
        self.k, self.d, self.eps = k, d, Fraction(eps)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if d < 2:
            raise ValueError(f"d must be >= 2, got {d}")
        if not 0 < self.eps < 1:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")


def g_step(ell: int, cfg: GenCollatzConfig) -> int:
    """One application of the map: ell/d on multiples of d, else (mult*ell - r)/d."""
    if ell < 1:
        raise ValueError(f"g_step requires ell >= 1, got {ell}")
    if ell % cfg.div == 0:
        return ell // cfg.div
    scaled = cfg.mult * ell
    for r in cfg.residues:
        if (scaled - r) % cfg.div == 0:
            return (scaled - r) // cfg.div
    raise ValueError(f"no residue in {cfg.residues} matches {scaled} modulo {cfg.div}")


def orbit(ell: int, cfg: GenCollatzConfig, max_steps: int) -> OrbitResult:
    """Iterate g_step from ell until a value repeats or max_steps applications.

    The recorded steps include the starting value and, when a cycle is
    found, the first repeated value at the end; the cycle field is the
    segment from that value's first occurrence up to the repeat.  A map
    that sends a value to zero or below (possible for residue systems with
    positive representatives) ends the orbit with that value last and
    terminated="left-positive-integers".
    """
    if max_steps < 1:
        raise ValueError(f"orbit requires max_steps >= 1, got {max_steps}")
    steps = [ell]
    first_seen = {ell: 0}
    for _ in range(max_steps):
        value = g_step(steps[-1], cfg)
        steps.append(value)
        if value < 1:
            return OrbitResult(steps=steps, terminated="left-positive-integers", cycle=None)
        if value in first_seen:
            cycle = steps[first_seen[value]:-1]
            return OrbitResult(steps=steps, terminated="cycle-found", cycle=cycle)
        first_seen[value] = len(steps) - 1
    return OrbitResult(steps=steps, terminated="max-steps-reached", cycle=None)


def orbit_fates(cfg: GenCollatzConfig, max_start: int, max_steps: int) -> list[tuple]:
    """How orbit(start, cfg, max_steps) ends, for each start 1..max_start in order.

    Entry start-1 is (terminated, frozenset of the cycle values or None).
    Each value resolved during the call maps to the step count of its own
    orbit and how that orbit ends.  A walk x_0, x_1, ... stops at the first
    x_j that is known, repeats x_m, or is below 1; x_i then takes j - i steps
    plus those of a known x_j, or j - min(i, m) at a repeat.  A walk still
    open after max_steps steps resolves nothing.
    """
    if max_steps < 1:
        raise ValueError(f"orbit_fates requires max_steps >= 1, got {max_steps}")
    known: dict[int, tuple[int, tuple]] = {}
    fates = []
    for start in range(1, max_start + 1):
        path, seen, value = [], {}, start
        while value >= 1 and value not in known and value not in seen and len(path) < max_steps:
            seen[value] = len(path)
            path.append(value)
            value = g_step(value, cfg)
        j, entry, extra = len(path), len(path), 0
        if value < 1:
            end = ("left-positive-integers", None)
        elif value in known:
            extra, end = known[value]
        elif value in seen:
            entry = seen[value]
            end = ("cycle-found", frozenset(path[entry:]))
        else:
            fates.append(("max-steps-reached", None))
            continue
        for i, x in enumerate(path):
            known[x] = (j - min(i, entry) + extra, end)
        taken, end = known[start]
        fates.append(end if taken <= max_steps else ("max-steps-reached", None))
    return fates


def tail_sum(query: TailSumQuery) -> Fraction:
    """Exact large-deviation tail mass.

    (1/d^k) * sum of C(k, i) (d-1)^i over 0 <= i <= k with
    |i - (d-1)k/d| > eps*k.  With eps = p/q an index is in the tail when
    the integer comparison |i*d*q - (d-1)*k*q| > p*k*d holds; it is strict,
    so boundary indices are excluded.  The tail is i <= low and i >= high:
    the lower part walks down from C(k, low) to C(k, 0), and the upper part
    from C(k, k) = 1 down to C(k, high), each in Horner order in d - 1.
    """
    k, d, w = query.k, query.d, query.d - 1
    p, q = query.eps.numerator, query.eps.denominator
    center, margin, step = w * k * q, p * k * d, d * q
    low = (center - margin - 1) // step  # the last i with i*d*q < center - margin
    high = (center + margin) // step + 1  # the first i with i*d*q > center + margin
    total = 0
    if low >= 0:
        total += _walked_sum(binomial(k, low), zip(range(low, 0, -1), range(k - low + 1, k + 1)),
                             1, w)
    if high <= k:
        total += w ** high * _walked_sum(1, zip(range(k, high, -1), range(1, k - high + 1)), 1, w)
    return Fraction(total, d ** k)


def kth_root(mass: Fraction, k: int) -> float:
    """mass^(1/k) as a float, 0.0 for a zero mass.

    The root is exp((log num - log den) / k): math.log takes ints of any
    size, so a mass far below the float range keeps its full precision.
    """
    if mass == 0:
        return 0.0
    return math.exp((math.log(mass.numerator) - math.log(mass.denominator)) / k)

