import functools
import json
import math
import sys
from fractions import Fraction

import pytest

from ruehrkit.exact_math import poly_eval


def strip_elapsed(json_lines):
    'the JSON report lines with elapsed_ms removed, the only field two equal runs may differ in'
    out = []
    for line in json_lines.splitlines():
        record = json.loads(line)
        del record["elapsed_ms"]
        out.append(json.dumps(record))
    return out


def rational_text(q):
    'num/den of the normalized Fraction, or num alone when the denominator is 1'
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@functools.lru_cache(maxsize=None)
def _lcm_upto(top):
    'lcm(1..top), memoized per degree: the integral sweeps take each degree many times'
    return math.lcm(*range(1, top + 1))


def polynomial_integral(p, lo, hi):
    'x A(x) / s from lo to hi, A = sum s c_i x^i / (i+1) with s = lcm(1..deg+1): the integral of p'
    s = _lcm_upto(len(p))
    anti = [s // (i + 1) * c for i, c in enumerate(p)]
    return Fraction(hi * poly_eval(anti, hi) - lo * poly_eval(anti, lo), s)


def _clear_memos():
    'clear every cache_clear-bearing global of the loaded ruehrkit modules'
    for name, module in list(sys.modules.items()):
        if name.startswith("ruehrkit"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture
def fresh_memos():
    'every memo of the package starts and ends empty, so no warm entry hides a fault'
    _clear_memos()
    yield
    _clear_memos()


@pytest.fixture
def fraction_constructions(monkeypatch):
    'the arguments of every Fraction constructed while the test runs, in order'
    built, new = [], Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    return built
