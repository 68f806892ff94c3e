from fractions import Fraction

import pytest

from ruehrkit import exact_math, harness, identities

# Every functools.lru_cache of the package; test_harness checks that none is missing.
MEMOS = (identities._fg_chain, exact_math._antiderivative_factors, harness._rational)


@pytest.fixture
def fresh_memos():
    'every memo of the package starts and ends empty, so no warm entry hides a fault'
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture
def fraction_constructions(monkeypatch):
    'the arguments of every Fraction constructed while the test runs, in order'
    built, new = [], Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    return built
