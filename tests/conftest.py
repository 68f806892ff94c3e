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
