import sys
from fractions import Fraction

import pytest


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
