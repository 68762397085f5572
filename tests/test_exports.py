"""Every exported name resolves, and every exported exception derives from
the package's one root."""

import importlib

import pytest

from slitlogic.errors import SlitlogicError

MODULES = ("errors", "lattice", "formula", "valuation", "probability", "nogo", "cli")


@pytest.mark.parametrize("name", ("slitlogic",) + tuple(f"slitlogic.{m}" for m in MODULES))
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", ("slitlogic",) + tuple(f"slitlogic.{m}" for m in MODULES))
def test_every_exported_exception_derives_from_the_root(name):
    module = importlib.import_module(name)
    exported = [getattr(module, n) for n in module.__all__]
    errors = [e for e in exported if isinstance(e, type) and issubclass(e, BaseException)]
    assert [e for e in errors if not issubclass(e, SlitlogicError)] == []
