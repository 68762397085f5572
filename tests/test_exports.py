"""Every exported name resolves."""

import importlib

import pytest

MODULES = ("lattice", "formula", "valuation", "probability", "nogo", "cli")


@pytest.mark.parametrize("name", ("slitlogic",) + tuple(f"slitlogic.{m}" for m in MODULES))
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
