"""The examples in the module docstrings run as part of the suite."""

from __future__ import annotations

import doctest
import importlib

import pytest

MODULES = ["braid", "cli", "yokonuma", "trace", "exactnum", "esystem", "invariant", "adelic"]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"yhecke.{name}")
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
