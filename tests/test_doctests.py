"""The library's docstring examples, run as part of the suite."""

import doctest
import importlib
import pkgutil

import pytest

import checkersurf

MODULES = ["checkersurf"] + [
    "checkersurf." + info.name for info in pkgutil.iter_modules(checkersurf.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
