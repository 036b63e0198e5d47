import doctest
import importlib
import pkgutil

import pytest

import powersums

MODULES = ["powersums"] + sorted(
    f"powersums.{info.name}" for info in pkgutil.iter_modules(powersums.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
