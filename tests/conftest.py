import importlib

import pytest

from powersums.bernoulli import BernoulliCache

# The module, not the function of the same name the package exports.
bernoulli_module = importlib.import_module("powersums.bernoulli")
faulhaber_module = importlib.import_module("powersums.faulhaber")


@pytest.fixture
def cache():
    """A fresh, independent Bernoulli table for each test."""
    return BernoulliCache()


@pytest.fixture
def tangent_calls(monkeypatch):
    """The argument of every tangent-triangle run made during the test."""
    calls = []
    real = bernoulli_module._tangent_numbers

    def recording(count):
        calls.append(count)
        return real(count)

    monkeypatch.setattr(bernoulli_module, "_tangent_numbers", recording)
    return calls


@pytest.fixture
def p_poly_calls(monkeypatch):
    """The exponent of every auxiliary polynomial P built during the test."""
    calls = []
    real = faulhaber_module.p_poly

    def recording(k, cache=None):
        calls.append(k)
        return real(k, cache)

    monkeypatch.setattr(faulhaber_module, "p_poly", recording)
    return calls
