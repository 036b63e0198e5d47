"""The public surface of the package, pinned name by name."""

import importlib

import pytest

import powersums

PUBLIC = [
    "BernoulliCache",
    "CacheCorruptionError",
    "DivisibilityReport",
    "FactoredForm",
    "RationalPolynomial",
    "bernoulli",
    "bernoulli_range",
    "check_problem2",
    "check_problem3",
    "check_problem4",
    "factored_form",
    "faulhaber_poly",
    "format_factored",
    "format_power_sum",
    "format_rational",
    "monomial",
    "p_poly",
    "parse_rational",
    "poly_from_json",
    "poly_to_json",
    "power_sum_closed",
    "power_sum_naive",
    "recurrence_residual",
    "telescope_residual",
    "value_divisibility",
]

# Forwards to an operator or to the stdlib, and exports nothing called.
REMOVED = [
    "BigInt",
    "ExactRational",
    "PowerSumVerification",
    "binomial",
    "poly_compose_shift",
    "poly_divmod",
    "poly_eval",
    "rational_add",
    "rational_div",
    "rational_mul",
    "rational_neg",
    "rational_new",
    "verify_power_sum",
]

MODULES = ["analysis", "bernoulli", "cli", "exact_arith", "faulhaber", "polynomial"]


def test_package_all_is_exact():
    assert powersums.__all__ == PUBLIC


def test_every_listed_name_resolves():
    for module in [powersums, *(importlib.import_module(f"powersums.{m}") for m in MODULES)]:
        for name in module.__all__:
            assert getattr(module, name) is not None, (module.__name__, name)


@pytest.mark.parametrize("module", ["", *MODULES])
def test_removed_names_are_gone(module):
    target = importlib.import_module(f"powersums.{module}" if module else "powersums")
    assert [name for name in REMOVED if hasattr(target, name)] == []


def test_polynomial_keeps_only_divmod_for_division():
    cls = powersums.RationalPolynomial
    assert "__divmod__" in cls.__dict__
    assert "__floordiv__" not in cls.__dict__
    assert "__mod__" not in cls.__dict__
    assert "__truediv__" not in cls.__dict__
    assert "__rsub__" not in cls.__dict__
    assert "__radd__" not in cls.__dict__


def test_polynomial_drops_coefficient_lookup_and_scalar_alias():
    # p.coefficients[i] replaces p.coefficient(i); annotations say int | Fraction.
    assert "coefficient" not in powersums.RationalPolynomial.__dict__
    assert not hasattr(importlib.import_module("powersums.polynomial"), "Scalar")
