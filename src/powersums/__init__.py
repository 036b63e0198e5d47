"""Exact Bernoulli numbers, closed-form power sums, and their divisibility.

Everything is computed over arbitrary-precision rationals; no floats are
involved anywhere.  See the README for the library tour and the CLI.
"""

from .analysis import (
    DivisibilityReport,
    FactoredForm,
    check_problem2,
    check_problem3,
    check_problem4,
    factored_form,
    format_factored,
    value_divisibility,
)
from .bernoulli import (
    BernoulliCache,
    CacheCorruptionError,
    bernoulli,
    bernoulli_range,
    recurrence_residual,
)
from .exact_arith import format_rational, parse_rational
from .faulhaber import (
    faulhaber_poly,
    format_power_sum,
    p_poly,
    poly_from_json,
    poly_to_json,
    power_sum_closed,
    power_sum_naive,
    telescope_residual,
)
from .polynomial import RationalPolynomial, monomial

__version__ = "0.1.0"

__all__ = [
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
