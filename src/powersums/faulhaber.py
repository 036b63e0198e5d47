"""Closed-form power-sum polynomials.

For each exponent k there is a single polynomial S^k of degree k+1 with

    S^k(n) = 1^k + 2^k + ... + n^k   for every integer n >= 0.

It is derived from the auxiliary polynomial

    P(x) = sum_{i=0}^{k} C(k+1, i) * B_i * x^(k+1-i)

whose forward difference telescopes to P(x+1) - P(x) = (k+1) x^k.  With
B_1 = +1/2 in place of -1/2, the same sum over k+1 is S^k for every k >= 0
(Knuth, *Johann Faulhaber and sums of powers*, 1993); that is how
:func:`faulhaber_poly` builds it.  :func:`power_sum_closed` evaluates
S^k(n) = P(n+1)/(k+1) instead, which holds for k >= 1 only: at k = 0 the
telescoped sum starts at 0^0 = 1, so P(n+1)/1 counts one term too many.

Power sums of the first 10^5 integers at exponent 10 take microseconds
through the closed form versus milliseconds by direct summation, which is
what the benchmark command quantifies.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Any

from .bernoulli import BernoulliCache, _reuse_last, bernoulli_range
from .exact_arith import format_exact, format_rational_latex, parse_int
from .polynomial import RationalPolynomial, format_terms, monomial

__all__ = [
    "faulhaber_poly",
    "format_polynomial",
    "format_power_sum",
    "p_poly",
    "poly_from_json",
    "poly_to_json",
    "power_sum_closed",
    "power_sum_naive",
    "telescope_residual",
]


def p_poly(k: int, cache: BernoulliCache | None = None) -> RationalPolynomial:
    """The degree-(k+1) auxiliary polynomial with difference (k+1) x^k.

    The coefficient of x^(k+1-i) is C(k+1, i) * B_i for i = 0..k; there is
    no constant term, so P(0) = 0 and sums of successive differences
    telescope cleanly.
    """
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    coeffs = [Fraction(0)] * (k + 2)
    for i, b in enumerate(bernoulli_range(k, cache)):
        coeffs[k + 1 - i] = comb(k + 1, i) * b
    return RationalPolynomial(coeffs)


def faulhaber_poly(k: int, cache: BernoulliCache | None = None) -> RationalPolynomial:
    """The power-sum polynomial S^k, with S^k(n) = 1^k + ... + n^k exactly.

    The table keeps the last S^k built from it, so asking for the same k
    again (as a factored form followed by its checks does) returns the same
    immutable polynomial without rebuilding P.

    >>> print(faulhaber_poly(2))
    1/6 (2x^3 + 3x^2 + x)
    """
    return _reuse_last(k, cache, _build_faulhaber_poly)


def _build_faulhaber_poly(k: int, table: BernoulliCache) -> RationalPolynomial:
    # S^k is P/(k+1) with B_1 = +1/2 in place of -1/2.  B_1 reaches only the
    # x^k coefficient, so negate that (P's zero constant term when k = 0).
    den, ints = p_poly(k, table).common_integer_form()
    ints = list(ints)
    ints[k] = -ints[k]
    return RationalPolynomial.from_integer_form(den * (k + 1), ints)


def power_sum_naive(n: int, k: int) -> int:
    """1^k + 2^k + ... + n^k by direct summation (the defining formula)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    return sum(i**k for i in range(1, n + 1))


def power_sum_closed(n: int, k: int, cache: BernoulliCache | None = None) -> int:
    """The power sum via one evaluation of the closed form.

    For k >= 1 this evaluates P(n+1)/(k+1) and checks that the division
    comes out integral; a fractional value can only mean the arithmetic
    underneath is broken (for instance a corrupted Bernoulli table), so it
    raises ArithmeticError, under ``python -O`` too.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    if k == 0:
        return n
    value = p_poly(k, cache)(n + 1) / (k + 1)
    if value.denominator != 1:
        raise ArithmeticError(
            f"closed form produced a non-integer {format_exact(value)} at n={n}, k={k}"
        )
    return value.numerator


def telescope_residual(
    k: int, cache: BernoulliCache | None = None
) -> RationalPolynomial:
    """P(x+1) - P(x) - (k+1) x^k, which must be the zero polynomial.

    Exposed so the telescoping identity the closed form rests on can be
    asserted directly, coefficient by coefficient.
    """
    p = p_poly(k, cache)
    return p.shifted(1) - p - monomial(k, k + 1)


def poly_to_json(p: RationalPolynomial, k: int | None = None) -> dict[str, Any]:
    """JSON form ``{"k"?, "denominator": "<d>", "coeffs": [...]}``.

    ``coeffs`` holds decimal strings descending from the leading term, and
    the polynomial equals (1/denominator) * sum(coeffs[i] * x^power).
    """
    den, ints = p.common_integer_form()
    entry: dict[str, Any] = {} if k is None else {"k": k}
    entry["denominator"] = format_exact(den)
    entry["coeffs"] = [format_exact(c) for c in reversed(ints)]
    return entry


def poly_from_json(data: dict[str, Any]) -> RationalPolynomial:
    """Inverse of :func:`poly_to_json`."""
    return RationalPolynomial.from_integer_form(
        parse_int(data["denominator"]), map(parse_int, reversed(data["coeffs"]))
    )


def format_polynomial(p: RationalPolynomial, style: str = "plain") -> str:
    """Common-denominator rendering, e.g. ``1/6 (2n^3 + 3n^2 + n)``."""
    if p.degree == 0:
        value = p.coefficients[0]
        return format_rational_latex(value) if style == "latex" else format_exact(value)
    den, ints = p.common_integer_form()
    body = format_terms(ints, "n", braced=(style == "latex"))
    if den == 1:
        return body
    if style == "latex":
        return f"\\frac{{1}}{{{format_exact(den)}}} ({body})"
    return f"1/{format_exact(den)} ({body})"


def format_power_sum(k: int, p: RationalPolynomial, style: str = "plain") -> str:
    """One-line rendering ``S_n^k = ...`` of an expanded power-sum polynomial."""
    head = f"S_n^{{{k}}}" if style == "latex" else f"S_n^{k}"
    return f"{head} = {format_polynomial(p, style=style)}"
