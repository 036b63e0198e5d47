"""Divisibility structure of the power-sum polynomials.

Every S^k with k >= 1 is divisible, as a polynomial over the rationals, by
n(n+1); the odd exponents >= 3 are divisible by n^2(n+1)^2 and the even
ones by n(n+1)(2n+1).  Note the qualifier: these are statements about
polynomials, not about the integer values.  S at n=3, k=2 is 14, which
3*4 = 12 does not divide, so the value-level reading is simply false;
:func:`value_divisibility` is provided to explore exactly that question
empirically.

The factored-form extraction pulls out the structural linear factors
(x, x+1, and 2x+1 when present) by trial division and normalizes what is
left to a primitive integer cofactor, which reproduces presentations like

    S_n^6 = 1/42 n(n+1)(2n+1)(3n^4 + 6n^3 - 3n + 1)

No general factorization engine is involved.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, NamedTuple

from .bernoulli import BernoulliCache
from .exact_arith import format_exact, format_rational, format_rational_latex
from .faulhaber import faulhaber_poly, poly_to_json, power_sum_closed
from .polynomial import RationalPolynomial, X, format_terms

__all__ = [
    "CLAIMS",
    "DivisibilityReport",
    "FactoredForm",
    "check_claim",
    "check_problem2",
    "check_problem3",
    "check_problem4",
    "factored_form",
    "factored_to_json",
    "format_factored",
    "report_to_json",
    "value_divisibility",
]

_X_PLUS_1 = X + 1
_2X_PLUS_1 = 2 * X + 1


class Claim(NamedTuple):
    """divisor | S^exponent(k) as polynomials, for every k >= 1."""

    label: str
    divisor: RationalPolynomial
    exponent: Callable[[int], int]
    k_error: str  # why k = 0 is excluded, raised as a ValueError


# The paper's divisibility claims, keyed by problem number.
CLAIMS: dict[int, Claim] = {
    2: Claim("n(n+1)", X * _X_PLUS_1, lambda k: k,
             "k must be >= 1: the exponent-0 power sum is n, which n(n+1) does not divide"),
    3: Claim("n^2(n+1)^2", (X * _X_PLUS_1) ** 2, lambda k: 2 * k + 1,
             "k must be >= 1: the exponent-1 power sum is n(n+1)/2, "
             "which n^2(n+1)^2 does not divide"),
    4: Claim("n(n+1)(2n+1)", X * _X_PLUS_1 * _2X_PLUS_1, lambda k: 2 * k,
             "k must be >= 1 (the exponent 2k must be positive)"),
}


class DivisibilityReport(NamedTuple):
    """Outcome of one exact polynomial division attempt against S^k."""

    k: int
    divisor: RationalPolynomial
    divides: bool
    quotient: RationalPolynomial
    remainder: RationalPolynomial


class FactoredForm(NamedTuple):
    """S^k as scalar * product(factor^multiplicity), factors primitive."""

    k: int
    scalar: Fraction
    factors: tuple[tuple[RationalPolynomial, int], ...]


def check_claim(
    problem: int, k: int, cache: BernoulliCache | None = None
) -> DivisibilityReport:
    """Divide S^exponent(k) by the divisor of ``CLAIMS[problem]``."""
    claim = CLAIMS[problem]
    if k < 1:
        raise ValueError(claim.k_error)
    exponent = claim.exponent(k)
    quotient, remainder = divmod(faulhaber_poly(exponent, cache), claim.divisor)
    return DivisibilityReport(
        k=exponent,
        divisor=claim.divisor,
        divides=remainder.is_zero(),
        quotient=quotient,
        remainder=remainder,
    )


def check_problem2(k: int, cache: BernoulliCache | None = None) -> DivisibilityReport:
    """Divide S^k by n(n+1).  Holds for every k >= 1."""
    return check_claim(2, k, cache)


def check_problem3(k: int, cache: BernoulliCache | None = None) -> DivisibilityReport:
    """Divide the odd-exponent sum S^(2k+1) by n^2(n+1)^2.  k >= 1."""
    return check_claim(3, k, cache)


def check_problem4(k: int, cache: BernoulliCache | None = None) -> DivisibilityReport:
    """Divide the even-exponent sum S^(2k) by n(n+1)(2n+1).  k >= 1."""
    return check_claim(4, k, cache)


def value_divisibility(
    n: int,
    k: int,
    modulus_poly: RationalPolynomial,
    cache: BernoulliCache | None = None,
) -> bool:
    """Whether the integer modulus_poly(n) divides the integer S at (n, k).

    This is the value-level reading of the divisibility questions, distinct
    from polynomial divisibility and generally much rarer.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    modulus = modulus_poly(n)
    if modulus.denominator != 1 or modulus == 0:
        raise ValueError(
            f"modulus polynomial must evaluate to a nonzero integer at n={n}; "
            f"got {modulus}"
        )
    return power_sum_closed(n, k, cache) % int(modulus) == 0


def factored_form(k: int, cache: BernoulliCache | None = None) -> FactoredForm:
    """Pull the structural factors out of S^k.

    Trial-divides by x, x+1, and 2x+1 (with multiplicity), then splits the
    remaining polynomial into rational content and a primitive integer
    cofactor with positive leading coefficient.  Multiplying everything
    back together reproduces S^k exactly.
    """
    remaining = faulhaber_poly(k, cache)
    factors: list[tuple[RationalPolynomial, int]] = []
    for factor in (X, _X_PLUS_1, _2X_PLUS_1):
        multiplicity = 0
        while True:
            quotient, residue = divmod(remaining, factor)
            if not residue.is_zero():
                break
            remaining = quotient
            multiplicity += 1
        if multiplicity:
            factors.append((factor, multiplicity))
    scalar, primitive = remaining.content_and_primitive()
    if primitive.degree > 0:
        factors.append((primitive, 1))
    return FactoredForm(k=k, scalar=scalar, factors=tuple(factors))


def report_to_json(report: DivisibilityReport) -> dict[str, Any]:
    """JSON form of a divisibility report; polynomials in their JSON form."""
    return {
        "k": report.k,
        "divisor": poly_to_json(report.divisor),
        "divides": report.divides,
        "quotient": poly_to_json(report.quotient),
        "remainder": poly_to_json(report.remainder),
    }


def factored_to_json(form: FactoredForm) -> dict[str, Any]:
    """JSON form of a factored power sum."""
    return {
        "k": form.k,
        "scalar": format_rational(form.scalar),
        "factors": [
            {"poly": poly_to_json(poly), "multiplicity": multiplicity}
            for poly, multiplicity in form.factors
        ],
    }


def _factor_text(poly: RationalPolynomial, braced: bool) -> str:
    """One factor: bare ``n``, compact ``(n+1)``, or spaced-out cofactor."""
    _, ints = poly.common_integer_form()
    if poly == X:
        return "n"
    body = format_terms(ints, "n", braced=braced)
    if poly.degree == 1:
        body = body.replace(" ", "")
    return f"({body})"


def format_factored(form: FactoredForm, style: str = "plain") -> str:
    """Render e.g. ``S_n^6 = 1/42 n(n+1)(2n+1)(3n^4 + 6n^3 - 3n + 1)``."""
    braced = style == "latex"
    head = f"S_n^{{{form.k}}}" if braced else f"S_n^{form.k}"
    if form.scalar == 1:
        scalar = ""
    elif braced:
        scalar = format_rational_latex(form.scalar) + " "
    else:
        scalar = f"{format_exact(form.scalar)} "
    parts = []
    for poly, multiplicity in form.factors:
        text = _factor_text(poly, braced)
        if multiplicity > 1:
            text += f"^{{{multiplicity}}}" if braced else f"^{multiplicity}"
        parts.append(text)
    return f"{head} = {scalar}{''.join(parts)}"
