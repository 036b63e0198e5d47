"""Dense univariate polynomials over exact rationals.

Coefficients are stored ascending by power as an immutable tuple of
``Fraction`` values with trailing zeros trimmed, so the zero polynomial is
the empty tuple and every nonzero polynomial has a nonzero leading
coefficient.  All arithmetic is exact; nothing here ever touches floats.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .exact_arith import format_exact

__all__ = [
    "RationalPolynomial",
    "X",
    "format_terms",
    "monomial",
]

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


class RationalPolynomial:
    """An immutable polynomial with ``Fraction`` coefficients.

    >>> p = RationalPolynomial([0, -1, 1])   # x^2 - x
    >>> p.degree, p(5)
    (2, Fraction(20, 1))
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Scalar] = ()) -> None:
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients ascending by power; empty for the zero polynomial."""
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, power: int) -> Fraction:
        """Coefficient of x**power (zero beyond the stored degree)."""
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return _ZERO

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other: RationalPolynomial | Scalar) -> RationalPolynomial:
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial([other])
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return RationalPolynomial(
            a + b
            for a, b in zip_longest(self._coeffs, other._coeffs, fillvalue=_ZERO)
        )

    __radd__ = __add__

    def __neg__(self) -> RationalPolynomial:
        return RationalPolynomial(-c for c in self._coeffs)

    def __sub__(self, other: RationalPolynomial | Scalar) -> RationalPolynomial:
        if not isinstance(other, (int, Fraction, RationalPolynomial)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> RationalPolynomial:
        return (-self) + other

    def __mul__(self, other: RationalPolynomial | Scalar) -> RationalPolynomial:
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial(c * other for c in self._coeffs)
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return RationalPolynomial()
        result = [_ZERO] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                result[i + j] += a * b
        return RationalPolynomial(result)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> RationalPolynomial:
        """Division by a nonzero scalar (for polynomial division use divmod)."""
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("polynomial division by zero scalar")
        return RationalPolynomial(c / scalar for c in self._coeffs)

    def __pow__(self, exponent: int) -> RationalPolynomial:
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = RationalPolynomial([1])
        for _ in range(exponent):
            result = result * self
        return result

    def __divmod__(
        self, divisor: RationalPolynomial
    ) -> tuple[RationalPolynomial, RationalPolynomial]:
        """Long division: self == divisor * quotient + remainder, with the
        remainder zero or of degree below the divisor's."""
        if not isinstance(divisor, RationalPolynomial):
            return NotImplemented
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by the zero polynomial")
        rem = list(self._coeffs)
        div = divisor._coeffs
        shift = len(rem) - len(div)
        if shift < 0:
            return RationalPolynomial(), self
        quot = [_ZERO] * (shift + 1)
        lead = div[-1]
        for i in range(len(rem) - 1, len(div) - 2, -1):
            factor = rem[i] / lead
            if factor == 0:
                continue
            quot[i - len(div) + 1] = factor
            for j, d in enumerate(div):
                rem[i - len(div) + 1 + j] -= factor * d
        return RationalPolynomial(quot), RationalPolynomial(rem[: len(div) - 1])

    def __call__(self, x: Scalar) -> Fraction:
        """Exact value at x, by Horner's scheme."""
        acc = _ZERO
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def shifted(self, offset: Scalar) -> RationalPolynomial:
        """The composed polynomial p(x + offset)."""
        shift = RationalPolynomial([offset, 1])
        result = RationalPolynomial()
        for c in reversed(self._coeffs):
            result = result * shift + c
        return result

    def content_and_primitive(self) -> tuple[Fraction, RationalPolynomial]:
        """Split as content * primitive, where the primitive part has coprime
        integer coefficients and a positive leading coefficient.

        The zero polynomial splits as (0, zero).
        """
        if not self._coeffs:
            return _ZERO, self
        den = lcm(*(c.denominator for c in self._coeffs))
        num = gcd(*(int(c * den) for c in self._coeffs))
        content = Fraction(num, den)
        if self._coeffs[-1] < 0:
            content = -content
        return content, RationalPolynomial(c / content for c in self._coeffs)

    def common_integer_form(self) -> tuple[int, tuple[int, ...]]:
        """The least d >= 1 with d * self integer, and those integer
        coefficients ascending.  The zero polynomial yields (1, (0,))."""
        if not self._coeffs:
            return 1, (0,)
        den = lcm(*(c.denominator for c in self._coeffs))
        return den, tuple(int(c * den) for c in self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        den, ints = self.common_integer_form()
        body = format_terms(ints, "x")
        return body if den == 1 else f"1/{format_exact(den)} ({body})"

    def __repr__(self) -> str:
        return f"RationalPolynomial('{self}')"


def monomial(power: int, coefficient: Scalar = 1) -> RationalPolynomial:
    """The polynomial coefficient * x**power."""
    if power < 0:
        raise ValueError("monomial power must be nonnegative")
    return RationalPolynomial([0] * power + [coefficient])


X = monomial(1)


def format_terms(ascending: Sequence[int], var: str, braced: bool = False) -> str:
    """Render integer coefficients as e.g. ``2x^3 + x - 5`` (descending).

    With ``braced=True`` exponents are wrapped for LaTeX (``x^{3}``).
    """
    parts: list[str] = []
    for power in range(len(ascending) - 1, -1, -1):
        c = ascending[power]
        if c == 0:
            continue
        if power == 0:
            body = format_exact(abs(c))
        else:
            head = "" if abs(c) == 1 else format_exact(abs(c))
            if power == 1:
                exp = ""
            elif braced:
                exp = f"^{{{power}}}"
            else:
                exp = f"^{power}"
            body = f"{head}{var}{exp}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    if not parts:
        return "0"
    return " ".join(parts)
