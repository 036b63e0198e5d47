"""Dense univariate polynomials over exact rationals.

A polynomial keeps the form it was built in and derives the other once,
on first read:

* ``RationalPolynomial(coefficients)`` stores the coefficients ascending
  by power as a tuple of ``Fraction`` values with trailing zeros trimmed,
  so the zero polynomial is the empty tuple and every nonzero polynomial
  has a nonzero leading coefficient.
* ``RationalPolynomial.from_integer_form(den, ints)`` stores the
  common-integer form: the least ``den >= 1`` with ``den * p`` integral,
  and those integers, trailing zeros trimmed.

The quadratic kernels (product, long division, Taylor shift, content) run
on the common-integer form, so their inner loops pay no gcd per step (a
shift by a non-integer offset excepted).  The product, division and
content build their results with ``from_integer_form``, so a chain of them
never converts to ``Fraction`` in between; the shift builds ``Fraction``
coefficients, which its one caller, the telescoping check, reads next.
Evaluation, sums, negation and scalar products run on the ``Fraction``
coefficients.  All arithmetic is exact: coefficients, evaluation points
and shift offsets must be an ``int`` or ``Fraction``, and a float raises
``TypeError``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Sequence

from .exact_arith import format_exact

__all__ = [
    "RationalPolynomial",
    "X",
    "format_terms",
    "monomial",
]

_ZERO = Fraction(0)


def _exact(value: object) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"exact coefficients must be int or Fraction, not {type(value).__name__}")


class RationalPolynomial:
    """An immutable polynomial with ``Fraction`` coefficients.

    >>> p = RationalPolynomial([0, -1, 1])   # x^2 - x
    >>> p.degree, p(5)
    (2, Fraction(20, 1))
    """

    # At least one is set; None marks a form not derived yet.
    __slots__ = ("_coeffs", "_int")

    def __init__(self, coefficients: Iterable[int | Fraction] = ()) -> None:
        coeffs = [c if type(c) is Fraction else _exact(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs: tuple[Fraction, ...] | None = tuple(coeffs)
        self._int: tuple[int, tuple[int, ...]] | None = None

    @classmethod
    def from_integer_form(cls, den: int, ints: Iterable[int]) -> RationalPolynomial:
        """The polynomial (1/den) * sum(ints[i] * x**i), for a nonzero den."""
        if not den:
            raise ZeroDivisionError("polynomial denominator is zero")
        ints = list(ints)
        while ints and not ints[-1]:
            ints.pop()
        g = gcd(den, *ints)
        if den < 0:
            g = -g
        poly = cls.__new__(cls)
        poly._coeffs = None
        poly._int = (den // g, tuple(c // g for c in ints))
        return poly

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients ascending by power; empty for the zero polynomial."""
        if self._coeffs is None:
            den, ints = self._int
            self._coeffs = tuple(Fraction(c, den) for c in ints)
        return self._coeffs

    def common_integer_form(self) -> tuple[int, tuple[int, ...]]:
        """The least d >= 1 with d * self integer, and those integer
        coefficients ascending.  The zero polynomial yields (1, (0,))."""
        if self._int is None:
            coeffs = self._coeffs
            den = lcm(*(c.denominator for c in coeffs))
            self._int = (den, tuple(c.numerator * (den // c.denominator) for c in coeffs))
        return self._int if self._int[1] else (1, (0,))

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self._coeffs if self._int is None else self._int[1]) - 1

    def is_zero(self) -> bool:
        return self.degree < 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalPolynomial):
            return self.common_integer_form() == other.common_integer_form()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.common_integer_form())

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: RationalPolynomial | int | Fraction) -> RationalPolynomial:
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial([other])
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return RationalPolynomial(
            a + b
            for a, b in zip_longest(self.coefficients, other.coefficients, fillvalue=_ZERO)
        )

    def __neg__(self) -> RationalPolynomial:
        return RationalPolynomial(-c for c in self.coefficients)

    def __sub__(self, other: RationalPolynomial | int | Fraction) -> RationalPolynomial:
        if not isinstance(other, (int, Fraction, RationalPolynomial)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: RationalPolynomial | int | Fraction) -> RationalPolynomial:
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial(c * other for c in self.coefficients)
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        da, a = self.common_integer_form()
        db, b = other.common_integer_form()
        result = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    result[j] += ai * bj
        return RationalPolynomial.from_integer_form(da * db, result)

    __rmul__ = __mul__

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
        da, rem = self.common_integer_form()
        db, div = divisor.common_integer_form()
        m = len(div) - 1
        # Pseudo-division: scaling by L^N up front (L = |lead|, N quotient
        # terms) keeps every step's top term divisible by lead, so that
        # L^N (da self) == (db divisor) quot + rem holds in integers.
        lead = div[-1]
        n = max(len(rem) - m, 0)
        scale = abs(lead) ** n
        rem = [c * scale for c in rem]
        quot = [0] * n
        for i in range(len(rem) - 1, m - 1, -1):
            factor = rem[i] // lead
            if factor:
                quot[i - m] = factor
                for j, d in enumerate(div, i - m):
                    rem[j] -= factor * d
        return (
            RationalPolynomial.from_integer_form(scale * da, [c * db for c in quot]),
            RationalPolynomial.from_integer_form(scale * da, rem[:m]),
        )

    def __call__(self, x: int | Fraction) -> Fraction:
        """Exact value at x, by Horner's scheme."""
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"exact evaluation needs an int or Fraction, not {type(x).__name__}")
        acc = _ZERO
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def shifted(self, offset: int | Fraction) -> RationalPolynomial:
        """The composed polynomial p(x + offset), by the classical Taylor
        shift: d(d+1)/2 steps a[j] += offset * a[j+1] on the coefficients
        of den * p, in integers for an integer offset."""
        if not isinstance(offset, (int, Fraction)):
            raise TypeError(f"exact shift needs an int or Fraction, not {type(offset).__name__}")
        den, a = self.common_integer_form()
        a = list(a)
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] += offset * a[j + 1]
        return RationalPolynomial(Fraction(c, den) for c in a)

    def content_and_primitive(self) -> tuple[Fraction, RationalPolynomial]:
        """Split as content * primitive, where the primitive part has coprime
        integer coefficients and a positive leading coefficient.

        The zero polynomial splits as (0, zero).
        """
        if self.is_zero():
            return _ZERO, self
        den, ints = self.common_integer_form()
        num = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
        primitive = RationalPolynomial.from_integer_form(1, [c // num for c in ints])
        return Fraction(num, den), primitive

    def __str__(self) -> str:
        den, ints = self.common_integer_form()
        body = format_terms(ints, "x")
        return body if den == 1 else f"1/{format_exact(den)} ({body})"

    def __repr__(self) -> str:
        return f"RationalPolynomial('{self}')"


def monomial(power: int, coefficient: int | Fraction = 1) -> RationalPolynomial:
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
