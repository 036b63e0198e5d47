"""Dense univariate polynomials over exact rationals.

A polynomial is stored in one form, its common-integer form: the least
``den >= 1`` with ``den * p`` integral, and the integer coefficients of
``den * p`` ascending by power with trailing zeros trimmed, so the zero
polynomial stores ``(1, ())`` and every nonzero polynomial has a nonzero
leading coefficient.  ``RationalPolynomial(coefficients)`` converts its
``int`` and ``Fraction`` coefficients to that form once, and
``RationalPolynomial.from_integer_form(den, ints)`` normalizes a given pair
by its gcd.  ``coefficients`` is a view: each read builds a new tuple of
``Fraction`` values.

Every operation (evaluation, sums, negation, products, long division,
Taylor shift, content) runs on the integer form and builds its result with
``from_integer_form``, so no inner loop pays a gcd per step, evaluation at
a non-integer point excepted.  All arithmetic is exact: coefficients,
evaluation points and shift offsets must be an ``int`` or ``Fraction``,
and a float raises ``TypeError``.
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


def _exact(value: object) -> int | Fraction:
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"exact coefficients must be int or Fraction, not {type(value).__name__}")


class RationalPolynomial:
    """An immutable polynomial with exact rational coefficients.

    >>> p = RationalPolynomial([0, -1, 1])   # x^2 - x
    >>> p.degree, p(5)
    (2, Fraction(20, 1))
    """

    # Tuples and *-arguments on per-call paths are built from lists: built
    # from generators of short-lived big integers, they keep raising the
    # process's peak RSS over thousands of calls.
    __slots__ = ("_den", "_ints")

    def __init__(self, coefficients: Iterable[int | Fraction] = ()) -> None:
        coeffs = [c if type(c) is Fraction else _exact(c) for c in coefficients]
        den = lcm(*[c.denominator for c in coeffs])
        self._store(den, [c.numerator * (den // c.denominator) for c in coeffs])

    @classmethod
    def from_integer_form(cls, den: int, ints: Iterable[int]) -> RationalPolynomial:
        """The polynomial (1/den) * sum(ints[i] * x**i), for a nonzero den."""
        if not den:
            raise ZeroDivisionError("polynomial denominator is zero")
        ints = list(ints)
        g = gcd(den, *ints)
        if den < 0:
            g = -g
        return cls.__new__(cls)._store(den // g, [c // g for c in ints])

    def _store(self, den: int, ints: list[int]) -> RationalPolynomial:
        while ints and not ints[-1]:
            ints.pop()
        self._den = den
        self._ints = tuple(ints)
        return self

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients ascending by power; empty for the zero polynomial.
        Each read builds a new tuple."""
        den = self._den
        return tuple([Fraction(c, den) for c in self._ints])

    def common_integer_form(self) -> tuple[int, tuple[int, ...]]:
        """The least d >= 1 with d * self integer, and those integer
        coefficients ascending.  The zero polynomial yields (1, (0,))."""
        return (self._den, self._ints) if self._ints else (1, (0,))

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self._ints) - 1

    def is_zero(self) -> bool:
        return not self._ints

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalPolynomial):
            return self._den == other._den and self._ints == other._ints
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._den, self._ints))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: RationalPolynomial | int | Fraction) -> RationalPolynomial:
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial([other])
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        return RationalPolynomial.from_integer_form(
            den, [a * sa + b * sb for a, b in zip_longest(self._ints, other._ints, fillvalue=0)]
        )

    def __neg__(self) -> RationalPolynomial:
        return RationalPolynomial.from_integer_form(self._den, [-c for c in self._ints])

    def __sub__(self, other: RationalPolynomial | int | Fraction) -> RationalPolynomial:
        if not isinstance(other, (int, Fraction, RationalPolynomial)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: RationalPolynomial | int | Fraction) -> RationalPolynomial:
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial([other])
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        a, b = self._ints, other._ints
        result = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    result[j] += ai * bj
        return RationalPolynomial.from_integer_form(self._den * other._den, result)

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
        da, rem = self._den, self._ints
        db, div = divisor._den, divisor._ints
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
        """Exact value at x, by Horner's scheme on den * self."""
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"exact evaluation needs an int or Fraction, not {type(x).__name__}")
        acc = 0
        for c in reversed(self._ints):
            acc = acc * x + c
        return Fraction(acc, self._den)

    def shifted(self, offset: int | Fraction) -> RationalPolynomial:
        """The composed polynomial p(x + offset), by the classical Taylor
        shift in integers: for offset = p/q and degree d, with a[i] =
        ints[i] * q^(d-i), d(d+1)/2 steps a[j] += p * a[j+1] give the
        coefficients of den * q^d * self(x + offset) as a[i] * q^i."""
        if not isinstance(offset, (int, Fraction)):
            raise TypeError(f"exact shift needs an int or Fraction, not {type(offset).__name__}")
        p, q = offset.numerator, offset.denominator
        d = max(self.degree, 0)  # q**-1 would be a float
        a = [c * q ** (d - i) for i, c in enumerate(self._ints)]
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] += p * a[j + 1]
        return RationalPolynomial.from_integer_form(
            self._den * q**d, [c * q**i for i, c in enumerate(a)]
        )

    def content_and_primitive(self) -> tuple[Fraction, RationalPolynomial]:
        """Split as content * primitive, where the primitive part has coprime
        integer coefficients and a positive leading coefficient.

        The zero polynomial splits as (0, zero).
        """
        if self.is_zero():
            return Fraction(0), self
        ints = self._ints
        num = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
        primitive = RationalPolynomial.from_integer_form(1, [c // num for c in ints])
        return Fraction(num, self._den), primitive

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
