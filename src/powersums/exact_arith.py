"""Exact integer and rational arithmetic.

Python integers are already arbitrary precision and ``fractions.Fraction``
keeps every value reduced with a positive denominator, so this module mostly
pins down the conventions the rest of the package relies on: values are
immutable, equality is structural equality of reduced forms, and the wire
format always writes an explicit denominator (``-691/2730``, ``1/1``).

Decimal text is read and written at any size.  ``str`` and ``int`` refuse
integers past ``sys.get_int_max_str_digits()`` (4300 digits by default);
:func:`format_exact` and :func:`parse_int` fall back to ``decimal``, whose
conversions are exact and carry no such limit, and leave the interpreter's
setting alone.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

__all__ = [
    "format_exact",
    "format_rational",
    "format_rational_latex",
    "parse_int",
    "parse_rational",
]

# A zero denominator matches, so that it is reported as such.
_RATIONAL_RE = re.compile(r"(0|-?[1-9][0-9]*)/(0|[1-9][0-9]*)")
_INT_RE = re.compile(r"[+-]?\d+")


def format_exact(value: int | Fraction) -> str:
    """``str(value)`` for an int or a Fraction of any size.

    >>> len(format_exact(10**5000))
    5001
    """
    try:
        return str(value)
    except ValueError:  # past the interpreter's int-to-str digit limit
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return format_exact(value.numerator)
            return format_rational(value)
        return str(Decimal(value))


def parse_int(text: str) -> int:
    """``int(text)``, also for decimal literals past the digit limit."""
    try:
        return int(text)
    except ValueError:
        if _INT_RE.fullmatch(text) is None:
            raise
        return int(Decimal(text))


def format_rational(value: Fraction) -> str:
    """Serialize as ``<num>/<den>`` with the denominator always explicit."""
    return f"{format_exact(value.numerator)}/{format_exact(value.denominator)}"


def parse_rational(text: str) -> Fraction:
    """Parse ``<num>/<den>``; only the canonical reduced form is accepted.

    The digits are ASCII 0-9, with no leading zeros and no ``-0``: the other
    Unicode digits that ``int`` takes, ``007/2``, ``1/02`` and ``-0/1`` are
    rejected, so the wire format has a single spelling.
    """
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = parse_int(match.group(1)), parse_int(match.group(2))
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    value = Fraction(num, den)
    if (value.numerator, value.denominator) != (num, den):
        raise ValueError(f"rational literal not in reduced form: {text!r}")
    return value


def format_rational_latex(value: Fraction) -> str:
    """LaTeX rendering: integers bare, everything else as a signed \\frac."""
    if value.denominator == 1:
        return format_exact(value.numerator)
    sign = "-" if value < 0 else ""
    num, den = format_exact(abs(value.numerator)), format_exact(value.denominator)
    return f"{sign}\\frac{{{num}}}{{{den}}}"
