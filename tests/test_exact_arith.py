from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powersums.exact_arith import (
    format_exact,
    format_rational,
    format_rational_latex,
    parse_int,
    parse_rational,
)


def pascal_rows(limit):
    """Brute-force Pascal triangle, the independent oracle for comb."""
    rows = [[1]]
    for n in range(1, limit + 1):
        prev = rows[-1]
        rows.append([1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1])
    return rows


class TestRationalConstruction:
    """Fractions are reduced with the sign in the numerator, in and out."""

    def test_reduces(self):
        assert format_rational(Fraction(2, 4)) == "1/2"

    def test_normalizes_sign_into_numerator(self):
        assert format_rational(Fraction(3, -6)) == "-1/2"
        r = parse_rational("-1/2")
        assert (r.numerator, r.denominator) == (-1, 2)

    def test_already_reduced_value_kept_verbatim(self):
        r = parse_rational("-691/2730")
        assert (r.numerator, r.denominator) == (-691, 2730)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("1/0")


class TestRationalOps:
    """Results of exact arithmetic serialize in canonical form."""

    def test_add(self):
        assert format_rational(Fraction(1, 6) + Fraction(-1, 2)) == "-1/3"

    def test_mul_by_zero(self):
        assert format_rational(Fraction(1, 2) * 0) == "0/1"

    def test_div(self):
        assert format_rational(Fraction(-1, 30) / Fraction(1, 6)) == "-1/5"

    def test_neg(self):
        assert format_rational(-Fraction(7, 6)) == "-7/6"

    def test_div_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)


class TestBinomial:
    """``math.comb``, which weights the Bernoulli numbers in ``p_poly``."""

    def test_small(self):
        assert comb(5, 2) == 10

    @pytest.mark.parametrize("n", [0, 1, 7, 64])
    def test_choose_zero(self, n):
        assert comb(n, 0) == 1

    def test_above_diagonal_is_zero(self):
        assert comb(3, 5) == 0

    def test_frozen_mid_size_value(self):
        # computed once with the Pascal-row oracle below
        assert comb(25, 12) == 5200300

    def test_matches_pascal_oracle_exhaustively(self):
        rows = pascal_rows(64)
        for n in range(65):
            for k in range(n + 1):
                assert comb(n, k) == rows[n][k]

    def test_symmetry(self):
        for n in range(65):
            for k in range(n + 1):
                assert comb(n, k) == comb(n, n - k)


@given(st.fractions(), st.fractions())
def test_addition_commutes(a, b):
    assert format_rational(a + b) == format_rational(b + a)


@given(st.fractions(), st.fractions(), st.fractions())
def test_multiplication_distributes(a, b, c):
    assert parse_rational(format_rational(a * (b + c))) == a * b + a * c


@given(st.integers(), st.integers().filter(lambda d: d != 0))
def test_construction_always_reduced(num, den):
    text = format_rational(Fraction(num, den))
    r = parse_rational(text)
    assert r.denominator > 0
    assert gcd(abs(r.numerator), r.denominator) == 1
    assert format_rational(r) == text


class TestSerialization:
    def test_denominator_always_explicit(self):
        assert format_rational(Fraction(1)) == "1/1"
        assert format_rational(Fraction(-691, 2730)) == "-691/2730"

    def test_round_trip(self):
        for text in ("1/1", "-1/2", "7/6", "-236364091/2730", "0/1"):
            assert format_rational(parse_rational(text)) == text

    # int() also takes Arabic-Indic and fullwidth digits, a trailing
    # newline, a plus sign and underscores; the wire format does not.
    @pytest.mark.parametrize("bad", ["2/4", "1/-2", "1/0", "x", "3", "1 / 2", "",
                                     "-\u0661/2", "1/\u0662", "\uff11/2", "1/2\n",
                                     "+1/2", "1_0/3", "007/2", "1/02", "-0/1",
                                     "00/1", "1/00"])
    def test_rejects_non_canonical_text(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_past_the_int_str_digit_limit(self):
        # 4300 digits is the interpreter's default limit for str(int).
        num, den = -(7**6000), 2**40 * 3
        value = Fraction(num, den)
        text = format_rational(value)
        assert len(text) > 5000
        assert parse_rational(text) == value
        assert format_exact(value) == text
        assert format_exact(Fraction(10**5000)) == "1" + "0" * 5000
        assert format_exact(-(10**5000)) == "-1" + "0" * 5000
        assert parse_int("-" + "9" * 6000) == 1 - 10**6000
        assert format_rational_latex(value) == f"-\\frac{{{text[1:text.index('/')]}}}{{{den}}}"

    def test_large_non_canonical_text_still_rejected(self):
        big = "9" * 5000
        for bad in (f"2{big}0/10", f"{big}/0", f"{big}x/1", f"1/{big}.5"):
            with pytest.raises(ValueError):
                parse_rational(bad)
        with pytest.raises(ValueError):
            parse_int(big + "e5")

    @pytest.mark.parametrize("value", [0, 1, -1, 10**20, Fraction(-691, 2730), Fraction(5)])
    def test_format_exact_is_str_below_the_limit(self, value):
        assert format_exact(value) == str(value)

    def test_latex(self):
        assert format_rational_latex(Fraction(854513, 138)) == "\\frac{854513}{138}"
        assert format_rational_latex(Fraction(-691, 2730)) == "-\\frac{691}{2730}"
        assert format_rational_latex(Fraction(1)) == "1"
        assert format_rational_latex(Fraction(0)) == "0"
