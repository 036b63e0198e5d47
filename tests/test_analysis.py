from fractions import Fraction
from math import gcd

import pytest

from powersums.analysis import (
    check_problem2,
    check_problem3,
    check_problem4,
    factored_form,
    factored_to_json,
    format_factored,
    report_to_json,
    value_divisibility,
)
from powersums.faulhaber import faulhaber_poly
from powersums.polynomial import RationalPolynomial, X


def scaled(ints_ascending, den):
    """Shorthand for (1/den) * polynomial with the given integer coefficients."""
    return RationalPolynomial(ints_ascending) * Fraction(1, den)


DIVISOR_N_N1 = X * (X + 1)


class TestPolyDivmod:
    def test_closed_form_split(self, cache):
        q, r = divmod(faulhaber_poly(5, cache), DIVISOR_N_N1**2)
        assert r.is_zero()
        assert q == scaled([-1, 2, 2], 12)  # 1/12 (2x^2 + 2x - 1)


class TestProblem2:
    def test_k1_quotient_is_half(self, cache):
        report = check_problem2(1, cache)
        assert report.divides
        assert report.quotient == RationalPolynomial([Fraction(1, 2)])

    def test_k2_quotient(self, cache):
        report = check_problem2(2, cache)
        assert report.divides
        assert report.quotient == scaled([1, 2], 6)  # 1/6 (2x + 1)

    def test_k30_divides(self, cache):
        assert check_problem2(30, cache).divides

    def test_holds_for_all_k_up_to_30(self, cache):
        for k in range(1, 31):
            report = check_problem2(k, cache)
            assert report.divides
            assert report.remainder.is_zero()
            assert report.divisor * report.quotient == faulhaber_poly(k, cache)

    def test_k0_rejected(self, cache):
        with pytest.raises(ValueError) as excinfo:
            check_problem2(0, cache)
        assert str(excinfo.value) == (
            "k must be >= 1: the exponent-0 power sum is n, which n(n+1) does not divide"
        )


class TestProblem3:
    def test_k1_exponent3(self, cache):
        report = check_problem3(1, cache)
        assert report.k == 3
        assert report.quotient == RationalPolynomial([Fraction(1, 4)])

    def test_k3_exponent7(self, cache):
        report = check_problem3(3, cache)
        assert report.k == 7
        # 1/24 (3x^4 + 6x^3 - x^2 - 4x + 2)
        assert report.quotient == scaled([2, -4, -1, 6, 3], 24)

    def test_k15_divides(self, cache):
        assert check_problem3(15, cache).divides

    def test_holds_with_remultiplication(self, cache):
        for k in range(1, 16):
            report = check_problem3(k, cache)
            assert report.divides
            assert report.divisor * report.quotient == faulhaber_poly(
                2 * k + 1, cache
            )

    def test_k0_rejected_with_counterexample_message(self, cache):
        with pytest.raises(ValueError) as excinfo:
            check_problem3(0, cache)
        assert str(excinfo.value) == (
            "k must be >= 1: the exponent-1 power sum is n(n+1)/2, "
            "which n^2(n+1)^2 does not divide"
        )


class TestProblem4:
    def test_k2_exponent4(self, cache):
        report = check_problem4(2, cache)
        assert report.k == 4
        assert report.quotient == scaled([-1, 3, 3], 30)  # 1/30 (3x^2 + 3x - 1)

    def test_k4_exponent8(self, cache):
        report = check_problem4(4, cache)
        # 1/90 (5x^6 + 15x^5 + 5x^4 - 15x^3 - x^2 + 9x - 3)
        assert report.quotient == scaled([-3, 9, -1, -15, 5, 15, 5], 90)

    def test_k15_divides(self, cache):
        assert check_problem4(15, cache).divides

    def test_holds_with_remultiplication(self, cache):
        for k in range(1, 16):
            report = check_problem4(k, cache)
            assert report.divides
            assert report.divisor * report.quotient == faulhaber_poly(2 * k, cache)

    def test_k0_rejected(self, cache):
        with pytest.raises(ValueError) as excinfo:
            check_problem4(0, cache)
        assert str(excinfo.value) == "k must be >= 1 (the exponent 2k must be positive)"


class TestValueDivisibility:
    """The value-level reading, which the polynomial statements do not imply."""

    def test_counterexample_n3_k2(self, cache):
        # S = 14 and the modulus is 12
        assert value_divisibility(3, 2, DIVISOR_N_N1, cache) is False

    def test_n4_k3_against_squared_divisor(self, cache):
        # S = 100 and the modulus is 400
        assert value_divisibility(4, 3, DIVISOR_N_N1**2, cache) is False

    def test_n1_k5(self, cache):
        # S = 1 and the modulus is 2
        assert value_divisibility(1, 5, DIVISOR_N_N1, cache) is False

    def test_sporadic_hit(self, cache):
        # S at (3, 3) is 36, and 3*4 = 12 divides it
        assert value_divisibility(3, 3, DIVISOR_N_N1, cache) is True

    def test_exhaustive_small_window(self, cache):
        hits = [
            (n, k)
            for n in range(1, 7)
            for k in range(1, 7)
            if value_divisibility(n, k, DIVISOR_N_N1, cache)
        ]
        assert hits == [(3, 3), (3, 5), (4, 3), (4, 5)]

    def test_triple_divisor_has_no_small_hits(self, cache):
        assert not any(
            value_divisibility(n, 2 * k, DIVISOR_N_N1 * (2 * X + 1), cache)
            for n in range(1, 7)
            for k in range(1, 5)
        )

    def test_zero_modulus_rejected(self, cache):
        with pytest.raises(ValueError):
            value_divisibility(3, 2, X - 3, cache)

    def test_fractional_modulus_rejected(self, cache):
        with pytest.raises(ValueError):
            value_divisibility(3, 2, X * Fraction(1, 2), cache)

    def test_n0_rejected(self, cache):
        with pytest.raises(ValueError):
            value_divisibility(0, 2, DIVISOR_N_N1, cache)


class TestFactoredForm:
    def test_k0(self, cache):
        form = factored_form(0, cache)
        assert form.scalar == 1
        assert form.factors == ((X, 1),)

    def test_k1(self, cache):
        form = factored_form(1, cache)
        assert form.scalar == Fraction(1, 2)
        assert form.factors == ((X, 1), (X + 1, 1))

    def test_k3_has_squared_factors(self, cache):
        form = factored_form(3, cache)
        assert form.scalar == Fraction(1, 4)
        assert form.factors == ((X, 2), (X + 1, 2))

    def test_k6(self, cache):
        form = factored_form(6, cache)
        assert form.scalar == Fraction(1, 42)
        assert form.factors == (
            (X, 1),
            (X + 1, 1),
            (2 * X + 1, 1),
            (RationalPolynomial([1, -3, 0, 6, 3]), 1),
        )

    def test_k9_structure_and_reexpansion(self, cache):
        form = factored_form(9, cache)
        assert form.factors[0] == (X, 2)
        assert form.factors[1] == (X + 1, 2)
        product = RationalPolynomial([form.scalar])
        for poly, multiplicity in form.factors:
            product = product * poly**multiplicity
        assert product == faulhaber_poly(9, cache)

    @pytest.mark.parametrize("k", range(21))
    def test_invariants(self, cache, k):
        form = factored_form(k, cache)
        product = RationalPolynomial([form.scalar])
        for poly, multiplicity in form.factors:
            assert multiplicity >= 1
            den, ints = poly.common_integer_form()
            assert den == 1, "factors must have integer coefficients"
            assert gcd(*ints) == 1, "factors must be primitive"
            assert poly.coefficients[-1] > 0, "leading coefficient must be positive"
            product = product * poly**multiplicity
        assert product == faulhaber_poly(k, cache)


class TestRendering:
    def test_golden_strings(self, cache):
        assert format_factored(factored_form(0, cache)) == "S_n^0 = n"
        assert format_factored(factored_form(2, cache)) == "S_n^2 = 1/6 n(n+1)(2n+1)"
        assert format_factored(factored_form(3, cache)) == "S_n^3 = 1/4 n^2(n+1)^2"
        assert format_factored(factored_form(5, cache)) == (
            "S_n^5 = 1/12 n^2(n+1)^2(2n^2 + 2n - 1)"
        )
        assert format_factored(factored_form(6, cache)) == (
            "S_n^6 = 1/42 n(n+1)(2n+1)(3n^4 + 6n^3 - 3n + 1)"
        )

    def test_latex(self, cache):
        assert format_factored(factored_form(3, cache), style="latex") == (
            "S_n^{3} = \\frac{1}{4} n^{2}(n+1)^{2}"
        )

    def test_report_json(self, cache):
        report = check_problem4(2, cache)
        data = report_to_json(report)
        assert data["k"] == 4
        assert data["divides"] is True
        assert data["divisor"] == {
            "denominator": "1",
            "coeffs": ["2", "3", "1", "0"],
        }
        assert data["quotient"] == {
            "denominator": "30",
            "coeffs": ["3", "3", "-1"],
        }
        assert data["remainder"] == {"denominator": "1", "coeffs": ["0"]}

    def test_factored_json(self, cache):
        data = factored_to_json(factored_form(3, cache))
        assert data["k"] == 3
        assert data["scalar"] == "1/4"
        assert [f["multiplicity"] for f in data["factors"]] == [2, 2]
