import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powersums
from powersums.analysis import check_claim, factored_form
from powersums.bernoulli import BernoulliCache, bernoulli
from powersums.faulhaber import (
    faulhaber_poly,
    format_polynomial,
    format_power_sum,
    p_poly,
    poly_from_json,
    poly_to_json,
    power_sum_closed,
    power_sum_naive,
    telescope_residual,
)
from powersums.exact_arith import format_exact
from powersums.polynomial import RationalPolynomial, X, monomial

# Expanded closed forms as (common denominator, coefficients descending from
# the n^(k+1) term down to the constant).  The first twelve match the
# classical tables; 12 and up were frozen from an independent symbolic
# expansion of sum(i**k, i=1..n).
EXPANDED = {
    0: (1, [1, 0]),
    1: (2, [1, 1, 0]),
    2: (6, [2, 3, 1, 0]),
    3: (4, [1, 2, 1, 0, 0]),
    4: (30, [6, 15, 10, 0, -1, 0]),
    5: (12, [2, 6, 5, 0, -1, 0, 0]),
    6: (42, [6, 21, 21, 0, -7, 0, 1, 0]),
    7: (24, [3, 12, 14, 0, -7, 0, 2, 0, 0]),
    8: (90, [10, 45, 60, 0, -42, 0, 20, 0, -3, 0]),
    9: (20, [2, 10, 15, 0, -14, 0, 10, 0, -3, 0, 0]),
    10: (66, [6, 33, 55, 0, -66, 0, 66, 0, -33, 0, 5, 0]),
    11: (24, [2, 12, 22, 0, -33, 0, 44, 0, -33, 0, 10, 0, 0]),
    12: (2730, [210, 1365, 2730, 0, -5005, 0, 8580, 0, -9009, 0, 4550, 0, -691, 0]),
}


class TestAuxiliaryPolynomial:
    def test_k0_is_x(self, cache):
        assert p_poly(0, cache) == X

    def test_k1(self, cache):
        assert p_poly(1, cache) == X**2 - X

    def test_k3(self, cache):
        assert p_poly(3, cache) == X**4 - 2 * X**3 + X**2

    def test_no_constant_term(self, cache):
        for k in range(31):
            assert p_poly(k, cache)(0) == 0

    def test_negative_exponent_rejected(self, cache):
        with pytest.raises(ValueError):
            p_poly(-1, cache)
        with pytest.raises(ValueError, match="^exponent must be nonnegative$"):
            faulhaber_poly(-1, cache)

    def test_fresh_table_is_built_once(self, tangent_calls):
        # B_0..B_40 come from one run of the tangent triangle, not one per index.
        p_poly(40, BernoulliCache())
        assert tangent_calls == [20]


class TestClosedForms:
    def test_k0(self, cache):
        assert faulhaber_poly(0, cache) == X

    def test_k1(self, cache):
        assert faulhaber_poly(1, cache) == RationalPolynomial(
            [0, Fraction(1, 2), Fraction(1, 2)]
        )

    def test_k2(self, cache):
        assert faulhaber_poly(2, cache) == RationalPolynomial(
            [0, Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)]
        )

    @pytest.mark.parametrize("k", sorted(EXPANDED))
    def test_expanded_fixtures(self, cache, k):
        den, descending = EXPANDED[k]
        assert faulhaber_poly(k, cache).common_integer_form() == (
            den,
            tuple(reversed(descending)),
        )

    def test_degree_and_leading_coefficient(self, cache):
        for k in range(31):
            poly = faulhaber_poly(k, cache)
            assert poly.degree == k + 1
            assert poly.coefficients[k + 1] == Fraction(1, k + 1)

    def test_no_constant_term(self, cache):
        for k in range(31):
            assert faulhaber_poly(k, cache)(0) == 0

    def test_difference_recovers_the_power(self, cache):
        for k in [*range(31), 100, 200, 400]:
            poly = faulhaber_poly(k, cache)
            assert poly - poly.shifted(-1) == monomial(k)


class TestLastSkSlot:
    """The table keeps the last S^k built from it and hands it out again."""

    def test_repeated_k_returns_the_same_polynomial(self, cache, p_poly_calls):
        assert faulhaber_poly(9, cache) is faulhaber_poly(9, cache)
        assert faulhaber_poly(8, cache) == faulhaber_poly(8, BernoulliCache())
        assert p_poly_calls == [9, 8, 8]

    def test_tables_do_not_share_the_slot(self, p_poly_calls):
        faulhaber_poly(6, BernoulliCache())
        faulhaber_poly(6, BernoulliCache())
        assert p_poly_calls == [6, 6]

    @pytest.mark.parametrize("warm", [[], [0], [1], [5, 1]])
    def test_negative_k_rejected_fresh_and_warm(self, cache, warm):
        for k in warm:
            faulhaber_poly(k, cache)
        with pytest.raises(ValueError, match="^exponent must be nonnegative$"):
            faulhaber_poly(-1, cache)

    def test_float_k_is_not_served_from_the_slot(self, cache):
        faulhaber_poly(2, cache)
        with pytest.raises(TypeError):
            faulhaber_poly(2.0, cache)

    def test_factored_form_and_its_checks_build_p_once(self, cache, p_poly_calls):
        # The poly-algebra benchmark op: factored form, the divisibility
        # claims on the same exponent, and re-multiplying each quotient.
        k = 12
        form = factored_form(k, cache)
        reports = [check_claim(2, k, cache), check_claim(4, k // 2, cache)]
        assert form.k == k and [r.k for r in reports] == [k, k]
        assert all(r.divisor * r.quotient == faulhaber_poly(r.k, cache) for r in reports)
        assert p_poly_calls == [k]
        # telescope_residual builds its own P, the independent check.
        assert telescope_residual(k, cache).is_zero()
        assert p_poly_calls == [k, k]

    def test_threads_sharing_a_table_get_their_own_k(self):
        shared = BernoulliCache()
        reference = BernoulliCache()
        expected = {k: faulhaber_poly(k, reference).common_integer_form() for k in range(2, 5)}

        def walk(ks):
            return [(k, faulhaber_poly(k, shared)) for k in ks]

        # Few distinct k, in orders that differ by thread, so that one
        # thread often reads the slot while another replaces it.
        orders = [[2, 2, 3, 3], [3, 3, 2, 2], [2, 3, 4], [4, 4, 2], [3, 4, 4, 2, 2]]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(orders)) as pool:
                futures = [pool.submit(walk, order * 300) for order in orders]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old_interval)
        for result in results:
            for k, poly in result:
                assert poly.common_integer_form() == expected[k]


class TestTwoConstructions:
    def test_shift_form_equals_correction_form(self, cache):
        # P(x)/(k+1) + x^k and P(x+1)/(k+1) expand to the same coefficients.
        for k in range(31):
            p = p_poly(k, cache)
            assert p * Fraction(1, k + 1) + monomial(k) == p.shifted(1) * Fraction(1, k + 1)

    def test_telescoping_residual_is_zero(self, cache):
        for k in range(31):
            assert telescope_residual(k, cache).is_zero()

    @pytest.mark.parametrize("k", [0, 3, 20, 300, 400])
    def test_telescoping_spot_checks(self, cache, k):
        assert telescope_residual(k, cache) == RationalPolynomial()


class TestEvaluation:
    def test_poly_eval_closed_form(self, cache):
        assert faulhaber_poly(2, cache)(3) == 14

    def test_naive_examples(self):
        assert power_sum_naive(3, 2) == 14
        assert power_sum_naive(1, 0) == 1
        assert power_sum_naive(2, 24) == 16777217
        assert power_sum_naive(0, 7) == 0

    def test_closed_examples(self, cache):
        assert power_sum_closed(10, 1, cache) == 55
        assert power_sum_closed(4, 3, cache) == 100
        assert power_sum_closed(0, 7, cache) == 0
        assert power_sum_closed(5, 0, cache) == 5

    def test_closed_frozen_large_value(self, cache):
        # sum(i**12 for i in range(1, 101)), computed independently
        assert power_sum_closed(100, 12, cache) == 8202305859288611690311330

    def test_closed_matches_naive_sampled_grid(self, cache):
        for k in range(13):
            running = 0
            for n in range(61):
                if n:
                    running += n**k
                assert power_sum_closed(n, k, cache) == running

    @given(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_matches_naive_random(self, n, k):
        assert power_sum_closed(n, k) == power_sum_naive(n, k)

    def test_negative_arguments_rejected(self, cache):
        with pytest.raises(ValueError):
            power_sum_closed(-1, 2, cache)
        with pytest.raises(ValueError):
            power_sum_naive(-1, 2)

    def test_float_argument_rejected(self, cache):
        with pytest.raises(TypeError):
            power_sum_closed(3.0, 2, cache)

    def test_verification_record(self, cache):
        assert power_sum_closed(7, 5, cache) == power_sum_naive(7, 5) == 29008


# B_2 replaced by 1/5 makes S^2(1) = P(2)/3 = 16/15, which is not an integer.
CORRUPT_AND_EVALUATE = """
import sys
from fractions import Fraction
from powersums.bernoulli import BernoulliCache, bernoulli
from powersums.faulhaber import power_sum_closed
cache = BernoulliCache()
bernoulli(4, cache)
cache._values[2] = Fraction(1, 5)
try:
    value = power_sum_closed(1, 2, cache)
except ArithmeticError as exc:
    print("ArithmeticError", sys.flags.optimize, exc)
else:
    print("returned", value)
"""


class TestIntegralityCheck:
    def test_corrupted_table_raises(self):
        cache = BernoulliCache()
        bernoulli(4, cache)
        cache._values[2] = Fraction(1, 5)
        with pytest.raises(ArithmeticError, match="non-integer 16/15"):
            power_sum_closed(1, 2, cache)

    def test_survives_python_dash_O(self):
        src = str(Path(powersums.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", CORRUPT_AND_EVALUATE],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("ArithmeticError 1 "), proc.stdout


class TestSerialization:
    def test_json_schema(self, cache):
        entry = poly_to_json(faulhaber_poly(2, cache), k=2)
        assert entry == {
            "k": 2,
            "denominator": "6",
            "coeffs": ["2", "3", "1", "0"],
        }

    def test_json_round_trip(self, cache):
        for k in (0, 1, 7, 13):
            poly = faulhaber_poly(k, cache)
            assert poly_from_json(poly_to_json(poly, k=k)) == poly

    def test_plain_rendering(self, cache):
        assert format_power_sum(0, faulhaber_poly(0, cache)) == "S_n^0 = n"
        assert format_power_sum(9, faulhaber_poly(9, cache)) == (
            "S_n^9 = 1/20 (2n^10 + 10n^9 + 15n^8 - 14n^6 + 10n^4 - 3n^2)"
        )
        assert format_power_sum(10, faulhaber_poly(10, cache)) == (
            "S_n^10 = 1/66 (6n^11 + 33n^10 + 55n^9 - 66n^7 + 66n^5 - 33n^3 + 5n)"
        )

    def test_latex_rendering(self, cache):
        assert format_power_sum(10, faulhaber_poly(10, cache), style="latex") == (
            "S_n^{10} = \\frac{1}{66} (6n^{11} + 33n^{10} + 55n^{9} - 66n^{7}"
            " + 66n^{5} - 33n^{3} + 5n)"
        )

    def test_coefficients_past_the_int_str_digit_limit(self):
        big = 10**5000 + 1
        poly = RationalPolynomial([Fraction(big, 3), -big, 1])
        entry = poly_to_json(poly)
        assert entry["denominator"] == "3"
        assert entry["coeffs"] == ["3", "-3" + "0" * 4999 + "3", format_exact(big)]
        assert poly_from_json(entry) == poly
        assert format_polynomial(poly) == f"1/3 (3n^2 - {format_exact(3 * big)}n + {format_exact(big)})"
        assert str(poly).startswith("1/3 (3x^2 - 3000")
        assert format_polynomial(RationalPolynomial([-big])) == "-" + format_exact(big)

    def test_constant_polynomial_rendering(self):
        assert format_polynomial(RationalPolynomial([Fraction(1, 2)])) == "1/2"
        assert format_polynomial(RationalPolynomial()) == "0"
