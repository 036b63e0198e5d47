from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from powersums.faulhaber import faulhaber_poly
from powersums.polynomial import RationalPolynomial, X, format_terms, monomial

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)
small_polys = st.builds(RationalPolynomial, st.lists(small_fractions, max_size=6))
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())
# Built both ways, the second with any nonzero denominator, negative too.
any_polys = small_polys | st.builds(
    RationalPolynomial.from_integer_form,
    st.integers(min_value=-12, max_value=12).filter(bool),
    st.lists(st.integers(min_value=-20, max_value=20), max_size=6),
)
ZERO_FROM_NEGATIVE_DEN = RationalPolynomial.from_integer_form(-6, [0, 0])
NEGATIVE_DEN = RationalPolynomial.from_integer_form(-4, [2, -6, 4, 0])


# The Fraction loops the integer kernels replaced, kept as references.
def reference_mul(a, b):
    a, b = a.coefficients, b.coefficients
    if not a or not b:
        return RationalPolynomial()
    result = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            result[i + j] += x * y
    return RationalPolynomial(result)


def reference_divmod(a, b):
    rem, div = list(a.coefficients), b.coefficients
    if len(rem) < len(div):
        return RationalPolynomial(), a
    quot = [Fraction(0)] * (len(rem) - len(div) + 1)
    for i in range(len(rem) - 1, len(div) - 2, -1):
        factor = rem[i] / div[-1]
        quot[i - len(div) + 1] = factor
        for j, d in enumerate(div):
            rem[i - len(div) + 1 + j] -= factor * d
    return RationalPolynomial(quot), RationalPolynomial(rem[: len(div) - 1])


def reference_add(a, b):
    pairs = zip_longest(a.coefficients, b.coefficients, fillvalue=Fraction(0))
    return RationalPolynomial([x + y for x, y in pairs])


def reference_sub(a, b):
    pairs = zip_longest(a.coefficients, b.coefficients, fillvalue=Fraction(0))
    return RationalPolynomial([x - y for x, y in pairs])


def reference_neg(p):
    return RationalPolynomial([-c for c in p.coefficients])


def reference_scale(p, scalar):
    return RationalPolynomial([c * scalar for c in p.coefficients])


def reference_call(p, x):
    acc = Fraction(0)
    for c in reversed(p.coefficients):
        acc = acc * x + c
    return acc


def reference_shifted(p, offset):
    shift = RationalPolynomial([offset, 1])
    result = RationalPolynomial()
    for c in reversed(p.coefficients):
        result = reference_mul(result, shift) + c
    return result


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        assert RationalPolynomial([1, 2, 0, 0]).coefficients == (1, 2)

    def test_zero_polynomial(self):
        z = RationalPolynomial([0, 0])
        assert z.is_zero()
        assert z.degree == -1
        assert z.coefficients == ()

    def test_degree_and_lookup(self):
        p = RationalPolynomial([Fraction(1, 2), 0, 3])
        assert p.degree == 2
        assert p.coefficients[0] == Fraction(1, 2)
        assert p.coefficients[1] == 0

    def test_equality_is_structural(self):
        assert RationalPolynomial([0, 1]) == monomial(1) == X
        assert RationalPolynomial([1]) != RationalPolynomial([1, 1])

    @pytest.mark.parametrize("build", [
        lambda: RationalPolynomial([0.1]),
        lambda: RationalPolynomial([Fraction(1, 2), 2.0]),
        lambda: RationalPolynomial(["1/2"]),
        lambda: monomial(1, 0.5),
    ], ids=["float", "float-after-fraction", "str", "monomial-float"])
    def test_inexact_coefficient_rejected(self, build):
        with pytest.raises(TypeError):
            build()


class TestArithmetic:
    def test_add_sub(self):
        p = X * X - X  # x^2 - x
        assert p + X == X * X
        assert p - p == RationalPolynomial()

    def test_scalar_ops(self):
        p = 2 * X + 1
        assert p.coefficients == (1, 2)
        assert (p * Fraction(1, 2)).coefficients == (Fraction(1, 2), 1)

    def test_mul(self):
        # (x + 1)(x - 1) = x^2 - 1
        assert (X + 1) * (X - 1) == X**2 - 1

    def test_pow(self):
        assert (X + 1) ** 2 == X**2 + 2 * X + 1
        assert (X**0).coefficients == (1,)

    def test_mul_by_zero_polynomial(self):
        assert (X * RationalPolynomial()).is_zero()


class TestDivmod:
    def test_exact_division(self):
        q, r = divmod(X**2 - 1, X - 1)
        assert q == X + 1
        assert r.is_zero()

    def test_with_remainder(self):
        q, r = divmod(X**2 + 1, X)
        assert q == X
        assert r == RationalPolynomial([1])

    def test_divisor_larger_than_dividend(self):
        q, r = divmod(X + 1, X**3)
        assert q.is_zero()
        assert r == X + 1

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divmod(X, RationalPolynomial())

    @given(small_polys, nonzero_polys)
    def test_division_identity(self, a, b):
        q, r = divmod(a, b)
        assert b * q + r == a
        assert r.is_zero() or r.degree < b.degree


class TestEvaluationAndShift:
    def test_horner(self):
        p = X**2 - X
        assert p(5) == 20
        assert p(Fraction(1, 2)) == Fraction(-1, 4)

    @pytest.mark.parametrize("point", [0.1, 2.0, complex(1, 0), "1"])
    def test_inexact_point_rejected(self, point):
        with pytest.raises(TypeError):
            (X * X)(point)

    @pytest.mark.parametrize("offset", [0.5, 1.0, "1"])
    def test_inexact_offset_rejected(self, offset):
        with pytest.raises(TypeError):
            (X + 1).shifted(offset)

    def test_zero_polynomial_evaluates_to_zero(self):
        assert RationalPolynomial()(12345) == 0

    def test_shift_by_one(self):
        assert (X**2).shifted(1) == X**2 + 2 * X + 1

    def test_shift_by_zero_is_identity(self):
        p = 3 * X**3 - X + 7
        assert p.shifted(0) == p
        q = 5 * X**4 - Fraction(1, 3) * X
        assert q.shifted(0) == q

    def test_shift_by_minus_one(self):
        assert (X**3 - X).shifted(-1) == X**3 - 3 * X**2 + 2 * X

    @pytest.mark.parametrize("p", [
        RationalPolynomial([Fraction(-7, 3)]),  # degree 0
        RationalPolynomial(),  # degree -1
    ], ids=["constant", "zero"])
    def test_shift_below_degree_one_by_fraction(self, p):
        assert p.shifted(Fraction(5, 2)) == p

    @given(small_polys, small_fractions, st.integers(min_value=-10, max_value=10))
    def test_shift_agrees_with_evaluation(self, p, c, x):
        assert p.shifted(c)(x) == p(x + c)


class TestIntegerKernels:
    """The integer kernels agree with the Fraction loops they replaced."""

    @given(small_polys, small_polys)
    def test_mul(self, a, b):
        assert a * b == reference_mul(a, b)

    @given(any_polys, any_polys)
    @example(ZERO_FROM_NEGATIVE_DEN, NEGATIVE_DEN)
    @example(NEGATIVE_DEN, ZERO_FROM_NEGATIVE_DEN)
    @example(NEGATIVE_DEN, NEGATIVE_DEN)
    def test_add_sub_neg(self, a, b):
        assert a + b == reference_add(a, b)
        assert a - b == reference_sub(a, b)
        assert -a == reference_neg(a)

    @given(any_polys, small_fractions)
    @example(ZERO_FROM_NEGATIVE_DEN, Fraction(3, 2))
    @example(NEGATIVE_DEN, Fraction(-5, 6))
    @example(NEGATIVE_DEN, Fraction(0))
    def test_scalar_mul(self, p, scalar):
        assert p * scalar == scalar * p == reference_scale(p, scalar)
        assert p * scalar.numerator == reference_scale(p, scalar.numerator)

    @given(any_polys, small_fractions, st.integers(min_value=-10**6, max_value=10**6))
    @example(ZERO_FROM_NEGATIVE_DEN, Fraction(-1, 3), 7)
    @example(NEGATIVE_DEN, Fraction(5, 2), -3)
    def test_call(self, p, point, n):
        for x in (point, n):
            value = p(x)
            assert type(value) is Fraction and value == reference_call(p, x)

    @given(any_polys)
    @example(ZERO_FROM_NEGATIVE_DEN)
    @example(NEGATIVE_DEN)
    def test_coefficients_view(self, p):
        first, second = p.coefficients, p.coefficients
        assert first == second
        assert all(type(c) is Fraction for c in first)

    @given(small_polys, nonzero_polys)
    def test_divmod(self, a, b):
        assert divmod(a, b) == reference_divmod(a, b)

    @given(small_polys, small_fractions)
    def test_shift(self, p, offset):
        assert p.shifted(offset) == reference_shifted(p, offset)

    @given(nonzero_polys)
    def test_content_and_primitive(self, p):
        content, primitive = p.content_and_primitive()
        den, ints = primitive.common_integer_form()
        assert (den, gcd(*ints)) == (1, 1) and ints[-1] > 0
        assert primitive * content == p

    @given(small_polys)
    def test_integer_form_round_trip(self, p):
        assert RationalPolynomial.from_integer_form(*p.common_integer_form()) == p

    @pytest.mark.parametrize("den, ints", [
        (6, [3, 0, -4]),  # den shares a factor with every coefficient
        (4, [2, 4, 0, 0]),  # trailing zeros
        (-10, [5, 0, 15, 0]),  # negative den, both
        (7, [0, 0]),  # only zeros
    ])
    def test_from_integer_form_is_the_constructor(self, den, ints):
        poly = RationalPolynomial.from_integer_form(den, ints)
        assert poly == RationalPolynomial([Fraction(c, den) for c in ints])
        assert all(type(c) is Fraction for c in poly.coefficients)

    @pytest.mark.parametrize("divisor", [
        2 * X + 1,
        -2 * X - 1,
        -X,
        Fraction(-3, 4) * X**2 + Fraction(1, 2),
        6 * X**3 - 5 * X + Fraction(7, 3),
        -(X * (X + 1) * (2 * X + 1)),
    ])
    def test_divmod_by_leads_other_than_one(self, cache, divisor):
        for k in (1, 4, 9, 30):
            s = faulhaber_poly(k, cache)
            assert divmod(s, divisor) == reference_divmod(s, divisor)

    @pytest.mark.parametrize("offset", [1, -1, Fraction(-3, 4), Fraction(5, 2)])
    def test_shift_at_degree_41(self, cache, offset):
        s = faulhaber_poly(40, cache)
        assert s.shifted(offset) == reference_shifted(s, offset)


class TestTwoStoredForms:
    """The two constructors agree: a polynomial built from its integer form
    and its Fraction-built twin answer every read alike."""

    READS = [
        lambda p: p.coefficients,
        lambda p: p.degree,
        lambda p: p.is_zero(),
        lambda p: bool(p),
        hash,
        str,
        lambda p: p.common_integer_form(),
    ]

    @given(
        st.integers(min_value=-12, max_value=12).filter(bool),
        st.lists(st.integers(min_value=-20, max_value=20), max_size=6),
        small_fractions,
    )
    @example(den=5, ints=[], offset=Fraction(1, 2))  # zero, no coefficients
    @example(den=-6, ints=[0, 0], offset=Fraction(-3, 4))  # zero, negative den
    @example(den=-4, ints=[2, -6, 4, 0], offset=Fraction(5, 2))  # negative den
    def test_integer_built_twin_agrees(self, den, ints, offset):
        def pair():
            return (
                RationalPolynomial.from_integer_form(den, ints),
                RationalPolynomial([Fraction(c, den) for c in ints]),
            )

        for read in self.READS:
            built, twin = pair()
            assert read(built) == read(twin)
        built, twin = pair()
        assert built == twin and twin == built
        built, twin = pair()
        assert built.shifted(offset) == reference_shifted(twin, offset)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalPolynomial.from_integer_form(0, [1, 2])


class TestNormalForms:
    def test_content_and_primitive(self):
        p = RationalPolynomial([Fraction(2, 3), Fraction(4, 3)])
        content, primitive = p.content_and_primitive()
        assert content == Fraction(2, 3)
        assert primitive == 2 * X + 1
        assert content * primitive == p

    def test_primitive_leading_coefficient_positive(self):
        content, primitive = (-2 * X + 4).content_and_primitive()
        assert content == -2
        assert primitive == X - 2

    def test_content_of_zero(self):
        content, primitive = RationalPolynomial().content_and_primitive()
        assert content == 0
        assert primitive.is_zero()

    def test_common_integer_form(self):
        p = RationalPolynomial([Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)])
        assert p.common_integer_form() == (6, (1, 3, 2))
        assert RationalPolynomial().common_integer_form() == (1, (0,))

    def test_str(self):
        assert str(X**2 - X) == "x^2 - x"
        assert str(RationalPolynomial()) == "0"
        assert str(RationalPolynomial([Fraction(1, 2), 0, Fraction(1, 3)])) \
            == "1/6 (2x^2 + 3)"


class TestFormatTerms:
    def test_plain(self):
        assert format_terms((0, -3, 0, 2), "n") == "2n^3 - 3n"
        assert format_terms((5,), "n") == "5"
        assert format_terms((0, 1), "n") == "n"
        assert format_terms((-1, -1), "n") == "-n - 1"

    def test_braced(self):
        assert format_terms((0, 5, 0, 0, 1), "n", braced=True) == "n^{4} + 5n"
