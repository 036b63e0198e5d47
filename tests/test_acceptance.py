"""End-to-end acceptance suite.

Each test is one shipping criterion, checked at full scale and at exact
(zero-tolerance) equality; runtime ceilings are asserted where a criterion
carries one.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS line per criterion.
"""

import json
import random
import time
from fractions import Fraction
from math import comb, gcd

from powersums.analysis import check_problem2, check_problem3, check_problem4
from powersums.bernoulli import BernoulliCache, bernoulli, recurrence_residual
from powersums.cli import main, run_benchmark
from powersums.faulhaber import (
    faulhaber_poly,
    p_poly,
    power_sum_closed,
    power_sum_naive,
    telescope_residual,
)
from powersums.polynomial import monomial

BERNOULLI_TABLE = {
    1: "-1/2",
    2: "1/6",
    4: "-1/30",
    6: "1/42",
    8: "-1/30",
    10: "5/66",
    12: "-691/2730",
    14: "7/6",
    16: "-3617/510",
    18: "43867/798",
    20: "-174611/330",
    22: "854513/138",
    24: "-236364091/2730",
}

# (denominator, coefficients descending) for the closed forms of k = 0..11.
CLOSED_FORM_TABLE = {
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
}


def _passed(number, text):
    print(f"[acceptance] criterion {number:02d}: PASS - {text}")


def test_criterion_01_bernoulli_table_values():
    start = time.perf_counter()
    cache = BernoulliCache()
    for n, text in BERNOULLI_TABLE.items():
        value = bernoulli(n, cache)
        expected = Fraction(text)
        assert (value.numerator, value.denominator) == (
            expected.numerator,
            expected.denominator,
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _passed(1, "13 table values B_1..B_24 reproduced exactly")


def test_criterion_02_odd_indices_vanish():
    start = time.perf_counter()
    cache = BernoulliCache()
    for m in range(1, 101):
        assert bernoulli(2 * m + 1, cache) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    _passed(2, "B_(2m+1) = 0 for m = 1..100")


def test_criterion_03_recurrence_identity():
    cache = BernoulliCache()
    for n in range(1, 101):
        assert recurrence_residual(n, cache) == 0
    _passed(3, "binomial-weighted sums vanish for n = 1..100")


def test_criterion_04_closed_equals_naive_on_full_grid():
    start = time.perf_counter()
    cache = BernoulliCache()
    comparisons = 0
    for k in range(31):
        running = 0
        for n in range(201):
            if n:
                running += n**k
            assert power_sum_closed(n, k, cache) == running, (n, k)
            comparisons += 1
    elapsed = time.perf_counter() - start
    assert comparisons == 6231
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    _passed(4, "6231 exact closed-vs-naive comparisons (n <= 200, k <= 30)")


def test_criterion_05_telescoping_identity():
    cache = BernoulliCache()
    for k in range(31):
        assert telescope_residual(k, cache).is_zero()
    _passed(5, "difference of the auxiliary polynomial is (k+1) n^k for k <= 30")


def test_criterion_06_two_forms_agree():
    cache = BernoulliCache()
    for k in range(31):
        p = p_poly(k, cache)
        assert p * Fraction(1, k + 1) + monomial(k) == p.shifted(1) * Fraction(1, k + 1)
    _passed(6, "correction form equals shift form coefficient-for-coefficient")


def test_criterion_07_closed_form_fixtures_and_k12():
    cache = BernoulliCache()
    for k, (den, descending) in CLOSED_FORM_TABLE.items():
        assert faulhaber_poly(k, cache).common_integer_form() == (
            den,
            tuple(reversed(descending)),
        )
    # k = 12 is checked against direct summation rather than a printed
    # table entry; misprinted expansions of it circulate (see README).
    running = 0
    for n in range(201):
        if n:
            running += n**12
        assert power_sum_closed(n, 12, cache) == running
    _passed(7, "twelve expanded fixtures match; k = 12 verified against summation")


def test_criterion_08_divisibility_suites():
    cache = BernoulliCache()
    for k in range(1, 31):
        report = check_problem2(k, cache)
        assert report.divides and report.remainder.is_zero()
        assert report.divisor * report.quotient == faulhaber_poly(k, cache)
    for k in range(1, 16):
        report = check_problem3(k, cache)
        assert report.divides
        assert report.divisor * report.quotient == faulhaber_poly(2 * k + 1, cache)
        report = check_problem4(k, cache)
        assert report.divides
        assert report.divisor * report.quotient == faulhaber_poly(2 * k, cache)
    _passed(8, "n(n+1) | S^k, n^2(n+1)^2 | S^(2k+1), n(n+1)(2n+1) | S^(2k)")


def test_criterion_09_range_13_to_21(capsys):
    code = main(["faulhaber", "--range", "13..21", "--cache", "none"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    cache = BernoulliCache()
    checks = 0
    for k, line in zip(range(13, 22), lines):
        assert line.startswith(f"S_n^{k} = ")
        poly = faulhaber_poly(k, cache)
        running = 0
        for n in range(1, 51):
            running += n**k
            assert poly(n) == running
            checks += 1
    assert checks == 450
    _passed(9, "nine polynomials for k = 13..21, 450 oracle checks")


def test_criterion_10_benchmark_sanity():
    start = time.perf_counter()
    result = run_benchmark(100_000, 10, 3)
    elapsed = time.perf_counter() - start
    assert result.values_equal
    assert result.naive_time > result.closed_time, "closed form must be faster"
    speedup = result.naive_time / result.closed_time
    assert speedup > 1.0
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"
    _passed(10, f"identical values at n=10^5, k=10; speedup {speedup:.0f}x")


def test_criterion_11_randomized_regressions():
    rng = random.Random(0x5EED)
    for _ in range(10_000):
        num = rng.randint(-10**9, 10**9)
        den = rng.randint(1, 10**9) * rng.choice((1, -1))
        value = Fraction(num, den)
        assert value.denominator > 0
        assert gcd(abs(value.numerator), value.denominator) == 1
    for _ in range(10_000):
        n = rng.randint(1, 64)
        k = rng.randint(1, n)
        assert comb(n, k) == comb(n - 1, k - 1) + comb(n - 1, k)
    _passed(11, "10,000 reduction checks and 10,000 binomial identity checks")
