"""Polynomial divisibility of the power sums, and why the value-level
reading is a different (and much rarer) phenomenon.

Run:  python demos/divisibility_reports.py
"""

from powersums import check_problem2, check_problem3, check_problem4
from powersums.analysis import CLAIMS, value_divisibility
from powersums.bernoulli import BernoulliCache
from powersums.faulhaber import format_polynomial, power_sum_closed

cache = BernoulliCache()
n_n1 = CLAIMS[2].divisor  # n(n+1)

# As polynomials over the rationals these divisions are always exact:
# n(n+1) divides S^k, n^2(n+1)^2 divides the odd exponents >= 3, and
# n(n+1)(2n+1) divides the even ones.
print("n(n+1) | S^k, quotients for k = 1..6:")
for k in range(1, 7):
    report = check_problem2(k, cache)
    assert report.divides
    print(f"  k={k}:  {format_polynomial(report.quotient)}")

print("\nHigher-degree structural divisors:")
for report in (check_problem3(3, cache), check_problem4(3, cache)):
    print(f"  exponent {report.k}: divisor {format_polynomial(report.divisor)}"
          f" -> quotient {format_polynomial(report.quotient)}")

# The integer values are another matter: S at n=3, k=2 is 14, and the
# divisor value 3*4 = 12 does not divide 14.  Polynomial divisibility
# survives because the quotient has a fractional scalar (here 1/6).
n, k = 3, 2
print(f"\nValue check at n={n}, k={k}: S = {power_sum_closed(n, k, cache)}, "
      f"divisor value = {n * (n + 1)}, "
      f"divides = {value_divisibility(n, k, n_n1, cache)}")

# Value-level divisibility by n(n+1) does happen, just sporadically.
hits = [(n, k) for n in range(1, 13) for k in range(1, 13)
        if value_divisibility(n, k, n_n1, cache)]
print(f"\nPairs with n <= 12, k <= 12 where the value of n(n+1) divides the sum:")
print(f"  {hits}")
