"""Independent checks for the benchmark's outputs.

Every check here uses plain integer arithmetic against a definition, never
the code path it checks:

* Bernoulli tables: B_0 = 1 and sum_{i<=n} C(n+1, i) B_i = 0 for n >= 1,
  which fixes the whole sequence.
* S^k: a polynomial of degree k+1 is fixed by its values at k+2 points, so
  agreement with direct summation at n = 0..k+1 proves it is S^k.
* Division: divisor * quotient + remainder, evaluated at the same points.

The program is used only to *produce* reference objects (a Bernoulli
table, the polynomials S^k), each of which is verified as above before any
expected value is derived from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def int_form(coeffs) -> tuple[int, list[int]]:
    """(den, ints) with ints[i] / den == coeffs[i]; coefficients ascending."""
    fracs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in fracs)) if fracs else 1
    return den, [c.numerator * (den // c.denominator) for c in fracs]


def horner(ints: list[int], x: int) -> int:
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def direct_sums(k: int, upto: int) -> list[int]:
    """[S(0), S(1), ..., S(upto)] for exponent k by direct summation."""
    sums, running = [0], 0
    for i in range(1, upto + 1):
        running += i**k
        sums.append(running)
    return sums


def bernoulli_identity_holds(values) -> bool:
    """B_0 = 1 and sum_{i<=n} C(n+1, i) B_i = 0 for 1 <= n < len(values)."""
    den, a = int_form(values)
    if not a or a[0] != den:
        return False
    row = [1, 1]  # C(1, i)
    for n in range(1, len(a)):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        if sum(row[i] * a[i] for i in range(n + 1)) != 0:
            return False
    return True


def json_poly(data: dict) -> list[Fraction]:
    """Ascending coefficients of the CLI's ``{"denominator", "coeffs"}`` form."""
    den = int(data["denominator"])
    return [Fraction(int(c), den) for c in reversed(data["coeffs"])]


def _degree(coeffs) -> int:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return len(coeffs) - 1


class Oracle:
    """Verified reference values, built lazily and memoized.

    ``pkg`` supplies the program's modules; the oracle keeps a Bernoulli
    table of its own, so nothing it computes warms a workload's state.
    """

    def __init__(self, pkg) -> None:
        self._pkg = pkg
        self._cache = pkg.bernoulli.BernoulliCache()
        self._table: list[Fraction] = []
        self._sk: dict[int, tuple[int, list[int], list[int]]] = {}

    def bernoulli_table(self, m: int) -> list[Fraction]:
        """B_0..B_m (at least), checked by the recurrence identity."""
        if len(self._table) <= m:
            table = self._pkg.bernoulli.bernoulli_range(m, self._cache)
            if not bernoulli_identity_holds(table):
                raise AssertionError(f"reference Bernoulli table fails at m={m}")
            self._table = table
        return self._table

    def sk(self, k: int) -> tuple[int, list[int], list[int]]:
        """(den, ints, sums): S^k in integer form and S^k(0..k+1)."""
        if k not in self._sk:
            coeffs = self._pkg.faulhaber.faulhaber_poly(k, self._cache).coefficients
            den, ints = int_form(coeffs)
            sums = direct_sums(k, k + 1)
            if len(ints) != k + 2 or any(
                horner(ints, n) != den * s for n, s in enumerate(sums)
            ):
                raise AssertionError(f"reference S^{k} fails direct summation")
            self._sk[k] = (den, ints, sums)
        return self._sk[k]

    def value(self, k: int, n: int) -> int:
        """1^k + ... + n^k from the verified S^k."""
        den, ints, _ = self.sk(k)
        value, rem = divmod(horner(ints, n), den)
        if rem:
            raise AssertionError(f"S^{k}({n}) is not an integer")
        return value

    def product_is_sk(self, k: int, scalar, factors) -> bool:
        """Whether scalar * prod(f^m for f, m in factors) is exactly S^k."""
        scalar = Fraction(scalar)
        if scalar == 0 or sum(_degree(f) * m for f, m in factors) != k + 1:
            return False
        forms = [(int_form(f), m) for f, m in factors]
        for n, s in enumerate(self.sk(k)[2]):
            num, den = scalar.numerator, scalar.denominator
            for (fden, ints), m in forms:
                num *= horner(ints, n) ** m
                den *= fden**m
            if num != s * den:
                return False
        return True

    def division_is_exact(self, k: int, divisor, quotient, remainder) -> bool:
        """Whether S^k == divisor * quotient with a zero remainder."""
        return _degree(remainder) < 0 and self.product_is_sk(
            k, Fraction(1), [(divisor, 1), (quotient, 1)]
        )

    def sweep_hits(self, divisor, max_n: int, max_k: int) -> list[dict]:
        """The CLI sweep's expected hits, by direct summation."""
        den, ints = int_form(divisor)
        hits = []
        for n in range(1, max_n + 1):
            modulus, rem = divmod(horner(ints, n), den)
            if rem or not modulus:
                raise ValueError(f"divisor is not a nonzero integer at n={n}")
            for k in range(max_k + 1):
                if direct_sums(k, n)[n] % modulus == 0:
                    hits.append({"n": n, "k": k})
        return hits

    def cache_file_ok(self, text: str, min_entries: int) -> bool:
        """A saved table: contiguous ``<i> <num>/<den>`` lines matching B_i."""
        lines = text.splitlines()
        if len(lines) < min_entries:
            return False
        table = self.bernoulli_table(len(lines) - 1)
        for i, line in enumerate(lines):
            index, _, value = line.partition(" ")
            num, _, den = value.partition("/")
            try:
                if int(index) != i or Fraction(int(num), int(den)) != table[i]:
                    return False
            except (ValueError, ZeroDivisionError):
                return False
        return True

