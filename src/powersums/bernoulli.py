"""Bernoulli numbers from integer tangent numbers, with a grow-only cache.

The numbers are generated through the tangent numbers T_k, the
coefficients of tan x = sum T_k x^(2k-1) / (2k-1)!, which are integers:

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))    for k >= 1,

with B_0 = 1, the convention B_1 = -1/2, and B_m = 0 for odd m >= 3.
T_1..T_N come out of Brent and Harvey's in-place triangle (*Fast
computation of Bernoulli, Tangent and Secant numbers*, 2011) in O(N^2)
multiply-adds of integers, with no rational arithmetic and no gcd until
the final division, so B_0..B_2000 takes about a second.

The paper's defining recurrence

    sum_{i=0}^{m} C(m+1, i) B_i = 0    for every m >= 1

is kept as the independent check: :func:`recurrence_residual` evaluates
it, ``powersums verify`` asserts it, and :meth:`BernoulliCache.load`
re-checks it on the top entries of a persisted table.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from pathlib import Path

from .exact_arith import format_rational, parse_rational

__all__ = [
    "BernoulliCache",
    "CacheCorruptionError",
    "bernoulli",
    "bernoulli_range",
    "recurrence_residual",
]


class CacheCorruptionError(ValueError):
    """A persisted cache file failed validation on load."""


class BernoulliCache:
    """Grow-only table of B_0..B_m, contiguous from index 0.

    Extension is serialized behind a lock; completed prefixes may be read
    concurrently without synchronization because entries are appended in
    order and never mutated.

    The table also keeps the last S^k built from it (see :func:`_reuse_last`).
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = [Fraction(1)]
        self._lock = threading.Lock()
        self._last_sk = None

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, n: int) -> Fraction:
        """B_n, computing and caching everything up to index n if needed."""
        if n < 0:
            raise ValueError("Bernoulli index must be nonnegative")
        if n >= len(self._values):
            self._extend_to(n)
        return self._values[n]

    def _extend_to(self, n: int) -> None:
        with self._lock:
            values = self._values
            start = len(values)
            # Tangent numbers are needed only if an even index >= 2 is missing.
            top = n // 2 if 2 * (n // 2) >= max(start, 2) else 0
            tangents = _tangent_numbers(top)
            for m in range(start, n + 1):
                if m == 1:
                    values.append(Fraction(-1, 2))
                elif m % 2:
                    values.append(Fraction(0))
                else:
                    k = m // 2
                    num = m * tangents[k] if k % 2 else -m * tangents[k]
                    values.append(Fraction(num, 4**k * (4**k - 1)))

    def save(self, path: str | Path) -> None:
        """Write one ASCII line per index: ``<index> <num>/<den>``.

        The table goes to a temp file of this save's own in the same
        directory, which then replaces ``path``, so concurrent writers never
        share a half-written file.

        The table never shrinks on disk: a longer file at ``path`` that loads
        cleanly is left in place (a shorter one costs only a line count).  A
        writer whose replace lands between that check and this one's is lost.
        """
        with self._lock:
            snapshot = list(self._values)
        path = Path(path)
        if _line_count(path) > len(snapshot):
            try:
                self.load(path)
                return
            except (CacheCorruptionError, OSError):
                pass
        import tempfile  # only a save pays for the import

        text = "".join(f"{i} {format_rational(v)}\n" for i, v in enumerate(snapshot))
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str | Path) -> BernoulliCache:
        """Load a persisted table, rejecting anything inconsistent.

        The file must be ASCII, one ``<index> <num>/<den>`` line per index
        with one space and a ``\\n`` line end (the last line may lack it),
        indices must be contiguous from 0, entry 0 must be 1/1, and the
        identity sum_{i<=n} C(n+1, i) B_i = 0 is re-checked for the top three
        indices to catch silently corrupted values.
        """
        try:
            lines = Path(path).read_bytes().decode("ascii").split("\n")
        except UnicodeDecodeError as exc:
            raise CacheCorruptionError(f"{path}: byte {exc.start} is not ASCII") from exc
        if not lines[-1]:
            lines.pop()  # the newline ending the last line
        if not lines:
            raise CacheCorruptionError(f"{path}: cache file is empty")
        values: list[Fraction] = []
        for lineno, line in enumerate(lines):
            index, space, text = line.partition(" ")
            if not space:
                raise CacheCorruptionError(
                    f"{path}:{lineno + 1}: expected '<index> <num>/<den>'"
                )
            if index != str(lineno):
                raise CacheCorruptionError(
                    f"{path}:{lineno + 1}: expected index {lineno}, got {index!r}"
                )
            try:
                value = parse_rational(text)
            except ValueError as exc:
                raise CacheCorruptionError(f"{path}:{lineno + 1}: {exc}") from exc
            values.append(value)
        if values[0] != 1:
            raise CacheCorruptionError(f"{path}: index 0 must hold 1/1")
        for n in range(len(values) - 1, max(len(values) - 4, 0), -1):
            if _recurrence_sum(values, n) != 0:
                raise CacheCorruptionError(
                    f"{path}: recurrence identity fails at index {n}"
                )
        cache = cls()
        cache._values = values
        return cache


def _line_count(path: Path) -> int:
    """Lines in the file at path, 0 if it cannot be read."""
    try:
        data = path.read_bytes()
    except OSError:
        return 0
    lines = data.count(b"\n")
    return lines + 1 if data and not data.endswith(b"\n") else lines


def _tangent_numbers(count: int) -> list[int]:
    """[0, T_1, ..., T_count]: Brent and Harvey's Algorithm TangentNumbers."""
    t = [0] * (count + 1)
    if count:
        t[1] = 1
    for j in range(2, count + 1):
        t[j] = (j - 1) * t[j - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _recurrence_sum(values, n: int) -> Fraction:
    """sum_{i=0}^{n} C(n+1, i) values[i]: zero for Bernoulli numbers, n >= 1.

    The binomials are built by the multiplicative rule, one exact integer
    step per term, rather than by a fresh ``comb`` each.
    """
    total, weight = Fraction(0), 1
    for i in range(n + 1):
        total += weight * values[i]
        weight = weight * (n + 1 - i) // (i + 1)
    return total


_shared_cache = BernoulliCache()


def _table(cache: BernoulliCache | None) -> BernoulliCache:
    """The given table, or the process-wide one for None."""
    return cache if cache is not None else _shared_cache


def _reuse_last(k: int, cache: BernoulliCache | None, build):
    """build(k, table) for the table that cache names, unless the last call
    on that table had the same k: then that call's result, unbuilt.

    A factored form followed by its checks asks for one S^k several times
    in a row, so one slot per table is enough.  The table's entries never
    change, so the slot never goes stale, and one tuple assignment replaces
    it whole, so concurrent readers see one pair or the other.  Only an
    ``int`` k is served from the slot, so a float k fails in build as it
    would unmemoized.
    """
    table = _table(cache)
    last = table._last_sk
    if last is not None and last[0] == k and type(k) is int:
        return last[1]
    result = build(k, table)
    table._last_sk = (k, result)
    return result


def bernoulli(n: int, cache: BernoulliCache | None = None) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention).

    >>> bernoulli(12)
    Fraction(-691, 2730)
    """
    return _table(cache)[n]


def bernoulli_range(
    max_index: int, cache: BernoulliCache | None = None
) -> list[Fraction]:
    """[B_0, ..., B_max_index], computed in one pass."""
    target = _table(cache)
    target[max_index]
    return [target[i] for i in range(max_index + 1)]


def recurrence_residual(n: int, cache: BernoulliCache | None = None) -> Fraction:
    """sum_{i=0}^{n} C(n+1, i) B_i, which is exactly zero for every n >= 1.

    Exposed as an operation so the identity behind the recurrence can be
    asserted directly.  n = 0 is rejected: there the sum collapses to
    B_0 = 1 and the identity does not apply.
    """
    if n < 1:
        raise ValueError("the identity requires n >= 1 (at n = 0 the sum is B_0 = 1)")
    target = _table(cache)
    target[n]
    return _recurrence_sum(target, n)
