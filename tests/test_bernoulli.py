import importlib
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb

import pytest

from powersums.bernoulli import (
    BernoulliCache,
    CacheCorruptionError,
    bernoulli,
    bernoulli_range,
    recurrence_residual,
)

# The thirteen classical table values B_1 .. B_24.
KNOWN_VALUES = {
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


def akiyama_tanigawa(max_index):
    """Independent oracle: a triangle-based generator for B_0..B_max.

    The triangle natively produces the B_1 = +1/2 convention; the sign of
    index 1 is flipped to match the recurrence convention used here.
    """
    row = [Fraction(0)] * (max_index + 1)
    out = []
    for m in range(max_index + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if max_index >= 1:
        out[1] = -out[1]
    return out


def paper_recurrence(max_index):
    """Independent oracle: B_0..B_max from the paper's defining recurrence

        B_0 = 1,    B_m = -(C(m+1, 0) B_0 + ... + C(m+1, m-1) B_{m-1}) / (m + 1).

    Nothing short-circuits the odd indices: their zeros emerge from the sum.
    """
    out = [Fraction(1)]
    for m in range(1, max_index + 1):
        out.append(-sum(comb(m + 1, i) * out[i] for i in range(m)) / (m + 1))
    return out


RECURRENCE_TABLE = paper_recurrence(300)
bernoulli_module = importlib.import_module("powersums.bernoulli")


class TestRecurrenceValues:
    def test_b0(self, cache):
        assert bernoulli(0, cache) == 1

    def test_known_table(self, cache):
        for n, text in KNOWN_VALUES.items():
            assert bernoulli(n, cache) == Fraction(text)

    def test_odd_index_is_zero(self, cache):
        r = bernoulli(3, cache)
        assert (r.numerator, r.denominator) == (0, 1)

    def test_matches_independent_triangle_oracle(self, cache):
        oracle = akiyama_tanigawa(60)
        for n in range(61):
            assert bernoulli(n, cache) == oracle[n]

    def test_even_index_sign_alternates(self, cache):
        for m in range(1, 51):
            value = bernoulli(2 * m, cache)
            assert (value > 0) == (m % 2 == 1)

    def test_repeated_calls_identical(self, cache):
        assert bernoulli(12, cache) is bernoulli(12, cache)

    def test_determinism_across_caches(self):
        a = BernoulliCache()
        b = BernoulliCache()
        assert bernoulli_range(40, a) == bernoulli_range(40, b)

    def test_negative_index_rejected(self, cache):
        with pytest.raises(ValueError):
            bernoulli(-1, cache)


class TestIndependentReferences:
    def test_equals_paper_recurrence_up_to_300(self, cache):
        assert bernoulli_range(300, cache) == RECURRENCE_TABLE
        # The odd-index zeros match ones the recurrence produced on its own.
        for m in range(3, 301, 2):
            value = RECURRENCE_TABLE[m]
            assert (value.numerator, value.denominator) == (0, 1)

    def test_equals_sympy_up_to_1000(self, cache):
        sympy = pytest.importorskip("sympy")
        ours = bernoulli_range(1000, cache)
        for n, value in enumerate(ours):
            reference = sympy.bernoulli(n)
            expected = Fraction(int(reference.p), int(reference.q))
            # sympy uses B_1 = +1/2; this package uses -1/2.
            assert value == (-expected if n == 1 else expected), n


class TestGrowth:
    def test_incremental_equals_one_shot(self):
        grown = BernoulliCache()
        for n in (0, 5, 6, 200, 201):
            bernoulli(n, grown)
            assert len(grown) == n + 1
        assert bernoulli_range(201, grown) == bernoulli_range(201, BernoulliCache())
        assert bernoulli_range(201, grown) == RECURRENCE_TABLE[:202]

    def test_loaded_prefix_extends_like_one_shot(self, cache, tmp_path):
        bernoulli(37, cache)
        path = tmp_path / "bernoulli.cache"
        cache.save(path)
        loaded = BernoulliCache.load(path)
        assert bernoulli_range(250, loaded) == RECURRENCE_TABLE[:251]

    def _tangent_counts(self, monkeypatch):
        counts = []
        real = bernoulli_module._tangent_numbers

        def recording(count):
            counts.append(count)
            return real(count)

        monkeypatch.setattr(bernoulli_module, "_tangent_numbers", recording)
        return counts

    def test_odd_only_extension_computes_no_tangent_numbers(self, cache, monkeypatch):
        bernoulli(6, cache)
        counts = self._tangent_counts(monkeypatch)
        assert bernoulli(7, cache) == 0
        assert bernoulli(1, BernoulliCache()) == Fraction(-1, 2)
        assert all(count == 0 for count in counts)

    def test_extension_stops_at_largest_missing_even_index(self, cache, monkeypatch):
        bernoulli(6, cache)
        counts = self._tangent_counts(monkeypatch)
        bernoulli(9, cache)
        assert counts == [4]
        assert len(cache) == 10


class TestRange:
    def test_small(self, cache):
        assert bernoulli_range(2, cache) == [1, Fraction(-1, 2), Fraction(1, 6)]

    def test_single(self, cache):
        assert bernoulli_range(0, cache) == [1]

    def test_index_14(self, cache):
        assert bernoulli_range(14, cache)[14] == Fraction(7, 6)


class TestRecurrenceResidual:
    def test_n1(self, cache):
        assert recurrence_residual(1, cache) == 0

    @pytest.mark.parametrize("n", [5, 40])
    def test_vanishes(self, cache, n):
        assert recurrence_residual(n, cache) == 0

    def test_vanishes_up_to_100(self, cache):
        for n in range(1, 101):
            assert recurrence_residual(n, cache) == 0

    def test_against_oracle_values(self):
        # Same sum, but over the triangle oracle's values instead of ours.
        oracle = akiyama_tanigawa(40)
        for n in range(1, 41):
            assert sum(comb(n + 1, i) * oracle[i] for i in range(n + 1)) == 0

    def test_n0_rejected(self, cache):
        with pytest.raises(ValueError):
            recurrence_residual(0, cache)


class TestConcurrency:
    def test_concurrent_reads_match_sequential(self):
        shared = BernoulliCache()
        indices = [80, 17, 64, 3, 77, 50, 80, 29, 41, 66, 12, 55]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda n: bernoulli(n, shared), indices))
        reference = BernoulliCache()
        assert results == [bernoulli(n, reference) for n in indices]
        assert bernoulli_range(80, shared) == bernoulli_range(80, reference)


    def test_concurrent_extension_only_appends(self):
        shared = BernoulliCache()
        done = threading.Event()
        observed = {"snapshots": 0, "violations": 0}
        last: list = []

        def walk(first, stride):
            # Each worker grows the table in its own steps, so extensions
            # from different threads interleave.
            return [bernoulli(n, shared) for n in [*range(first, 300, stride), 300]]

        def observe():
            nonlocal last
            while not done.is_set():
                snapshot = list(shared._values)
                if len(snapshot) < len(last) or any(
                    a is not b for a, b in zip(last, snapshot)
                ):
                    observed["violations"] += 1
                observed["snapshots"] += 1
                last = snapshot

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            observer = threading.Thread(target=observe)
            observer.start()
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [
                    pool.submit(walk, first, stride)
                    for first, stride in ((1, 7), (2, 11), (5, 13), (3, 17), (0, 19), (4, 23))
                ]
                results = [f.result(timeout=60) for f in futures]
        finally:
            done.set()
            sys.setswitchinterval(old_interval)
        observer.join(timeout=60)
        assert not observer.is_alive()
        final = shared._values
        assert final == RECURRENCE_TABLE
        assert results[0] == [*RECURRENCE_TABLE[1:300:7], RECURRENCE_TABLE[300]]
        assert observed["snapshots"] > 0
        assert observed["violations"] == 0
        assert all(a is b for a, b in zip(last, final))


class TestPersistence:
    def test_round_trip(self, cache, tmp_path):
        bernoulli(20, cache)
        path = tmp_path / "bernoulli.cache"
        cache.save(path)
        loaded = BernoulliCache.load(path)
        assert len(loaded) == len(cache)
        assert bernoulli_range(20, loaded) == bernoulli_range(20, cache)

    def test_file_format(self, cache, tmp_path):
        bernoulli(2, cache)
        path = tmp_path / "bernoulli.cache"
        cache.save(path)
        assert path.read_text() == "0 1/1\n1 -1/2\n2 1/6\n"

    def test_truncated_but_consistent_prefix_loads(self, cache, tmp_path):
        bernoulli(12, cache)
        path = tmp_path / "bernoulli.cache"
        cache.save(path)
        lines = path.read_text().splitlines()[:6]
        path.write_text("".join(line + "\n" for line in lines))
        assert len(BernoulliCache.load(path)) == 6

    def _save(self, tmp_path, text):
        path = tmp_path / "bernoulli.cache"
        path.write_text(text)
        return path

    def test_rejects_tampered_value(self, cache, tmp_path):
        bernoulli(12, cache)
        path = tmp_path / "bernoulli.cache"
        cache.save(path)
        lines = path.read_text().splitlines()
        lines[6] = "6 1/43"  # close to the true value, still caught
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(CacheCorruptionError):
            BernoulliCache.load(path)

    def test_rejects_gap_in_indices(self, tmp_path):
        path = self._save(tmp_path, "0 1/1\n2 1/6\n")
        with pytest.raises(CacheCorruptionError):
            BernoulliCache.load(path)

    def test_rejects_wrong_first_entry(self, tmp_path):
        path = self._save(tmp_path, "0 1/2\n")
        with pytest.raises(CacheCorruptionError):
            BernoulliCache.load(path)

    def test_rejects_unreduced_fraction(self, tmp_path):
        path = self._save(tmp_path, "0 1/1\n1 -2/4\n")
        with pytest.raises(CacheCorruptionError):
            BernoulliCache.load(path)

    def test_rejects_leading_zero(self, tmp_path):
        # -01/2 is the right value, B_1, spelled non-canonically.
        path = self._save(tmp_path, "0 1/1\n1 -01/2\n")
        with pytest.raises(CacheCorruptionError, match="not a rational literal"):
            BernoulliCache.load(path)

    def test_rejects_garbage(self, tmp_path):
        path = self._save(tmp_path, "0 1/1\nhello world\n")
        with pytest.raises(CacheCorruptionError):
            BernoulliCache.load(path)

    def test_rejects_empty_file(self, tmp_path):
        path = self._save(tmp_path, "")
        with pytest.raises(CacheCorruptionError):
            BernoulliCache.load(path)

    # Not UTF-8; and Arabic-Indic digits, which int() reads as -1/2 and 2.
    @pytest.mark.parametrize("data", [
        b"0 1/1\n1 \xff\xfe/2\n",
        "0 1/1\n1 -\u0661/2\n\u0662 1/6\n".encode(),
    ])
    def test_rejects_non_ascii(self, tmp_path, data):
        path = tmp_path / "bernoulli.cache"
        path.write_bytes(data)
        with pytest.raises(CacheCorruptionError, match="not ASCII"):
            BernoulliCache.load(path)

    @pytest.mark.parametrize("index", ["+1", "01", "1_0", "1.0"])
    def test_rejects_non_canonical_index(self, tmp_path, index):
        path = self._save(tmp_path, f"0 1/1\n{index} -1/2\n")
        with pytest.raises(CacheCorruptionError, match="expected index 1"):
            BernoulliCache.load(path)

    # A valid 7-entry table with its spacing changed; whitespace-splitting
    # would still read 7 entries from each.
    @pytest.mark.parametrize("respace", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace(" ", "\t"),
        lambda text: text.replace(" ", "  "),
        lambda text: "".join(f" {line} \n" for line in text.splitlines()),
        lambda text: text.replace("\n", "\f"),
    ], ids=["crlf", "tab", "double-space", "padded", "form-feed"])
    def test_rejects_non_canonical_spacing(self, cache, tmp_path, respace):
        bernoulli(6, cache)
        path = tmp_path / "bernoulli.cache"
        cache.save(path)
        path.write_bytes(respace(path.read_text()).encode())
        with pytest.raises(CacheCorruptionError):
            BernoulliCache.load(path)

    def test_unterminated_last_line_loads(self, cache, tmp_path):
        bernoulli(6, cache)
        path = tmp_path / "bernoulli.cache"
        cache.save(path)
        path.write_text(path.read_text().rstrip("\n"))
        assert len(BernoulliCache.load(path)) == 7

    def test_save_never_shrinks_a_longer_valid_file(self, cache, tmp_path):
        path = tmp_path / "bernoulli.cache"
        bernoulli(200, cache)
        cache.save(path)
        first, second = BernoulliCache.load(path), BernoulliCache.load(path)
        bernoulli(300, second)
        second.save(path)
        bernoulli(205, first)
        first.save(path)
        assert len(BernoulliCache.load(path)) == 301

    def test_save_replaces_a_longer_corrupt_file(self, cache, tmp_path):
        path = tmp_path / "bernoulli.cache"
        bernoulli(12, cache)
        cache.save(path)
        lines = path.read_text().splitlines()
        lines[12] = "12 1/2"
        path.write_text("".join(line + "\n" for line in lines))
        short = BernoulliCache()
        bernoulli(6, short)
        short.save(path)
        assert len(BernoulliCache.load(path)) == 7

    def test_save_leaves_a_foreign_tmp_file_alone(self, cache, tmp_path):
        bernoulli(4, cache)
        path = tmp_path / "bernoulli.cache"
        other = tmp_path / "bernoulli.cache.tmp"
        other.write_text("another writer's half-written table")
        cache.save(path)
        assert other.read_text() == "another writer's half-written table"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bernoulli.cache",
            "bernoulli.cache.tmp",
        ]
        assert len(BernoulliCache.load(path)) == 5

    def test_failed_replace_leaves_no_tmp_file(self, cache, tmp_path, monkeypatch):
        bernoulli(4, cache)
        path = tmp_path / "bernoulli.cache"

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            cache.save(path)
        assert list(tmp_path.iterdir()) == []
