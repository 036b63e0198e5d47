import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import powersums
from powersums import cli
from powersums.analysis import CLAIMS, check_claim
from powersums.bernoulli import BernoulliCache, bernoulli, recurrence_residual
from powersums.cli import default_cache_path, main
from powersums.exact_arith import format_exact, parse_int
from powersums.faulhaber import faulhaber_poly, poly_from_json
from powersums.polynomial import X


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBernoulliCommand:
    def test_plain_table(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "--max", "4", "--cache", "none")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert "B_4 = -1/30" in lines
        assert "B_3 = 0" in lines

    def test_json_single_entry(self, capsys):
        code, out, _ = run(
            capsys, "bernoulli", "--max", "0", "--format", "json", "--cache", "none"
        )
        assert code == 0
        assert out.strip() == '[{"n":0,"value":"1/1"}]'

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "bernoulli", "--max", "12", "--format", "json", "--cache", "none"
        )
        entries = json.loads(out)
        assert entries[12] == {"n": 12, "value": "-691/2730"}

    def test_latex(self, capsys):
        code, out, _ = run(
            capsys, "bernoulli", "--max", "22", "--format", "latex", "--cache", "none"
        )
        assert code == 0
        assert "B_{22} = \\frac{854513}{138}" in out.splitlines()
        assert "B_{12} = -\\frac{691}{2730}" in out.splitlines()


class TestFaulhaberCommand:
    def test_factored_single(self, capsys):
        code, out, _ = run(
            capsys, "faulhaber", "3", "--factored", "--cache", "none"
        )
        assert code == 0
        assert out.strip() == "S_n^3 = 1/4 n^2(n+1)^2"

    @pytest.mark.parametrize("argv, ks", [
        (["30"], [30]),
        (["--range", "0..12"], list(range(13))),
    ])
    def test_factored_builds_each_p_once(self, capsys, p_poly_calls, argv, ks):
        code, _, _ = run(capsys, "faulhaber", *argv, "--factored", "--cache", "none")
        assert code == 0
        assert p_poly_calls == ks

    def test_k0(self, capsys):
        code, out, _ = run(capsys, "faulhaber", "0", "--cache", "none")
        assert code == 0
        assert out.strip() == "S_n^0 = n"

    def test_range_emits_nine_lines(self, capsys):
        code, out, _ = run(
            capsys, "faulhaber", "--range", "13..21", "--cache", "none"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9
        for k, line in zip(range(13, 22), lines):
            assert line.startswith(f"S_n^{k} = ")

    def test_range_may_start_at_zero(self, capsys):
        code, out, _ = run(capsys, "faulhaber", "--range", "0..2", "--cache", "none")
        assert code == 0
        assert out.splitlines()[0] == "S_n^0 = n"

    def test_latex_output(self, capsys):
        code, out, _ = run(
            capsys, "faulhaber", "10", "--format", "latex", "--cache", "none"
        )
        assert code == 0
        assert out.strip().startswith("S_n^{10} = \\frac{1}{66} (6n^{11}")

    def test_json_round_trips_through_schema(self, capsys, cache):
        code, out, _ = run(
            capsys, "faulhaber", "7", "--format", "json", "--cache", "none"
        )
        entry = json.loads(out)
        assert entry["k"] == 7
        assert poly_from_json(entry) == faulhaber_poly(7, cache)

    def test_range_json_is_a_list(self, capsys, cache):
        code, out, _ = run(
            capsys, "faulhaber", "--range", "2..4", "--format", "json",
            "--cache", "none",
        )
        entries = json.loads(out)
        assert [e["k"] for e in entries] == [2, 3, 4]
        assert poly_from_json(entries[1]) == faulhaber_poly(3, cache)

    def test_requires_exactly_one_selector(self, capsys):
        code, _, err = run(capsys, "faulhaber", "--cache", "none")
        assert code == 2
        assert "exactly one" in err
        code, _, err = run(
            capsys, "faulhaber", "3", "--range", "5..7", "--cache", "none"
        )
        assert code == 2

    def test_bad_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["faulhaber", "--range", "7..3", "--cache", "none"])
        assert excinfo.value.code == 2

    # S^k plus an extra term that vanishes at some of n = 0..50: the check
    # must report the first n where it does not.
    @pytest.mark.parametrize("extra, bad", [
        (math.prod(X - j for j in range(1, 51)), 0),  # wrong only at n = 0
        (math.prod(X - j for j in range(7)) * Fraction(1, 5040), 7),
    ], ids=["only-at-0", "from-7"])
    def test_check_reports_the_first_wrong_n(self, capsys, monkeypatch, extra, bad):
        real = cli.faulhaber_poly
        monkeypatch.setattr(cli, "faulhaber_poly", lambda k, cache=None: real(k, cache) + extra)
        code, out, err = run(capsys, "faulhaber", "5", "--cache", "none")
        assert (code, out) == (1, "")
        assert err == (
            "internal error: closed form for k=5 disagrees with direct summation "
            f"at n={bad}\n"
        )


class TestSumCommand:
    def test_closed_default(self, capsys):
        code, out, _ = run(capsys, "sum", "10", "2", "--cache", "none")
        assert (code, out.strip()) == (0, "385")

    def test_zero_terms(self, capsys):
        code, out, _ = run(capsys, "sum", "0", "5", "--cache", "none")
        assert (code, out.strip()) == (0, "0")

    def test_naive_path(self, capsys):
        code, out, _ = run(capsys, "sum", "10", "2", "--naive", "--cache", "none")
        assert (code, out.strip()) == (0, "385")

    def test_check_mode_large(self, capsys):
        code, out, _ = run(
            capsys, "sum", "1000000", "20", "--check", "--cache", "none"
        )
        assert code == 0
        value = int(out.strip())
        assert len(str(value)) == 125
        assert value % 10**6 == 300000

    def test_naive_guard_requires_force(self, capsys):
        code, _, err = run(
            capsys, "sum", "100000001", "2", "--naive", "--cache", "none"
        )
        assert code == 2
        assert "--force" in err

    def test_guard_does_not_apply_to_closed(self, capsys):
        code, out, _ = run(capsys, "sum", "100000001", "2", "--cache", "none")
        assert code == 0
        n = 100000001
        assert int(out.strip()) == n * (n + 1) * (2 * n + 1) // 6


    def test_result_past_the_int_str_digit_limit(self, capsys):
        n = 10**1100
        code, out, _ = run(capsys, "sum", str(n), "3", "--cache", "none")
        assert code == 0
        expected = (n * (n + 1) // 2) ** 2  # Nicomachus: S^3 = S^1 squared
        assert len(out.strip()) > 4300
        assert parse_int(out.strip()) == expected

    def test_argument_past_the_int_str_digit_limit(self, capsys):
        n = 10**5000 + 7
        code, out, _ = run(capsys, "sum", format_exact(n), "1", "--cache", "none")
        assert code == 0
        assert parse_int(out.strip()) == n * (n + 1) // 2


class TestVerifyCommand:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--max-n", "30", "--max-k", "8", "--cache", "none"
        )
        assert code == 0
        assert "all checks passed" in out

    def test_degenerate_grid_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--max-n", "0", "--max-k", "0", "--cache", "none"
        )
        assert code == 0

    @pytest.mark.parametrize("problem", sorted(CLAIMS))
    def test_remultiplication_catches_a_wrong_quotient(self, capsys, monkeypatch, problem):
        # A report that claims to divide but whose quotient is off by one.
        def skewed(p, k, cache=None):
            report = check_claim(p, k, cache)
            if p != problem:
                return report
            return report._replace(quotient=report.quotient + 1)

        monkeypatch.setattr(cli, "check_claim", skewed)
        code, out, _ = run(capsys, "verify", "--max-n", "5", "--max-k", "4", "--cache", "none")
        claim = CLAIMS[problem]
        assert code == 1
        assert out.splitlines()[-1] == (
            f"FAIL divisibility by {claim.label} at exponent {claim.exponent(1)}"
        )

    PASSED = [
        "power sums        30 comparisons ok",
        "recurrence        4 identities ok",
        "telescoping       5 identities ok",
    ]

    # One broken check per suite: the suites before it report, it prints
    # its FAIL line, and nothing after it runs.
    @pytest.mark.parametrize("name, broken, passed, fail", [
        ("power_sum_closed",
         lambda real: lambda n, k, cache=None: real(n, k, cache) + ((n, k) == (3, 2)),
         0, "FAIL power sum at n=3, k=2: closed 15 != 14"),
        ("recurrence_residual",
         lambda real: lambda n, cache=None: real(n, cache) + (n == 3),
         1, "FAIL recurrence identity at n=3"),
        ("telescope_residual",
         lambda real: lambda k, cache=None: real(k, cache) + (k == 2),
         2, "FAIL telescoping identity at k=2"),
        ("bernoulli",
         lambda real: lambda n, cache=None: real(n, cache) + (n == 7),
         3, "FAIL odd-index zero at index 7"),
    ], ids=["power_sum_closed", "recurrence_residual", "telescope_residual", "bernoulli"])
    def test_each_suite_reports_its_first_failure(
        self, capsys, monkeypatch, name, broken, passed, fail
    ):
        monkeypatch.setattr(cli, name, broken(getattr(cli, name)))
        code, out, err = run(capsys, "verify", "--max-n", "5", "--max-k", "4", "--cache", "none")
        assert (code, err) == (1, "")
        assert out.splitlines() == [*self.PASSED[:passed], fail]


class TestBenchCommand:
    def test_reports_and_agrees(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--n", "2000", "--k", "5", "--iters", "2",
            "--cache", "none",
        )
        assert code == 0
        assert "values agree: yes" in out
        assert "speedup:" in out

    def test_degenerate_size_still_agrees(self, capsys):
        # at n=1 the closed form has no speed advantage, but it must agree
        code, out, _ = run(
            capsys, "bench", "--n", "1", "--k", "1", "--iters", "1",
            "--cache", "none",
        )
        assert code == 0
        assert "values agree: yes" in out


class TestDivideCommand:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "divide", "4", "2", "--cache", "none")
        assert code == 0
        assert "divides   : yes" in out
        assert "quotient  : 1/30 (3n^2 + 3n - 1)" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "divide", "3", "3", "--format", "json", "--cache", "none"
        )
        data = json.loads(out)
        assert data["k"] == 7
        assert data["divides"] is True
        assert data["quotient"]["coeffs"] == ["3", "6", "-1", "-4", "2"]

    def test_invalid_k_fails(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["divide", "2", "0", "--cache", "none"])
        assert excinfo.value.code == 2


class TestSweepCommand:
    def test_pair_divisor_hits(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--max-n", "6", "--max-k", "6", "--divisor", "p2",
            "--format", "json", "--cache", "none",
        )
        data = json.loads(out)
        assert data["divisor"] == "n(n+1)"
        assert data["hits"] == [
            {"n": 3, "k": 3},
            {"n": 3, "k": 5},
            {"n": 4, "k": 3},
            {"n": 4, "k": 5},
        ]

    def test_latex_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--max-n", "3", "--max-k", "3", "--format", "latex",
                  "--cache", "none"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'latex'" in capsys.readouterr().err

    def test_triple_divisor_empty(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--max-n", "6", "--max-k", "8", "--cache", "none"
        )
        assert code == 0
        assert "0 of" in out


# (argv, entries of B the command reads): faulhaber up to the top of its
# range, verify up to the odd index 2 max_k + 1, sweep up to max_k.
FRESH_TABLE_RUNS = [
    pytest.param(["faulhaber", "--range", "0..40"], 41, id="faulhaber"),
    pytest.param(["verify", "--max-n", "30", "--max-k", "8"], 18, id="verify"),
    pytest.param(["sweep", "--max-n", "5", "--max-k", "20"], 21, id="sweep"),
]


class TestOneTableExtension:
    # Each command reads its largest Bernoulli index first, so a fresh
    # table is built by one run of the tangent triangle, not one per index.
    @pytest.mark.parametrize("argv, length", FRESH_TABLE_RUNS)
    def test_fresh_table_is_built_once(self, capsys, tangent_calls, argv, length):
        code, _, _ = run(capsys, *argv, "--cache", "none")
        assert code == 0
        assert tangent_calls == [(length - 1) // 2]

    @pytest.mark.parametrize("argv, length", FRESH_TABLE_RUNS)
    def test_saved_table_ends_at_the_largest_index_read(self, capsys, tmp_path, argv, length):
        path = tmp_path / "bern.cache"
        code, _, _ = run(capsys, *argv, "--cache", str(path))
        assert code == 0
        assert len(BernoulliCache.load(path)) == length

    def test_degenerate_verify_grows_nothing(self, capsys, tmp_path):
        path = tmp_path / "bern.cache"
        code, _, _ = run(capsys, "verify", "--max-n", "3", "--max-k", "0", "--cache", str(path))
        assert code == 0
        assert not path.exists()


class TestCachePersistence:
    def test_written_and_reloaded(self, capsys, tmp_path):
        path = tmp_path / "bern.cache"
        code, _, _ = run(capsys, "bernoulli", "--max", "10", "--cache", str(path))
        assert code == 0
        assert path.exists()
        first = path.read_text()
        # second run extends the table and rewrites the file
        code, _, _ = run(capsys, "bernoulli", "--max", "14", "--cache", str(path))
        assert code == 0
        assert path.read_text().startswith(first)
        loaded = BernoulliCache.load(path)
        assert len(loaded) == 15

    def test_not_rewritten_when_nothing_new(self, capsys, tmp_path):
        path = tmp_path / "bern.cache"
        run(capsys, "bernoulli", "--max", "10", "--cache", str(path))
        stamp = path.stat().st_mtime_ns
        run(capsys, "bernoulli", "--max", "5", "--cache", str(path))
        assert path.stat().st_mtime_ns == stamp

    def test_corrupt_cache_aborts(self, capsys, tmp_path):
        path = tmp_path / "bern.cache"
        run(capsys, "bernoulli", "--max", "10", "--cache", str(path))
        lines = path.read_text().splitlines()
        lines[5] = "5 1/3"
        path.write_text("".join(line + "\n" for line in lines))
        code, _, err = run(
            capsys, "verify", "--max-n", "5", "--max-k", "3", "--cache", str(path)
        )
        assert code == 1
        assert "corrupt" in err

    def test_non_ascii_cache_is_corrupt_not_a_traceback(self, capsys, tmp_path):
        path = tmp_path / "bern.cache"
        path.write_bytes(b"0 1/1\n1 \xff\xfe/2\n")
        code, out, err = run(capsys, "sum", "10", "3", "--cache", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: corrupt cache: {path}: byte 8 is not ASCII\n"

    def test_leading_zero_in_cache_value_is_corrupt(self, capsys, tmp_path):
        path = tmp_path / "bern.cache"
        path.write_text("0 1/1\n1 -01/2\n")
        code, out, err = run(capsys, "sum", "10", "3", "--cache", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: corrupt cache: {path}:2: not a rational literal")

    def test_reader_closing_the_pipe_early(self, tmp_path):
        # 800 entries print about 250 kB, more than a pipe holds, so the
        # writer is still printing when the reader goes away.
        path = tmp_path / "bern.cache"
        src = str(Path(powersums.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "powersums.cli", "bernoulli", "--max", "800",
             "--cache", str(path)],
            env=dict(os.environ, PYTHONPATH=pythonpath),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"B_0 = 1\n"
        proc.stdout.close()
        try:
            err = proc.stderr.read()
        finally:
            proc.stderr.close()
            proc.wait(timeout=60)
        assert err == b""
        assert proc.returncode == 1
        assert len(BernoulliCache.load(path)) == 801

    def test_entries_past_the_int_str_digit_limit(self, capsys, tmp_path):
        # Numerators pass 4300 digits from B_2064 on.
        path = tmp_path / "bern.cache"
        code, out, _ = run(capsys, "bernoulli", "--max", "2200", "--cache", str(path))
        assert code == 0
        assert out.count("\n") == 2201
        loaded = BernoulliCache.load(path)
        assert len(loaded) == 2201
        assert len(format_exact(bernoulli(2200, loaded).numerator)) > 4300
        bernoulli(2202, loaded)
        assert len(loaded) == 2203
        assert recurrence_residual(2201, loaded) == 0
        assert recurrence_residual(2202, loaded) == 0

    def test_default_path_honors_xdg(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CONFIG_HOME", str(tmp_path))
        assert default_cache_path() == tmp_path / "powersums" / "bernoulli.cache"
        code, _, _ = run(capsys, "bernoulli", "--max", "6")
        assert code == 0
        assert (tmp_path / "powersums" / "bernoulli.cache").exists()

    @pytest.mark.parametrize("root", ["conf", "./conf", ""])
    def test_relative_xdg_config_home_is_ignored(self, tmp_path, monkeypatch, root):
        # The XDG Base Directory spec: a relative path is invalid and ignored.
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("XDG_CONFIG_HOME", root)
        assert default_cache_path() == tmp_path / ".config" / "powersums" / "bernoulli.cache"

    def test_shared_across_commands(self, capsys, tmp_path, cache):
        path = tmp_path / "bern.cache"
        run(capsys, "faulhaber", "8", "--cache", str(path))
        loaded = BernoulliCache.load(path)
        assert bernoulli(8, loaded) == bernoulli(8, cache)


class TestUnexpectedErrors:
    # Anything a command raises ends in one stderr line and exit 1, and the
    # table it grew is not saved.
    @pytest.mark.parametrize("exc, line", [
        (ArithmeticError("closed form produced a non-integer 7/2 at n=10, k=5"),
         "error: closed form produced a non-integer 7/2 at n=10, k=5"),
        (MemoryError(), "error: MemoryError"),
        (KeyboardInterrupt(), "error: interrupted"),
    ], ids=["ArithmeticError", "MemoryError", "KeyboardInterrupt"])
    def test_one_line_exit_1_and_no_save(self, capsys, monkeypatch, tmp_path, exc, line):
        real = cli.power_sum_closed

        def failing(n, k, cache=None):
            real(n, k, cache)  # grows the table
            raise exc

        monkeypatch.setattr(cli, "power_sum_closed", failing)
        path = tmp_path / "bern.cache"
        code, out, err = run(capsys, "sum", "10", "5", "--cache", str(path))
        assert (code, out, err) == (1, "", line + "\n")
        assert not path.exists()


class TestStartup:
    def test_import_loads_no_heavy_stdlib_modules(self):
        # -S keeps site-packages hooks out, so only the package's own imports count.
        src = str(Path(powersums.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import powersums.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json', 'statistics', 'tempfile'}"
            " & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n"


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_negative_max(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bernoulli", "--max", "-3", "--cache", "none"])
        assert excinfo.value.code == 2
