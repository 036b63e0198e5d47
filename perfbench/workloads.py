"""The benchmark's four workloads.

Each workload stresses one layer of powersums and leaves the others cheap:

* ``bernoulli-cold``: L0, the O(m^2) Fraction recurrence, on fresh tables.
* ``eval-grid``: L1/L2, building and evaluating S^k with a warm table.
* ``poly-algebra``: L3, shift, divmod and multiply on distinct k.
* ``cli-session``: L4, process start, cache load/validate/save, formatting.

A workload builds a starting state (timed as set-up), then yields an
endless seeded stream of inputs.  ``expect`` prepares what an op's output
is checked against and is not timed; ``run`` is the op and is timed;
``check`` compares, untimed.  Every op passes an explicit BernoulliCache,
never the module's shared one, and the CLI always gets ``--cache``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

from oracle import Oracle, json_poly


def balanced_order(rng, values) -> list:
    """Every value once, in a seeded order whose every prefix samples the
    whole range evenly: the two halves of ``values`` alternate, and so,
    recursively, do the halves of each half.  A time-bounded run then
    sees the same mix of input sizes whatever the seed and wherever the
    time runs out."""
    if len(values) <= 1:
        return list(values)
    mid = len(values) // 2
    halves = [balanced_order(rng, values[:mid]), balanced_order(rng, values[mid:])]
    rng.shuffle(halves)
    return [v for pair in zip_longest(*halves) for v in pair if v is not None]


def balanced_cycle(rng, values):
    """``values`` over and over, each pass in a new balanced order."""
    while True:
        yield from balanced_order(rng, values)


class Workload:
    name = ""
    why = ""
    chunk = 16  # inputs whose expected values are prepared in one untimed batch
    trace_ops = 20  # fixed op count of the traced run and of the memory probe
    tail_percentile = 90  # op_tail_ms
    # A run goes on past --seconds until it has made this many ops: ten
    # samples beyond tail_percentile, however slow the program gets.
    min_ops = 100

    def __init__(self, pkg, tmp: Path) -> None:
        self.pkg = pkg
        self.oracle = Oracle(pkg)
        self.tmp = tmp

    def new_state(self):
        """Build the starting state; its build time is ``setup_s``."""
        return None

    def inputs(self, rng, state):
        raise NotImplementedError

    def expect(self, inp):
        return None

    def run(self, inp, tracer=None):
        raise NotImplementedError

    def check(self, inp, out, expected) -> bool:
        return out == expected

    def warm_cache(self, m: int):
        cache = self.pkg.bernoulli.BernoulliCache()
        self.pkg.bernoulli.bernoulli_range(m, cache)
        return cache


class BernoulliCold(Workload):
    name = "bernoulli-cold"
    why = "first-time table build: the O(m^2) Fraction recurrence (L0) on a fresh table, as --cache none pays it"
    trace_ops = 12
    M_RANGE = range(30, 301)

    def inputs(self, rng, state):
        return balanced_cycle(rng, self.M_RANGE)

    def expect(self, m):
        return self.oracle.bernoulli_table(self.M_RANGE[-1])[: m + 1]

    def run(self, m, tracer=None):
        bern = self.pkg.bernoulli
        return bern.bernoulli_range(m, bern.BernoulliCache())


class EvalGrid(Workload):
    name = "eval-grid"
    why = "warm table, repeated k in 1..80, n of 1 to 40 digits: the S^k rebuild and Horner evaluation (L1/L2) of verify and sweep"
    chunk = 2048
    trace_ops = 2000
    tail_percentile = 99
    min_ops = 1000
    K_MAX = 80
    MAX_DIGITS = 40

    def new_state(self):
        return self.warm_cache(self.K_MAX)

    def inputs(self, rng, cache):
        while True:
            k = rng.randint(1, self.K_MAX)
            digits = rng.randint(1, self.MAX_DIGITS)
            yield cache, rng.randrange(10 ** (digits - 1), 10**digits), k

    def expect(self, inp):
        _, n, k = inp
        return self.oracle.value(k, n)

    def run(self, inp, tracer=None):
        cache, n, k = inp
        return self.pkg.faulhaber.power_sum_closed(n, k, cache)


# divisibility problem -> its divisor, ascending, and the exponent of S it divides
DIVISORS = {
    2: [0, 1, 1],  # n(n+1)
    3: [0, 0, 1, 2, 1],  # n^2(n+1)^2
    4: [0, 1, 3, 2],  # n(n+1)(2n+1)
}
EXPONENT = {2: lambda k: k, 3: lambda k: 2 * k + 1, 4: lambda k: 2 * k}


def _problems(k: int) -> list[tuple[int, int]]:
    """The divisibility problems that apply to S^k, as (problem, parameter)."""
    claims = [(2, k)]
    if k % 2 and k >= 3:
        claims.append((3, (k - 1) // 2))
    elif k % 2 == 0:
        claims.append((4, k // 2))
    return claims


class PolyAlgebra(Workload):
    name = "poly-algebra"
    why = "each k once per warm table: factored form, divisibility with re-multiplication, telescoping (L3 shift/divmod/mul)"
    chunk = 4
    K_RANGE = range(1, 181)

    def new_state(self):
        return self.warm_cache(self.K_RANGE[-1])

    def inputs(self, rng, cache):
        # Each k at most once per starting state; a new pass gets a new
        # table, so nothing one pass leaves behind helps the next.
        while True:
            for k in balanced_order(rng, self.K_RANGE):
                yield cache, k
            cache = self.new_state()

    def expect(self, inp):
        self.oracle.sk(inp[1])

    def run(self, inp, tracer=None):
        cache, k = inp
        an, fh = self.pkg.analysis, self.pkg.faulhaber
        form = an.factored_form(k, cache)
        reports = [
            getattr(an, f"check_problem{problem}")(param, cache)
            for problem, param in _problems(k)
        ]
        remultiplied = all(
            r.divisor * r.quotient == fh.faulhaber_poly(r.k, cache) for r in reports
        )
        telescoped = fh.telescope_residual(k, cache).is_zero()
        return form, reports, remultiplied, telescoped

    def check(self, inp, out, expected) -> bool:
        k = inp[1]
        form, reports, remultiplied, telescoped = out
        oracle = self.oracle
        factors = [(f.coefficients, m) for f, m in form.factors]
        return (
            remultiplied
            and telescoped
            and form.k == k
            and oracle.product_is_sk(k, form.scalar, factors)
            and [r.k for r in reports] == [k] * len(reports)
            and all(
                r.divides
                and list(r.divisor.coefficients) == DIVISORS[problem]
                and oracle.division_is_exact(
                    k, r.divisor.coefficients, r.quotient.coefficients, r.remainder.coefficients
                )
                for r, (problem, _) in zip(reports, _problems(k))
            )
        )


SWEEP_LABELS = {"p2": "n(n+1)", "p3": "n^2(n+1)^2", "p4": "n(n+1)(2n+1)"}


class CliSession(Workload):
    name = "cli-session"
    why = "sequential CLI processes on a seeded cache file, 80% reads and 20% writes: start-up, load/validate, save, formatting (L4)"
    trace_ops = 30
    M0 = 200  # entries B_0..B_M0 in the seeded cache file
    GROW = 20  # writes ask for up to GROW indices past the cached prefix
    # Printing an int of more than 4300 digits fails under Python's default
    # str() limit, which the CLI does not lift, so `sum` keeps n short
    # enough that S^k(n) stays below it for every k used here.
    SUM_DIGITS = 15
    SWEEP_MAX_N, SWEEP_MAX_K = 12, 6
    BLOCK = ("sum", "sum", "sum", "factored", "factored", "divide", "divide",
             "sweep", "write-sum", "write-faulhaber")

    def __init__(self, pkg, tmp: Path) -> None:
        super().__init__(pkg, tmp)
        (tmp / "xdg").mkdir(exist_ok=True)
        # The user's ~/.config/powersums cache must never be read or written.
        self.env = dict(
            os.environ, PYTHONPATH=str(pkg.src), XDG_CONFIG_HOME=str(tmp / "xdg"), HOME=str(tmp)
        )
        self.op_cache = tmp / "op.cache"

    def new_state(self):
        seeded = self.tmp / "seeded.cache"
        self.warm_cache(self.M0).save(seeded)
        return seeded

    def inputs(self, rng, seeded):
        # Every parameter that sets an op's cost comes from a balanced
        # stream of its own, so a run sees the same mix of costs whatever
        # its seed; the writes' growth sets the slowest tenth of the ops.
        digits = balanced_cycle(rng, range(1, self.SUM_DIGITS + 1))
        sum_k = balanced_cycle(rng, range(1, self.M0 + 1))
        factored_k = balanced_cycle(rng, range(1, 61))
        problem = balanced_cycle(rng, (2, 3, 4))
        divide_k = balanced_cycle(rng, range(1, 31))
        sweep = balanced_cycle(rng, sorted(SWEEP_LABELS))
        grow = {kind: balanced_cycle(rng, range(1, self.GROW + 1))
                for kind in ("write-sum", "write-faulhaber")}

        def n():
            d = next(digits)
            return rng.randrange(10 ** (d - 1), 10**d)

        while True:
            kinds = list(self.BLOCK)
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "sum":
                    yield seeded, kind, n(), next(sum_k)
                elif kind == "factored":
                    yield seeded, kind, next(factored_k)
                elif kind == "divide":
                    yield seeded, kind, next(problem), next(divide_k)
                elif kind == "sweep":
                    yield seeded, kind, next(sweep)
                elif kind == "write-sum":
                    yield seeded, kind, n(), self.M0 + next(grow[kind])
                else:
                    yield seeded, kind, self.M0 + next(grow[kind])

    @staticmethod
    def argv(inp) -> list[str]:
        kind, *params = inp[1:]
        if kind in ("sum", "write-sum"):
            return ["sum", str(params[0]), str(params[1])]
        if kind == "factored":
            return ["faulhaber", str(params[0]), "--factored", "--format", "json"]
        if kind == "divide":
            return ["divide", str(params[0]), str(params[1]), "--format", "json"]
        if kind == "sweep":
            return ["sweep", "--max-n", str(CliSession.SWEEP_MAX_N), "--max-k",
                    str(CliSession.SWEEP_MAX_K), "--divisor", params[0], "--format", "json"]
        return ["faulhaber", str(params[0]), "--format", "json"]

    def expect(self, inp):
        kind, *params = inp[1:]
        oracle = self.oracle
        if kind.startswith("write"):
            oracle.bernoulli_table(self.M0 + self.GROW)
        if kind in ("sum", "write-sum"):
            return oracle.value(params[1], params[0])
        if kind == "factored" or kind == "write-faulhaber":
            return oracle.sk(params[0])
        if kind == "divide":
            return oracle.sk(EXPONENT[params[0]](params[1]))
        return oracle.sweep_hits(
            DIVISORS[int(params[0][1])], self.SWEEP_MAX_N, self.SWEEP_MAX_K
        )

    def run(self, inp, tracer=None):
        argv = [*self.argv(inp), "--cache", str(self.op_cache)]
        shutil.copyfile(inp[0], self.op_cache)
        if tracer is None:
            return self._spawn(argv)
        with tracer.span("cli.process"):
            out = self._spawn(argv)
        tracer.counts["cli.nonzero_exits"] += out[0] != 0
        tracer.counts["cli.stdout_bytes"] += len(out[1].encode())
        # The same command in-process, so main()'s share of the process
        # time and the layers under it can be traced.
        shutil.copyfile(inp[0], self.op_cache)
        stdout, stderr = io.StringIO(), io.StringIO()
        with tracer.span("cli.main"), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = self.pkg.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return out if (code, stdout.getvalue()) == out[:2] else (None, "", None)

    def _spawn(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "powersums.cli", *argv],
            env=self.env, capture_output=True, text=True, timeout=120,
        )
        text = self.op_cache.read_text() if self.op_cache.exists() else None
        return proc.returncode, proc.stdout, text

    def check(self, inp, out, expected) -> bool:
        code, stdout, cache_text = out
        if code != 0:
            return False
        kind, *params = inp[1:]
        oracle = self.oracle
        if kind.startswith("write"):
            k = params[-1]
            if cache_text is None or not oracle.cache_file_ok(cache_text, k + 1):
                return False
        if kind in ("sum", "write-sum"):
            return stdout.strip() == str(expected)
        try:
            data = json.loads(stdout)
            if kind == "factored":
                factors = [(json_poly(f["poly"]), f["multiplicity"]) for f in data["factors"]]
                return data["k"] == params[0] and oracle.product_is_sk(
                    params[0], Fraction(data["scalar"]), factors
                )
            if kind == "write-faulhaber":
                return data["k"] == params[0] and oracle.product_is_sk(
                    params[0], 1, [(json_poly(data), 1)]
                )
            if kind == "divide":
                exponent = EXPONENT[params[0]](params[1])
                divisor = json_poly(data["divisor"])
                return (
                    data["k"] == exponent
                    and data["divides"] is True
                    and divisor == DIVISORS[params[0]]
                    and oracle.division_is_exact(
                        exponent, divisor, json_poly(data["quotient"]), json_poly(data["remainder"])
                    )
                )
            return data == {"divisor": SWEEP_LABELS[params[0]], "hits": expected}
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return False


WORKLOADS = {w.name: w for w in (BernoulliCold, EvalGrid, PolyAlgebra, CliSession)}
