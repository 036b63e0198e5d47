"""Command-line front end.

Subcommands: ``bernoulli`` (table), ``faulhaber`` (closed forms, single k
or a range), ``sum`` (exact evaluation by either strategy), ``verify``
(exhaustive cross-checks), ``bench`` (closed vs. naive timing), ``divide``
(polynomial divisibility reports) and ``sweep`` (value-level divisibility
search).

Exit codes are a stable contract: 0 success, 1 verification or data
failure, 2 usage error.  Computed Bernoulli numbers persist in a small
cache file between runs unless ``--cache none`` is given.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from collections.abc import Iterator
from itertools import accumulate
from pathlib import Path
from typing import Any, NamedTuple

from .analysis import (
    CLAIMS,
    check_claim,
    factored_form,
    factored_to_json,
    format_factored,
    report_to_json,
    value_divisibility,
)
from .bernoulli import (
    BernoulliCache,
    CacheCorruptionError,
    bernoulli,
    bernoulli_range,
    recurrence_residual,
)
from .exact_arith import format_exact, format_rational, format_rational_latex, parse_int
from .faulhaber import (
    faulhaber_poly,
    format_polynomial,
    format_power_sum,
    poly_to_json,
    power_sum_closed,
    power_sum_naive,
    telescope_residual,
)

__all__ = ["BenchResult", "main", "run_benchmark"]

NAIVE_GUARD_LIMIT = 10**8

_RANGE_RE = re.compile(r"^(\d+)\.\.(\d+)$")


class BenchResult(NamedTuple):
    """Median wall times for both power-sum strategies on one (n, k)."""

    n: int
    k: int
    closed_time: float
    naive_time: float
    values_equal: bool


def _nonneg_int(text: str) -> int:
    value = parse_int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


def _pos_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _k_range(text: str) -> tuple[int, int]:
    match = _RANGE_RE.match(text)
    if match is None:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def default_cache_path() -> Path:
    """Per-user cache location, honoring $XDG_CONFIG_HOME unless it is
    relative (invalid under the XDG Base Directory spec)."""
    base = Path(os.environ.get("XDG_CONFIG_HOME", "")).expanduser()
    if not base.is_absolute():
        base = Path.home() / ".config"
    return base / "powersums" / "bernoulli.cache"


def _open_cache(choice: str | None) -> tuple[BernoulliCache, Path | None]:
    """Resolve --cache: 'none' disables persistence, default is per-user."""
    if choice == "none":
        return BernoulliCache(), None
    path = default_cache_path() if choice is None else Path(choice)
    if path.exists():
        return BernoulliCache.load(path), path
    return BernoulliCache(), path


def _format_option(*choices: str) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--format", choices=choices, default="plain", help="output format (default: plain)"
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powersums",
        description="Exact Bernoulli numbers and closed-form power sums.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cache",
        metavar="PATH",
        default=None,
        help="Bernoulli cache file ('none' disables persistence; "
        "default: a per-user config file)",
    )
    fmt = _format_option("plain", "json", "latex")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "bernoulli",
        parents=[common, fmt],
        help="print B_0..B_max",
        description="Print the Bernoulli numbers B_0..B_max, generated from "
        "integer tangent numbers in O(max^2) big-integer steps: about a "
        "second for --max 2000.",
    )
    p.add_argument("--max", type=_nonneg_int, required=True, help="largest index")
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser(
        "faulhaber",
        parents=[common, fmt],
        help="print closed-form power-sum polynomials",
        description="Print the closed-form polynomial for 1^k + ... + n^k, "
        "expanded or factored. Every polynomial is checked against direct "
        "summation at n = 0..50 before printing.",
    )
    p.add_argument("k", type=_nonneg_int, nargs="?", help="single exponent")
    p.add_argument("--range", type=_k_range, metavar="A..B", help="exponent range")
    p.add_argument("--factored", action="store_true", help="emit factored form")
    p.set_defaults(func=cmd_faulhaber)

    p = sub.add_parser(
        "sum",
        parents=[common],
        help="evaluate a power sum exactly",
        description="Evaluate 1^k + ... + n^k exactly.",
    )
    p.add_argument("n", type=_nonneg_int)
    p.add_argument("k", type=_nonneg_int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--closed", action="store_const", dest="mode", const="closed",
        help="closed form (default)",
    )
    mode.add_argument(
        "--naive", action="store_const", dest="mode", const="naive",
        help="direct summation",
    )
    mode.add_argument(
        "--check", action="store_const", dest="mode", const="check",
        help="run both and require agreement",
    )
    p.add_argument(
        "--force", action="store_true",
        help=f"allow direct summation past n = {NAIVE_GUARD_LIMIT}",
    )
    p.set_defaults(func=cmd_sum, mode="closed")

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="run the exhaustive verification suites",
        description="Cross-check the closed form against direct summation on "
        "the full (n, k) grid, plus the recurrence identity, the telescoping "
        "identity, odd-index zeros, and the polynomial divisibility suites.",
    )
    p.add_argument("--max-n", type=_nonneg_int, default=200)
    p.add_argument("--max-k", type=_nonneg_int, default=30)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "bench",
        parents=[common],
        help="time closed form vs. direct summation",
        description="Median-of-iters wall time for both strategies; aborts "
        "if the two values ever disagree.",
    )
    p.add_argument("--n", type=_pos_int, required=True)
    p.add_argument("--k", type=_nonneg_int, required=True)
    p.add_argument("--iters", type=_pos_int, default=3)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "divide",
        parents=[common, fmt],
        help="polynomial divisibility report",
        description="Divide a power-sum polynomial by its structural divisor: "
        "problem 2 is S^k / n(n+1), problem 3 is S^(2k+1) / n^2(n+1)^2, "
        "problem 4 is S^(2k) / n(n+1)(2n+1).",
    )
    p.add_argument("problem", type=int, choices=sorted(CLAIMS))
    p.add_argument("k", type=_pos_int, help="problem parameter k >= 1")
    p.set_defaults(func=cmd_divide)

    p = sub.add_parser(
        "sweep",
        parents=[common, _format_option("plain", "json")],
        help="search integer-value divisibility",
        description="Tabulate the (n, k) pairs, n <= max-n and k <= max-k, "
        "for which the chosen divisor evaluated at n divides the integer "
        "value of the power sum. Unlike the polynomial statements this holds "
        "only sporadically.",
    )
    p.add_argument("--max-n", type=_pos_int, required=True)
    p.add_argument("--max-k", type=_nonneg_int, required=True)
    p.add_argument(
        "--divisor", choices=[f"p{problem}" for problem in sorted(CLAIMS)], default="p4"
    )
    p.set_defaults(func=cmd_sweep)

    return parser


def _print_json(payload: Any) -> None:
    import json  # only JSON output pays for the import

    print(json.dumps(payload, separators=(",", ":")))


def cmd_bernoulli(args: argparse.Namespace, cache: BernoulliCache) -> int:
    values = bernoulli_range(args.max, cache)
    if args.format == "json":
        _print_json([{"n": i, "value": format_rational(v)} for i, v in enumerate(values)])
        return 0
    latex = args.format == "latex"
    for i, v in enumerate(values):
        print(f"B_{{{i}}} = {format_rational_latex(v)}" if latex
              else f"B_{i} = {format_exact(v)}")
    return 0


def _running_sums(k: int, max_n: int) -> Iterator[tuple[int, int]]:
    """(n, 1^k + ... + n^k) for n = 0..max_n, by direct summation."""
    return enumerate(accumulate((n**k for n in range(1, max_n + 1)), initial=0))


def _oracle_mismatch(poly, k: int) -> int | None:
    """First n in 0..50 where poly(n) differs from the running power sum."""
    for n, running in _running_sums(k, 50):
        if poly(n) != running:
            return n
    return None


def cmd_faulhaber(args: argparse.Namespace, cache: BernoulliCache) -> int:
    if (args.k is None) == (args.range is None):
        print("error: provide exactly one of K or --range", file=sys.stderr)
        return 2
    ks = [args.k] if args.k is not None else range(args.range[0], args.range[1] + 1)
    bernoulli_range(ks[-1], cache)  # every index the loop reads, in one extension
    style = args.format
    as_json = style == "json"
    rendered: list[str | dict] = []
    for k in ks:
        poly = faulhaber_poly(k, cache)
        bad = _oracle_mismatch(poly, k)
        if bad is not None:
            print(
                f"internal error: closed form for k={k} disagrees with direct "
                f"summation at n={bad}",
                file=sys.stderr,
            )
            return 1
        if args.factored:
            form = factored_form(k, cache)
            item = factored_to_json(form) if as_json else format_factored(form, style)
        else:
            item = poly_to_json(poly, k) if as_json else format_power_sum(k, poly, style)
        rendered.append(item)
    if as_json:
        _print_json(rendered[0] if args.k is not None else rendered)
    else:
        print("\n".join(rendered))
    return 0


def cmd_sum(args: argparse.Namespace, cache: BernoulliCache) -> int:
    runs_naive = args.mode in ("naive", "check")
    if runs_naive and args.n > NAIVE_GUARD_LIMIT and not args.force:
        print(
            f"error: direct summation past n = {NAIVE_GUARD_LIMIT} can run for "
            "a very long time; pass --force to do it anyway",
            file=sys.stderr,
        )
        return 2
    if args.mode == "naive":
        value = power_sum_naive(args.n, args.k)
    else:
        value = power_sum_closed(args.n, args.k, cache)
    if args.mode == "check":
        oracle = power_sum_naive(args.n, args.k)
        if value != oracle:
            print(
                f"MISMATCH at n={format_exact(args.n)}, k={args.k}: closed "
                f"{format_exact(value)} != naive {format_exact(oracle)}",
                file=sys.stderr,
            )
            return 1
    print(format_exact(value))
    return 0


def cmd_verify(args: argparse.Namespace, cache: BernoulliCache) -> int:
    max_n, max_k = args.max_n, args.max_k
    bernoulli_range(2 * max_k + 1 if max_k else 0, cache)  # every index the suites read
    # Each suite yields one item per check: None if it holds, else what failed.
    # A residual fails when it is nonzero.
    suites = (
        ("power sums", "comparisons", (
            f"power sum at n={n}, k={k}: closed {format_exact(closed)} != "
            f"{format_exact(running)}" if closed != running else None
            for k in range(max_k + 1)
            for n, running in _running_sums(k, max_n)
            for closed in [power_sum_closed(n, k, cache)]
        )),
        ("recurrence", "identities", (
            f"recurrence identity at n={n}" if recurrence_residual(n, cache) else None
            for n in range(1, max_k + 1)
        )),
        ("telescoping", "identities", (
            f"telescoping identity at k={k}" if telescope_residual(k, cache) else None
            for k in range(max_k + 1)
        )),
        ("odd-index zeros", "checks", (
            f"odd-index zero at index {i}" if bernoulli(i, cache) else None
            for i in range(3, 2 * max_k + 2, 2)
        )),
        ("divisibility", "divisions", (
            f"divisibility by {claim.label} at exponent {report.k}"
            if not report.divides
            or report.divisor * report.quotient != faulhaber_poly(report.k, cache)
            else None
            for problem, claim in CLAIMS.items()
            # every claim has exponent(k) >= k, so k <= max_k bounds the search
            for k in range(1, max_k + 1)
            if claim.exponent(k) <= max_k
            for report in [check_claim(problem, k, cache)]
        )),
    )
    total = 0
    for name, noun, checks in suites:
        count = 0
        for failure in checks:
            if failure is not None:
                print(f"FAIL {failure}")
                return 1
            count += 1
        print(f"{name:<17} {count} {noun} ok")
        total += count
    print(f"all checks passed ({total} total)")
    return 0


def run_benchmark(
    n: int, k: int, iters: int, cache: BernoulliCache | None = None
) -> BenchResult:
    """Median-of-iters wall times for both strategies on one (n, k)."""
    from statistics import median  # only ``bench`` pays for the import

    if n < 1 or iters < 1:
        raise ValueError("n and iters must be positive")
    cache = cache if cache is not None else BernoulliCache()
    bernoulli(k, cache)  # warm the table so timings measure evaluation only
    medians: list[float] = []
    values: set[int] = set()
    strategies = (lambda: power_sum_closed(n, k, cache), lambda: power_sum_naive(n, k))
    for strategy in strategies:
        times: list[float] = []
        for _ in range(iters):
            start = time.perf_counter()
            value = strategy()
            times.append(time.perf_counter() - start)
            values.add(value)
        medians.append(median(times))
    closed_time, naive_time = medians
    return BenchResult(n, k, closed_time, naive_time, values_equal=len(values) == 1)


def cmd_bench(args: argparse.Namespace, cache: BernoulliCache) -> int:
    result = run_benchmark(args.n, args.k, args.iters, cache)
    if not result.values_equal:
        print(
            f"MISMATCH at n={args.n}, k={args.k}: the two strategies disagree",
            file=sys.stderr,
        )
        return 1
    speedup = (
        result.naive_time / result.closed_time
        if result.closed_time > 0
        else float("inf")
    )
    print(f"n={result.n} k={result.k} iters={args.iters}")
    print(f"closed : {result.closed_time:.6g} s")
    print(f"naive  : {result.naive_time:.6g} s")
    print(f"speedup: {speedup:.3g}x")
    print("values agree: yes")
    return 0


def cmd_divide(args: argparse.Namespace, cache: BernoulliCache) -> int:
    report = check_claim(args.problem, args.k, cache)
    if args.format == "json":
        _print_json(report_to_json(report))
        return 0
    style = args.format
    print(f"exponent  : {report.k}")
    print(f"divisor   : {format_polynomial(report.divisor, style=style)}")
    print(f"divides   : {'yes' if report.divides else 'no'}")
    print(f"quotient  : {format_polynomial(report.quotient, style=style)}")
    print(f"remainder : {format_polynomial(report.remainder, style=style)}")
    return 0


def cmd_sweep(args: argparse.Namespace, cache: BernoulliCache) -> int:
    claim = CLAIMS[int(args.divisor[1:])]
    bernoulli_range(args.max_k, cache)  # every index the sweep reads, in one extension
    hits = [
        {"n": n, "k": k}
        for n in range(1, args.max_n + 1)
        for k in range(args.max_k + 1)
        if value_divisibility(n, k, claim.divisor, cache)
    ]
    if args.format == "json":
        _print_json({"divisor": claim.label, "hits": hits})
        return 0
    print(f"value divisibility by {claim.label}: {len(hits)} of "
          f"{args.max_n * (args.max_k + 1)} pairs")
    for hit in hits:
        print(f"n={hit['n']} k={hit['k']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except (Exception, KeyboardInterrupt) as exc:
        # Nothing escapes as a traceback, and a table grown before the
        # failure is not saved.
        text = "interrupted" if isinstance(exc, KeyboardInterrupt) else str(exc)
        print(f"error: {text or type(exc).__name__}", file=sys.stderr)
        return 1


def _run(args: argparse.Namespace) -> int:
    try:
        cache, cache_path = _open_cache(args.cache)
    except CacheCorruptionError as exc:
        print(f"error: corrupt cache: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read cache: {exc}", file=sys.stderr)
        return 1
    known_before = len(cache)
    try:
        code = args.func(args, cache)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``| head``).  Point stdout at devnull so the
        # interpreter's flush at exit cannot raise again, and keep going to
        # save what was computed.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    if cache_path is not None and len(cache) > known_before:
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            cache.save(cache_path)
        except OSError as exc:
            print(f"warning: could not save cache: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
