"""powersums benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload eval-grid --seed 1 --seconds 25 --trace 0

Load is one closed-loop client in this process: each op starts when the
previous one has ended.  ``--trace 0`` measures for ``--seconds`` of op
time (and on until the workload's ``min_ops`` are done) and prints the
end-to-end metrics; ``--trace 1`` runs the workload's fixed ``trace_ops``
ops once untraced and once with span wrappers installed, and prints the
per-layer metrics plus the tracing overhead.  Every op is checked by an
independent oracle; the last stdout line is one JSON object, and the exit
code is 1 if any op failed.

End-to-end times are scaled to a reference speed: a fixed stdlib-only task
is timed beside the ops, and each time is multiplied by that task's
nominal time over its measured time.  The unscaled wall-clock figures are
printed next to them.

``*_s`` per-layer metrics are self times; ``cli.main_s`` alone is the
inclusive time of ``main(argv)`` run in-process, so that
``cli.start_s = cli.process_s - cli.main_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from array import array
from fractions import Fraction
from itertools import islice
from math import ceil
from pathlib import Path
from random import Random
from time import perf_counter
from types import SimpleNamespace

from spans import COUNTS, KINDS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
# Op times are scaled by FRACTION_NOMINAL_S / fraction_reference() measured
# beside them, at most REFERENCE_EVERY seconds of op time apart.
FRACTION_NOMINAL_S = 0.45e-3
REFERENCE_EVERY = 0.025
# A fixed rational polynomial with numerators of 113 to 221 bits.
_REF_COEFFS = [
    Fraction((-1) ** i * (7 ** (i + 40) + i), 3 ** (i % 17) * 2 ** (i % 5)) for i in range(40)
]


def fraction_reference() -> float:
    """Seconds for a fixed stdlib-only task, best of two: Horner evaluation
    of a rational polynomial at a 31-digit point and a harmonic sum, the
    same mix of big-integer and Fraction work the in-process ops do.  It
    never touches powersums, so no change to the program can move it;
    what moves it is the machine's speed at that moment.  It also serves
    the CLI, whose op times it follows more closely than the time of a
    bare interpreter start does (on a shared 2-vCPU VM that read 16, 20
    or 33 ms at random)."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        acc = Fraction(0)
        for c in _REF_COEFFS:
            acc = acc * (10**30 + 7) + c
        total = Fraction(0)
        for i in range(1, 120):
            total += Fraction(1, i)
        best = min(best, perf_counter() - start)
    return best


END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
_BROKEN = object()  # an expected value the oracle could not produce


def import_package() -> SimpleNamespace:
    """A fresh import of powersums from this checkout's src/."""
    for name in [m for m in sys.modules if m == "powersums" or m.startswith("powersums.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ("bernoulli", "exact_arith", "polynomial", "faulhaber", "analysis", "cli")
    package = importlib.import_module("powersums")
    subs = {name: importlib.import_module(f"powersums.{name}") for name in names}
    if Path(package.__file__).resolve().parent != SRC / "powersums":
        raise ImportError(f"powersums imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(src=SRC, modules=[package, *subs.values()], **subs)


def setup(cls, tmp: Path):
    """Import and build the starting state SETUP_REPEATS times; keep the last.

    Returns the workload, its state, and each set-up's time both as
    measured and scaled to the reference speed."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = fraction_reference()
        start = perf_counter()
        workload = cls(import_package(), tmp)
        state = workload.new_state()
        elapsed = perf_counter() - start
        after = fraction_reference()
        raw.append(elapsed)
        scaled.append(elapsed * FRACTION_NOMINAL_S * 2 / (before + after))
    return workload, state, raw, scaled


def expect_all(workload, batch) -> list:
    expected = []
    for inp in batch:
        try:
            expected.append(workload.expect(inp))
        except Exception:  # a reference that fails its own check fails the op
            expected.append(_BROKEN)
    return expected


def run_ops(workload, batch, expected, budget, tracer=None, scale=True, min_ops=0):
    """Run ops in order until `budget` seconds of op time are spent and at
    least `min_ops` ops are done.

    Returns (latencies, scaled latencies, failures, reference times).  Only
    ``workload.run`` is timed; the check of each output follows it,
    outside the latency.  With ``scale``, the reference task runs before
    the first op, after the last, and between ops whenever
    ``REFERENCE_EVERY`` seconds of op time have passed; each latency is
    scaled by the nominal reference time over the mean of the reference
    times just before and just after it.  On a shared 2-vCPU VM the
    CPU's speed swings by up to 1.7x within seconds; the scaled figures
    follow the program rather than those swings.
    """
    latencies, failed, spent = array("d"), 0, 0.0
    refs, ref_before = array("d"), array("l")
    since_ref = float("inf")
    for inp, exp in zip(batch, expected):
        if scale and since_ref >= REFERENCE_EVERY:
            refs.append(fraction_reference())
            since_ref = 0.0
        ref_before.append(len(refs) - 1)
        if tracer is not None:
            tracer.op = len(latencies)
        start = perf_counter()
        try:
            out = workload.run(inp, tracer)
        except Exception:
            out = _BROKEN
        elapsed = perf_counter() - start
        latencies.append(elapsed)
        spent += elapsed
        since_ref += elapsed
        try:
            ok = out is not _BROKEN and exp is not _BROKEN and workload.check(inp, out, exp)
        except Exception:
            ok = False
        failed += not ok
        if spent >= budget and len(latencies) >= min_ops:
            break
    if not scale:
        return latencies, latencies, failed, refs
    refs.append(fraction_reference())
    scaled = array(
        "d",
        (t * FRACTION_NOMINAL_S * 2 / (refs[i] + refs[i + 1]) for t, i in zip(latencies, ref_before)),
    )
    return latencies, scaled, failed, refs


def measure(workload, state, seed: int, budget: float):
    """The untraced closed loop; expected values are prepared per chunk,
    between timed stretches."""
    inputs = workload.inputs(Random(seed), state)
    latencies, scaled, refs, failed, oracle_s = array("d"), array("d"), array("d"), 0, 0.0
    while sum(latencies) < budget or len(latencies) < workload.min_ops:
        start = perf_counter()
        batch = list(islice(inputs, workload.chunk))
        expected = expect_all(workload, batch)
        oracle_s += perf_counter() - start
        lat, lat_scaled, bad, ref = run_ops(
            workload, batch, expected, budget - sum(latencies),
            min_ops=workload.min_ops - len(latencies),
        )
        latencies += lat
        scaled += lat_scaled
        refs += ref
        failed += bad
    return latencies, scaled, failed, refs, oracle_s


def tail(sorted_latencies, q: int) -> float:
    """The q-th percentile (nearest rank).  Each workload pins q, and its
    ``min_ops`` leave ten samples beyond it, so every run compares the
    same quantile whatever the op count."""
    return sorted_latencies[max(ceil(q * len(sorted_latencies) / 100) - 1, 0)]


# Run by peak_rss_mb in a fresh interpreter; argv: HERE, workload, seed, ops.
_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "run.probe(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))"
)


def probe(name: str, seed: int, n_ops: int) -> None:
    """Build the workload's starting state, run its first ``n_ops`` ops
    unchecked (the timed phase checks them) and print the peak RSS in KiB."""
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
        workload = WORKLOADS[name](import_package(), Path(tmp))
        for inp in islice(workload.inputs(Random(seed), workload.new_state()), n_ops):
            with contextlib.suppress(Exception):
                workload.run(inp)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def peak_rss_mb(workload, seed: int) -> tuple[float, float]:
    """Peak RSS in MiB of the process doing the work, and the seconds spent
    finding it.

    For the CLI that is the largest child.  An in-process workload shares
    its process with the oracle's memo and the harness, whose size follows
    how far a run got; so its set-up and first ``trace_ops`` ops run again
    in a fresh interpreter that holds nothing else."""
    if workload.name == "cli-session":
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 0.0
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(HERE), workload.name, str(seed), str(workload.trace_ops)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return int(proc.stdout.split()[-1]) / 1024, perf_counter() - start


def summarize(latencies, passed: int, q: int) -> dict:
    ordered = sorted(latencies)
    return {
        "throughput_ops_s": passed / sum(latencies),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": tail(ordered, q) * 1e3,
    }


def end_to_end(workload, state, setup_times, args, info, lines):
    raw, scaled, failed, refs, oracle_s = measure(workload, state, args.seed, args.seconds)
    rss_mb, probe_s = peak_rss_mb(workload, args.seed)
    attempted = len(raw)
    setup_raw, setup_scaled = setup_times
    q = workload.tail_percentile
    values = summarize(scaled, attempted - failed, q)
    values["setup_s"] = statistics.median(setup_scaled)
    values["peak_rss_mb"] = rss_mb
    wall = summarize(raw, attempted - failed, q)
    wall["setup_s"] = statistics.median(setup_raw)
    beyond = attempted - ceil(q * attempted / 100)
    info.update(samples=attempted, tail_percentile=q, tail_beyond=beyond,
                op_time_s=round(sum(raw), 6), oracle_s=round(oracle_s, 6),
                rss_probe_s=round(probe_s, 6),
                reference_s={"nominal": FRACTION_NOMINAL_S, "count": len(refs),
                             "median": round(statistics.median(refs), 9)},
                wall={k: round(v, 6) for k, v in wall.items()})
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "throughput_ops_s": f"{attempted - failed} passed ops",
        "op_p50_ms": f"n={attempted}",
        "op_tail_ms": f"p{q}, n={attempted}, {beyond} beyond",
    }
    rss_note = ("largest CLI process" if workload.name == "cli-session"
                else f"fresh process, set-up and {workload.trace_ops} ops")
    lines.append(f"{'metric':16s} {'scaled':>14s} {'wall':>14s}  unit")
    for name in ("setup_s", "throughput_ops_s", "op_p50_ms", "op_tail_ms"):
        lines.append(f"{name:16s} {values[name]:14.6f} {wall[name]:14.6f}  "
                     f"{END_TO_END[name]:6s} {notes[name]}")
    lines += [
        f"failed_ratio     {failed / attempted:14.6f} {'':14s}  ratio  "
        f"{failed} failed / {attempted} attempted",
        f"peak_rss_mb      {values['peak_rss_mb']:14.3f} {'':14s}  MB     {rss_note}",
        f"oracle_s         {oracle_s:14.6f} {'':14s}  s      expected values, not in any metric",
    ]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return attempted, failed, metrics


def traced(workload, state, args, info, lines):
    """The same fixed ops untraced, then traced, each pass from its own
    starting state; per-layer metrics."""
    n_ops = workload.trace_ops

    def prepared(start_state):
        batch = list(islice(workload.inputs(Random(args.seed), start_state), n_ops))
        return batch, expect_all(workload, batch)

    # Both passes are prepared before any wrapper is installed, so the
    # oracle's own calls into the program are never traced.
    plain_ops, traced_ops = prepared(state), prepared(workload.new_state())
    lat_plain, _, failed_plain, _ = run_ops(workload, *plain_ops, float("inf"), Tracer(), False)
    tracer = Tracer()
    tracer.install(workload.pkg)
    try:
        lat, _, failed, _ = run_ops(workload, *traced_ops, float("inf"), tracer, False)
    finally:
        tracer.uninstall()

    metrics = per_layer(tracer, sum(lat), sum(lat_plain), len(lat))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-{args.seed}.tsv"
    tracer.write(spans_path)
    info.update(samples=len(lat), spans_file=str(spans_path.relative_to(ROOT)))
    for name, m in metrics.items():
        lines.append(f"{name:28s} {m['value']:.9g} {m['unit']}")
    attempted = len(lat) + len(lat_plain)
    lines.append(f"failed_ratio {(failed + failed_plain) / attempted:.6f} ratio  "
                 f"{failed + failed_plain} failed / {attempted} attempted (both passes)")
    return attempted, failed + failed_plain, metrics


def per_layer(tracer, wall, plain_wall, ops) -> dict:
    values: dict[str, float] = {}
    units: dict[str, str] = {}
    self_times = tracer.self_times()
    calls = {kind: 0 for kind in KINDS}
    main_s = 0.0
    for _, _, _, kind, start, end in tracer.spans:
        calls[kind] += 1
        if kind == "cli.main":
            main_s += end - start
    for kind, (calls_name, time_name) in KINDS.items():
        if calls_name:
            values[calls_name], units[calls_name] = calls[kind], "count"
        values[time_name], units[time_name] = self_times.get(kind, 0.0), "s"
    for name, unit in COUNTS.items():
        values[name], units[name] = tracer.counts.get(name, 0), unit
    bern_calls = calls["bernoulli"]
    extra = {
        "bernoulli.hit_ratio": (tracer.counts["bernoulli.hits"] / bern_calls if bern_calls else 0.0, "ratio"),
        "faulhaber.p_poly_distinct_k": (len(tracer.p_poly_ks), "count"),
        "cli.main_s": (main_s, "s"),
        "cli.start_s": (values["cli.process_s"] - main_s if calls["cli.process"] else 0.0, "s"),
        "trace.ops": (ops, "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (plain_wall, "s"),
        "trace.overhead": (wall / plain_wall, "ratio"),
        "trace.harness_s": (wall - tracer.top_level_time(), "s"),
    }
    for name, (value, unit) in extra.items():
        values[name], units[name] = value, unit
    return {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}


def commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "powersums").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="op time measured with --trace 0 (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(argv=None):
    """Run one benchmark; returns (result, report lines, info)."""
    args = parse_args(argv)
    if not (SRC / "powersums" / "__init__.py").is_file():
        raise FileNotFoundError(f"no powersums package under {SRC}")
    cls = WORKLOADS[args.workload]
    info = {
        "workload": cls.name, "why": cls.why, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit(), "src_sha256": src_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "setup_repeats": SETUP_REPEATS, "cpus": sorted(os.sched_getaffinity(0)),
    }
    lines: list[str] = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
        saved_xdg = os.environ.get("XDG_CONFIG_HOME")
        os.environ["XDG_CONFIG_HOME"] = str(Path(tmp) / "xdg")
        try:
            workload, state, *setup_times = setup(cls, Path(tmp))
            info["setup_s_each"] = [round(t, 6) for t in setup_times[0]]
            if args.trace:
                attempted, failed, metrics = traced(workload, state, args, info, lines)
            else:
                attempted, failed, metrics = end_to_end(
                    workload, state, setup_times, args, info, lines
                )
        finally:
            if saved_xdg is None:
                os.environ.pop("XDG_CONFIG_HOME", None)
            else:
                os.environ["XDG_CONFIG_HOME"] = saved_xdg
    info.update(attempted=attempted, failed=failed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines, info


def main(argv=None) -> int:
    # One CPU for this process and its children, so an op and the
    # reference measured beside it run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        result, lines, info = run(argv)
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"# powersums benchmark: {info['workload']} seed={info['seed']} trace={info['trace']}")
    print("# record " + json.dumps(info, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
