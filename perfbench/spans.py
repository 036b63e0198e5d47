"""Span tracing from outside the program.

The traced run installs timing wrappers on the names each powersums module
imports (``powersums.faulhaber.bernoulli``, ``powersums.analysis.faulhaber_poly``,
``RationalPolynomial.__mul__`` ...), so a call made through any module is
seen, and spans nest across layers.  Spans are kept in memory as
``(id, parent, op, kind, start, end)`` and written out when the run ends.
A span's self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# span kind -> (metric counting calls, metric holding self time)
KINDS = {
    "bernoulli": ("bernoulli.calls", "bernoulli.self_s"),
    "bernoulli.load": (None, "bernoulli.load_s"),
    "bernoulli.save": (None, "bernoulli.save_s"),
    "faulhaber.p_poly": ("faulhaber.p_poly_calls", "faulhaber.p_poly_self_s"),
    "faulhaber.closed": ("faulhaber.closed_calls", "faulhaber.closed_self_s"),
    "faulhaber.poly": ("faulhaber.poly_calls", "faulhaber.poly_self_s"),
    "faulhaber.telescope": ("faulhaber.telescope_calls", "faulhaber.telescope_self_s"),
    "polynomial.eval": ("polynomial.eval_calls", "polynomial.eval_self_s"),
    "polynomial.mul": ("polynomial.mul_calls", "polynomial.mul_self_s"),
    "polynomial.divmod": ("polynomial.divmod_calls", "polynomial.divmod_self_s"),
    "polynomial.shift": ("polynomial.shift_calls", "polynomial.shift_self_s"),
    "analysis.factored": ("analysis.factored_calls", "analysis.factored_self_s"),
    "analysis.divide": ("analysis.divide_calls", "analysis.divide_self_s"),
    "analysis.value_div": ("analysis.value_div_calls", "analysis.value_div_self_s"),
    "exact_arith.parse": ("exact_arith.parse_calls", "exact_arith.parse_self_s"),
    "exact_arith.format": ("exact_arith.format_calls", "exact_arith.format_self_s"),
    "cli.process": ("cli.invocations", "cli.process_s"),
    "cli.main": (None, "cli.main_self_s"),
}

# counters the wrappers keep besides spans -> unit
COUNTS = {
    "bernoulli.entries_computed": "count",
    "bernoulli.load_entries": "count",
    "bernoulli.save_bytes": "bytes",
    "polynomial.coeff_bits": "bits",
    "cli.nonzero_exits": "count",
    "cli.stdout_bytes": "bytes",
}


def _coeff_bits(*polys) -> int:
    bits = 0
    for p in polys:
        for c in getattr(p, "coefficients", ()):
            bits += c.numerator.bit_length() + c.denominator.bit_length()
    return bits


def _cache_arg(args, kwargs):
    cache = kwargs.get("cache", args[1] if len(args) > 1 else None)
    return cache if cache is not None and hasattr(cache, "__len__") else None


class Tracer:
    """Records spans and counters; ``install`` patches the program."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.p_poly_ks: set[int] = set()
        self.op = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, kind: str):
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.op, kind, start, end))

    def wrap(self, kind: str, fn, before=None, after=None):
        """fn inside a span; before(args, kwargs) -> token runs outside it,
        and so does after(token, args, kwargs, result)."""

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            with self.span(kind):
                result = fn(*args, **kwargs)
            if after:
                after(token, args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, modules, fn, kind, before=None, after=None) -> None:
        """Replace fn under every name any powersums module binds it to."""
        wrapper = self.wrap(kind, fn, before, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def install(self, pkg) -> None:
        modules = pkg.modules
        bern, fh, an, poly = pkg.bernoulli, pkg.faulhaber, pkg.analysis, pkg.polynomial

        def cache_len(args, kwargs):
            cache = _cache_arg(args, kwargs)
            return cache, (len(cache) if cache is not None else 0)

        def extended(token, args, kwargs, result):
            cache, before = token
            grown = len(cache) - before if cache is not None else 0
            self.counts["bernoulli.entries_computed"] += grown
            self.counts["bernoulli.hits"] += grown == 0

        for fn in (bern.bernoulli, bern.bernoulli_range, bern.recurrence_residual):
            self._patch_function(modules, fn, "bernoulli", cache_len, extended)

        def p_poly_k(args, kwargs):
            self.p_poly_ks.add(args[0])

        self._patch_function(modules, fh.p_poly, "faulhaber.p_poly", p_poly_k)
        self._patch_function(modules, fh.power_sum_closed, "faulhaber.closed")
        self._patch_function(modules, fh.faulhaber_poly, "faulhaber.poly")
        self._patch_function(modules, fh.telescope_residual, "faulhaber.telescope")
        self._patch_function(modules, an.factored_form, "analysis.factored")
        for fn in (an.check_problem2, an.check_problem3, an.check_problem4):
            self._patch_function(modules, fn, "analysis.divide")
        self._patch_function(modules, an.value_divisibility, "analysis.value_div")
        self._patch_function(modules, pkg.exact_arith.parse_rational, "exact_arith.parse")
        self._patch_function(modules, pkg.exact_arith.format_rational, "exact_arith.format")

        def bits(args, kwargs):
            self.counts["polynomial.coeff_bits"] += _coeff_bits(*args)

        cls = poly.RationalPolynomial
        self._set(cls, "__call__", self.wrap("polynomial.eval", cls.__call__))
        mul = self.wrap("polynomial.mul", cls.__mul__, bits)
        self._set(cls, "__mul__", mul)
        self._set(cls, "__rmul__", mul)
        self._set(cls, "__divmod__", self.wrap("polynomial.divmod", cls.__divmod__, bits))
        self._set(cls, "shifted", self.wrap("polynomial.shift", cls.shifted, bits))

        def loaded(token, args, kwargs, result):
            self.counts["bernoulli.load_entries"] += len(result)

        def saved(token, args, kwargs, result):
            self.counts["bernoulli.save_bytes"] += os.path.getsize(args[1])

        cache_cls = bern.BernoulliCache
        load = cache_cls.__dict__["load"].__func__
        self._set(cache_cls, "load", classmethod(self.wrap("bernoulli.load", load, after=loaded)))
        self._set(cache_cls, "save", self.wrap("bernoulli.save", cache_cls.save, after=saved))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> Counter:
        """Self time per span kind."""
        child_time: Counter = Counter()
        for _, parent, _, _, start, end in self.spans:
            child_time[parent] += end - start
        totals: Counter = Counter()
        for sid, _, _, kind, start, end in self.spans:
            totals[kind] += (end - start) - child_time[sid]
        return totals

    def top_level_time(self) -> float:
        return sum(end - start for _, parent, _, _, start, end in self.spans if parent == 0)

    def write(self, path) -> None:
        """One tab-separated line per span: id, parent, op, kind, start, end."""
        if not self.spans:
            return
        t0 = min(span[4] for span in self.spans)
        with open(path, "w") as out:
            out.write("id\tparent\top\tkind\tstart_s\tend_s\n")
            for sid, parent, op, kind, start, end in self.spans:
                out.write(f"{sid}\t{parent}\t{op}\t{kind}\t{start - t0:.9f}\t{end - t0:.9f}\n")

