"""Spans and counters for the traced run, installed from outside the program.

Each layer entry point is replaced, where its callers look it up, by a
wrapper that opens a span.  A span records its name, the record it belongs
to, its start and end in process CPU time and the span that caused it.  A
layer's self time is the duration of its spans minus the time their child
spans cover.  The program's source is not touched; the wrappers are
installed in the worker process after set-up has been measured.
"""

from __future__ import annotations

import time
from collections import Counter

import yhecke.adelic as adelic_mod
import yhecke.cli as cli_mod
import yhecke.exactnum as exactnum_mod
import yhecke.trace as trace_mod
import yhecke.yokonuma as yokonuma_mod

# span name -> per-layer self-time metric
SELF_TIME = {
    "cli": "cli.self_s",
    "braid.parse": "braid.parse_s",
    "yokonuma.represent": "yokonuma.represent_s",
    "trace.markov_trace": "trace.markov_trace_s",
    "exactnum.substitute": "exactnum.substitute_s",
    "exactnum.ratfunc_make": "exactnum.ratfunc_make_s",
    "exactnum.poly_gcd": "exactnum.poly_gcd_s",
    "invariant.delta": "invariant.normalize_s",
    "esystem.solution": "esystem.solution_s",
    "adelic.delta": "adelic.delta_s",
}

# span name -> call-count metric
CALLS = {
    "exactnum.ratfunc_make": "exactnum.ratfunc_make.calls",
    "exactnum.poly_gcd": "exactnum.poly_gcd.calls",
    "invariant.delta": "invariant.calls",
    "esystem.solution": "esystem.solution.calls",
}

YOKONUMA_CACHES = ("canonical_reduced_word", "_word_times_g", "_letter_image", "_word_times_letter")


class Tracer:
    """Collects spans in memory; ``report`` turns them into layer metrics."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float, int]] = []  # name, record, start, end, parent
        self.counts: Counter = Counter()
        self.record = -1
        self._stack: list[list] = []  # [span index, start, child time, name]
        self.self_time: Counter = Counter()

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so that every call is a span named ``name``."""

        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, time.process_time(), 0.0, name]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                self._stack.pop()
                duration = end - frame[1]
                self.self_time[name] += duration - frame[2]
                self.counts[name] += 1
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans[index] = (name, self.record, frame[1], end, parent)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _outermost(self, name: str) -> bool:
        return not any(frame[3] == name for frame in self._stack)

    def install(self):
        """Wrap each layer's entry point where its callers bind it."""

        def count_terms(metric, size):
            def on_result(result):
                self.counts[metric] += size(result)
            return on_result

        def poly_terms(result):
            if self._outermost("trace.markov_trace"):
                self.counts["trace.poly_terms"] += len(result.terms)

        cli_mod.parse_braid = self.span("braid.parse", cli_mod.parse_braid)
        solution = self.span("esystem.solution", cli_mod.solution_from_subset)
        cli_mod.solution_from_subset = solution
        adelic_mod.solution_from_subset = solution
        delta = self.span(
            "invariant.delta", cli_mod.delta_invariant,
            count_terms("exactnum.body_terms", lambda v: len(v.body.num.terms) + len(v.body.den.terms)),
        )
        cli_mod.delta_invariant = delta
        adelic_mod.delta_invariant = delta
        cli_mod.adelic_delta = self.span(
            "adelic.delta", cli_mod.adelic_delta, count_terms("adelic.levels", len)
        )
        trace_mod.represent_braid = self.span(
            "yokonuma.represent", trace_mod.represent_braid,
            count_terms("yokonuma.element_terms", lambda a: len(a.terms)),
        )
        trace_mod.markov_trace = self.span("trace.markov_trace", trace_mod.markov_trace, poly_terms)
        trace_mod.trace_poly_substitute = self.span("exactnum.substitute", trace_mod.trace_poly_substitute)
        exactnum_mod.RatFunc.make = staticmethod(
            self.span("exactnum.ratfunc_make", exactnum_mod.RatFunc.make)
        )
        exactnum_mod.poly_gcd = self.span("exactnum.poly_gcd", exactnum_mod.poly_gcd)

    def report(self, output_bytes: int) -> dict[str, float]:
        """Every per-layer metric: self times in s, counts as integers."""
        metrics: dict[str, float] = {metric: self.self_time[name] for name, metric in SELF_TIME.items()}
        metrics.update({metric: self.counts[name] for name, metric in CALLS.items()})
        for metric in ("yokonuma.element_terms", "trace.poly_terms", "exactnum.body_terms", "adelic.levels"):
            metrics[metric] = self.counts[metric]
        letter = yokonuma_mod._word_times_letter.cache_info()
        by_g = yokonuma_mod._word_times_g.cache_info()
        words = trace_mod._trace_word.cache_info()
        metrics["yokonuma.word_times_letter.misses"] = letter.misses
        metrics["yokonuma.word_times_g.misses"] = by_g.misses
        metrics["yokonuma.cache_entries"] = sum(
            getattr(yokonuma_mod, name).cache_info().currsize for name in YOKONUMA_CACHES
        )
        metrics["trace.trace_word.hits"] = words.hits
        metrics["trace.trace_word.misses"] = words.misses
        metrics["cli.output_bytes"] = output_bytes
        return metrics
