"""Span tracing of affeq's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function at every affeq module
attribute that binds it, ``from .x import f`` copies included, with a wrapper
that records a span (name, start, end, parent) and the function's counters.
Self time is a span's duration minus the time its child spans cover.  The
wrappers record nothing while ``Tracer.on`` is false, so input generation and
answer checks between rounds stay out of the figures.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Traced functions per affeq module; ``solver.least_squares`` is scipy's
# solver as bound in affeq.solver.
TARGETS = {
    "linalg": ("bordered_det_batch", "bareiss_det"),
    "cmdet": ("cmd", "quadratic_slice", "menger_check"),
    "system": ("check_assignment", "find_base_simplex"),
    "embedding": ("embed",),
    "reconstruct": ("reconstruct", "verify_problem1"),
    "solver": ("solve", "numeric_search", "least_squares"),
    "smtexport": ("export_smt",),
    "instance_io": ("parse_document",),
    "cli": ("main",),
}
# Spans kept for the span log; counters and times cover every span.
SPAN_LOG_LIMIT = 50_000


class Tracer:
    def __init__(self):
        self.on = False
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._origin = time.perf_counter()

    def install(self):
        """Wrap every target at all of its bindings in loaded affeq modules."""
        hooks = {
            "linalg.bordered_det_batch": (None, self._after_batch),
            "solver.least_squares": (self._before_least_squares, self._after_least_squares),
            "solver.numeric_search": (None, self._after_search),
            "smtexport.export_smt": (None, self._after_export),
        }
        for module, names in TARGETS.items():
            mod = importlib.import_module(f"affeq.{module}")
            for name in names:
                key = f"{module}.{name}"
                func = getattr(mod, name)
                wrapper = self.wrap(key, func, *hooks.get(key, (None, None)))
                for loaded in list(sys.modules.values()):
                    lname = getattr(loaded, "__name__", "")
                    if lname != "affeq" and not lname.startswith("affeq."):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is func:
                            setattr(loaded, attr, wrapper)

    def wrap(self, key, func, before=None, after=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return func(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._close(key, span_id, parent, start, end, frame[1])
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _close(self, key, span_id, parent, start, end, child_s):
        duration = end - start
        self.calls[key] += 1
        self.total_s[key] += duration
        self.self_s[key] += duration - child_s
        if parent is not None:
            parent[1] += duration
        if len(self.spans) < SPAN_LOG_LIMIT:
            self.spans.append((span_id, parent[0] if parent else None, key,
                               start - self._origin, end - self._origin))

    # -- counters -------------------------------------------------------------

    def _after_batch(self, args, kwargs, result):
        self.counts["linalg.bordered_det_batch.matrices"] += len(result)

    def _before_least_squares(self, args, kwargs):
        fun, *rest = args
        kwargs = dict(kwargs)
        if callable(kwargs.get("jac")):
            kwargs["jac"] = self.wrap("solver.least_squares.jac", kwargs["jac"])
        return (self.wrap("solver.least_squares.fun", fun), *rest), kwargs

    def _after_least_squares(self, args, kwargs, result):
        self.counts["solver.least_squares.nfev"] += int(result.nfev)
        self.counts["solver.least_squares.njev"] += int(result.njev or 0)

    def _after_search(self, args, kwargs, result):
        cert, diag = result
        self.counts["solver.numeric_search.restarts"] += int(diag.get("restarts_used", 0))
        self.counts["solver.numeric_search.yes"] += cert is not None

    def _after_export(self, args, kwargs, result):
        self.counts["smtexport.export_smt.bytes"] += len(result.encode("utf-8"))

    # -- report ---------------------------------------------------------------

    def metrics(self, ops):
        """Per-layer figures per attempted op, in BENCHMARK.json's names."""
        out = {}
        for module, names in TARGETS.items():
            for name in names:
                key = f"{module}.{name}"
                out[f"{key}.calls"] = (self.calls[key] / ops, "count")
                out[f"{key}.self_ms"] = (1e3 * self.self_s[key] / ops, "ms")
        out["linalg.bordered_det_batch.matrices"] = (
            self.counts["linalg.bordered_det_batch.matrices"] / ops, "count")
        for name in ("nfev", "njev"):
            out[f"solver.least_squares.{name}"] = (
                self.counts[f"solver.least_squares.{name}"] / ops, "count")
        for name in ("fun", "jac"):
            out[f"solver.least_squares.{name}_ms"] = (
                1e3 * self.total_s[f"solver.least_squares.{name}"] / ops, "ms")
        yes = self.counts["solver.numeric_search.yes"]
        restarts = self.counts["solver.numeric_search.restarts"]
        out["solver.restarts_per_yes"] = (restarts / yes if yes else 0.0, "ratio")
        out["smtexport.export_smt.bytes"] = (
            self.counts["smtexport.export_smt.bytes"] / ops, "bytes")
        return out

    def raw_counts(self):
        """Every call count and counter, for comparing two traced runs."""
        return {**{f"{k}.calls": v for k, v in sorted(self.calls.items())},
                **dict(sorted(self.counts.items()))}

    def span_log(self):
        return {"fields": ["id", "parent", "name", "start_s", "end_s"],
                "limit": SPAN_LOG_LIMIT, "spans": self.spans}
