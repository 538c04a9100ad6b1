"""Spans around the public functions of each scanex module, from outside.

The benchmark's traced run installs a wrapper on every name listed in
``TARGETS``, in every scanex module namespace that holds the function, so
that both outside callers (``scanex.exact_scan_cdf``) and internal ones
(``pipeline.exact_scan_cdf``, ``scan_exact.exact_scan_cdf``) go through
it.  Each call records one span: name, parent span, start, end and a few
arguments.  Spans stay in memory until the run ends.  The untraced runs
never install the wrappers.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager
from types import ModuleType

# (module, function, span attributes from the bound arguments, or None)
TARGETS = (
    ("scan_exact", "exact_scan_cdf", lambda b: {"N": b["spec"].N}),
    ("scan_exact", "block_q_sequence", None),
    ("scan_exact", "block_p_sequence", None),
    ("pipeline", "scan_approximation", None),
    ("pipeline", "sandwich", None),
    ("pipeline", "reproduce_table", None),
    ("extremes", "solve_lambda", None),
    ("extremes", "c_series_eval", None),
    ("extremes", "error_coefficients", None),
    ("extremes", "approx_qn_T4", None),
    ("extremes", "approx_qn_T3", None),
    ("extremes", "approx_qnlambda_centers", None),
    ("montecarlo", "simulate_scan_cdf",
     lambda b: {"draws": b["plan"].reps * b["plan"].spec.N}),
    ("montecarlo", "simulate_block_sequence",
     lambda b: {"draws": b["reps"] * b["L"] * b["spec"].m}),
    ("cli", "main", None),
)

# span fields: [name, parent index (-1 for none), start, end, attributes]
NAME, PARENT, START, END, ATTRS = range(5)


class Tracer:
    """Spans in memory, and wrappers that ``installed`` puts in place of every
    target in each loaded module of ``package`` that holds it."""

    def __init__(self, package: ModuleType) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        self._sites: list[tuple[ModuleType, str, object, object]] = []
        for mod_name, fn_name, extract in TARGETS:
            original = getattr(sys.modules[f"{package.__name__}.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, extract)
            self._sites += [(mod, fn_name, original, wrapper) for mod in modules
                            if getattr(mod, fn_name, None) is original]

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        rec = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), None, attrs]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, extract):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            attrs = extract(sig.bind(*args, **kwargs).arguments) if extract else None
            with self.span(name, attrs):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, on: bool = True):
        """The wrappers in place for the duration (nothing when ``on`` is false)."""
        if not on:
            yield
            return
        for mod, fn_name, _, wrapper in self._sites:
            setattr(mod, fn_name, wrapper)
        try:
            yield
        finally:
            for mod, fn_name, original, _ in self._sites:
                setattr(mod, fn_name, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end,
                                     "attrs": attrs}) + "\n")


class SpanStats:
    """Per-name totals over a list of spans.

    busy: summed duration of the name's spans that have no ancestor of the
    same name.  self: summed duration minus the part covered by direct
    children (children of one span never overlap: wrapped calls run on one
    thread).
    """

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        n = len(spans)
        child_time = [0.0] * n
        for rec in spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        for i, rec in enumerate(spans):
            name = rec[NAME]
            dur = rec[END] - rec[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child_time[i]
            if not self.has_ancestor(i, name):
                self.busy[name] = self.busy.get(name, 0.0) + dur

    def has_ancestor(self, i: int, name: str) -> bool:
        j = self.spans[i][PARENT]
        while j >= 0:
            if self.spans[j][NAME] == name:
                return True
            j = self.spans[j][PARENT]
        return False

    def parent_name(self, i: int) -> str | None:
        j = self.spans[i][PARENT]
        return self.spans[j][NAME] if j >= 0 else None

    def attr_sum(self, name: str, key: str) -> float:
        return float(sum(r[ATTRS][key] for r in self.spans if r[NAME] == name))

    def children_per_parent(self, child: str, parent: str,
                            grandparent: str | None = None) -> float:
        """Mean count of ``child`` spans directly under each ``parent`` span
        (only parents whose own parent is ``grandparent``, when given)."""
        parents = {i for i, r in enumerate(self.spans) if r[NAME] == parent
                   and (grandparent is None or self.parent_name(i) == grandparent)}
        if not parents:
            return 0.0
        kids = sum(1 for r in self.spans if r[NAME] == child and r[PARENT] in parents)
        return kids / len(parents)
