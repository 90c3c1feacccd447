"""Layer trace recorded from outside the library.

The tracer swaps wrapped versions into the module attributes the library
looks up at call time, so nothing under ``src/`` changes:

* spans around ``fixpoint.cli.run_config``, every library name that
  ``fixpoint.cli`` imports, ``fixpoint.picard.orbit_inexact`` and
  ``fixpoint.continuation.solve_at_t`` / ``check_leray_schauder``;
* counted and timed leaves around each gallery entry's ``mapping.apply``,
  ``domain.*``, ``space.*`` callables and ``sampler``, swapped in by
  wrapping ``fixpoint.cli.make_map`` and rebuilding the frozen entry with
  ``dataclasses.replace``.

Leaves are too many to keep one span each (400,002 applies in one
stability pass), so a leaf call adds to a count keyed by the innermost open
span and to its name's total time, and its duration counts as covered time
of that span.  A span's self time is its duration minus the time its child
spans and leaves cover.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import Counter
from typing import Callable

# (module, attribute, span name).  The span name's prefix is the layer.
_SPANS = (
    ("fixpoint.cli", "run_config", "cli.run_config"),
    ("fixpoint.cli", "make_map", "gallery.make_map"),
    ("fixpoint.cli", "solve_fixed_point", "picard.solve_fixed_point"),
    ("fixpoint.cli", "orbit_exact", "picard.orbit_exact"),
    ("fixpoint.cli", "orbit_csv", "picard.orbit_csv"),
    ("fixpoint.cli", "run_stability_experiment",
     "picard.run_stability_experiment"),
    ("fixpoint.cli", "stability_report_text", "picard.stability_report_text"),
    ("fixpoint.picard", "orbit_inexact", "picard.orbit_inexact"),
    ("fixpoint.cli", "trace_path", "continuation.trace_path"),
    ("fixpoint.cli", "limit_path", "continuation.limit_path"),
    ("fixpoint.cli", "path_csv", "continuation.path_csv"),
    ("fixpoint.continuation", "solve_at_t", "continuation.solve_at_t"),
    ("fixpoint.continuation", "check_leray_schauder",
     "continuation.check_leray_schauder"),
    ("fixpoint.cli", "verify_contractive", "core.verify_contractive"),
    ("fixpoint.cli", "check_modulus_admissible",
     "core.check_modulus_admissible"),
)

LAYERS = ("cli", "gallery", "core", "picard", "continuation")


class Tracer:
    """Spans and leaf counts of one traced pass; ``reset`` starts the next
    pass, ``spans`` keeps every pass for the trace file."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[list] = []     # [name, start, end, parent, pass]
        self._covered: list[float] = []
        self._stack: list[int] = []
        self._pass = 0
        self._first = 0                 # first span index of this pass
        self.leaf_counts: Counter = Counter()   # (leaf, span name) -> n
        self.leaf_s: Counter = Counter()        # leaf -> seconds
        self.solve_iterations = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in _SPANS:
            mod = importlib.import_module(module)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            if name == "gallery.make_map":
                wrapped = self._span(name, self._wrap_entry_maker(orig))
            elif name == "picard.solve_fixed_point":
                wrapped = self._span(name, orig, self._count_iterations)
            else:
                wrapped = self._span(name, orig)
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def reset(self) -> None:
        """Start a new pass: counts and totals restart, spans are kept."""
        self._pass += 1
        self._first = len(self.spans)
        self.leaf_counts.clear()
        self.leaf_s.clear()
        self.solve_iterations = 0

    def _count_iterations(self, result) -> None:
        self.solve_iterations += result.iterations

    def _span(self, name: str, fn: Callable,
              on_result: Callable | None = None) -> Callable:
        spans, covered, stack = self.spans, self._covered, self._stack
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, 0.0, 0.0, parent, self._pass])
            covered.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
                if parent >= 0:
                    covered[parent] += end - start
            if on_result is not None:
                on_result(result)
            return result
        return wrapped

    def _leaf(self, name: str, fn: Callable | None) -> Callable | None:
        if fn is None:
            return None
        spans, covered, stack = self.spans, self._covered, self._stack
        counts, totals = self.leaf_counts, self.leaf_s
        clock = time.perf_counter

        def wrapped(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - start
                totals[name] += dt
                if stack:
                    top = stack[-1]
                    covered[top] += dt
                    counts[name, spans[top][0]] += 1
                else:
                    counts[name, None] += 1
        return wrapped

    def _wrap_entry_maker(self, make_map: Callable) -> Callable:
        leaf, replace = self._leaf, dataclasses.replace

        def traced_make_map(name, **params):
            entry = make_map(name, **params)
            m = entry.mapping
            dom = replace(
                m.domain,
                contains=leaf("core.contains", m.domain.contains),
                interior_contains=leaf("core.interior_contains",
                                       m.domain.interior_contains),
                boundary_distance=leaf("core.boundary_distance",
                                       m.domain.boundary_distance),
                project=leaf("core.project", m.domain.project),
                nearest_boundary=leaf("core.nearest_boundary",
                                      m.domain.nearest_boundary))
            space = replace(
                m.space,
                distance=leaf("core.distance", m.space.distance),
                norm=leaf("core.norm", m.space.norm),
                rowwise_distance=leaf("core.rowwise_distance",
                                      m.space.rowwise_distance))
            mapping = replace(m, apply=leaf("gallery.apply", m.apply),
                              domain=dom, space=space)
            return replace(entry, mapping=mapping,
                           sampler=leaf("gallery.sampler", entry.sampler))
        return traced_make_map

    # -- summaries of the current pass --------------------------------------

    def calls(self, leaf: str, within: str | None = None) -> int:
        """Leaf calls in this pass, optionally only those made directly
        inside spans named ``within``."""
        return sum(n for (name, span), n in self.leaf_counts.items()
                   if name == leaf and (within is None or span == within))

    def pass_summary(self) -> dict[str, float]:
        """Per span name: total seconds and call count; per layer: self
        seconds.  Keys are ``<span>_s``, ``<span>_calls`` and
        ``<layer>.self_s``."""
        out: Counter = Counter()
        for idx in range(self._first, len(self.spans)):
            name, start, end, _, _ = self.spans[idx]
            dur = end - start
            out[f"{name}_s"] += dur
            out[f"{name}_calls"] += 1
            out[f"{name.split('.')[0]}.self_s"] += dur - self._covered[idx]
        for name, secs in self.leaf_s.items():
            out[f"{name}_s"] += secs
            out[f"{name.split('.')[0]}.self_s"] += secs
        for layer in LAYERS:
            out[f"{layer}.self_s"] += 0.0
        return dict(out)

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "pass": k}
                for n, s, e, p, k in self.spans]
