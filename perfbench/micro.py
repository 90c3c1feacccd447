"""Micro-timings of the per-call layers, for the traced run only.

Each callable is called in a tight loop at one fixed point of its domain;
the figure is the median over a few repeats of the mean microseconds per
call, scaled to reference speed by calibrations before and after.  The
points come from each entry's own sampler with a fixed seed, so they do
not depend on the workload seed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from fixpoint.picard import stability_constants

import calibration

_CALLS = 10_000
_REPEATS = 5


def per_call_us(fn, *args) -> float:
    samples = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        for _ in range(_CALLS):
            fn(*args)
        samples.append((time.perf_counter() - start) * 1e6 / _CALLS)
    return statistics.median(samples)


def micro_timings(entries) -> dict[str, dict[str, float]]:
    """Per metric, per subject (map, domain or space): microseconds per
    call.  entries holds (parsed config values, GalleryEntry) pairs."""
    out: dict[str, dict[str, float]] = {
        "gallery.apply_us": {}, "core.contains_us": {},
        "core.project_us": {}, "core.boundary_distance_us": {},
        "core.norm_us": {}, "picard.bounds_us": {}}

    before = calibration.calibrate()

    def timed(metric: str, subject: str, fn, *args) -> None:
        if subject not in out[metric]:
            out[metric][subject] = per_call_us(fn, *args)

    for values, entry in entries:
        m = entry.mapping
        x = entry.sampler(np.random.default_rng(0))
        dom = f"{m.domain.kind}{[float(v) for v in m.domain.params]}"
        timed("gallery.apply_us", entry.name, m.apply, x)
        timed("core.contains_us", dom, m.domain.contains, x)
        timed("core.project_us", dom, m.domain.project, x)
        timed("core.boundary_distance_us", dom, m.domain.boundary_distance,
              x)
        timed("core.norm_us", f"euclidean-{m.space.dimension}d",
              m.space.norm, x)
        if m.declared_modulus.rakotch:
            M = float(values.get("M", 1.0))
            eps = float(values.get("epsilon", 0.1))
            timed("picard.bounds_us", f"{entry.name}(M={M!r},eps={eps!r})",
                  stability_constants, M, eps, m.declared_modulus)
    factor = calibration.scale(before, calibration.calibrate())
    return {metric: {k: us * factor for k, us in subjects.items()}
            for metric, subjects in out.items()}
