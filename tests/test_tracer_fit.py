"""The benchmark's layer tracer (perfbench/tracer.py) still fits the package.

The tracer wraps library names it looks up by string and rebuilds gallery
entries with dataclasses.replace by field name, so a rename in src/ would
only show up as a failing ``--trace 1`` run.  The tracer is read and
executed here without importing it as a module, so nothing is written next
to it.
"""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

import fixpoint.cli
from fixpoint import continuation
from fixpoint.gallery import list_maps

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def test_every_span_target_resolves(tracer):
    for module, attr, _ in tracer._SPANS:
        assert callable(getattr(importlib.import_module(module), attr)), \
            f"{module}.{attr}"


def test_traced_entries_build_and_count_leaves(tracer):
    # building a traced entry replaces DomainSet, Space, MappingInstance
    # and GalleryEntry fields by name, so a renamed field fails here
    t = tracer.Tracer()
    t.install()
    try:
        for name in list_maps():
            entry = fixpoint.cli.make_map(name)
            T = entry.mapping
            x = entry.sampler(np.random.default_rng(0))
            T.apply(x)
            T.domain.contains(x)
            T.space.rowwise_distance(x[None], x)
        n = len(list_maps())
        assert t.calls("gallery.apply") == n
        assert t.calls("core.contains") == n
        assert t.calls("core.rowwise_distance") == n
        assert t.calls("gallery.sampler") == n
    finally:
        t.uninstall()
    assert fixpoint.cli.make_map.__module__ == "fixpoint.gallery"


def test_traced_solve_counts_every_apply_of_the_float_drive(tracer,
                                                            tmp_path):
    # the one-coordinate maps are stepped on floats through the wrapped
    # leaves, so a traced solve counts each apply in the span that makes
    # it: tol is met after 999 steps, and the orbit replays them
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("experiment=solve\nmap=rakotch-decay\nx0=1.0\n"
                   "tol=1e-6\n")
    t = tracer.Tracer()
    t.install()
    try:
        assert fixpoint.cli.run_config(cfg, tmp_path / "out", None) == 0
    finally:
        t.uninstall()
    assert t.solve_iterations == 999
    assert t.calls("gallery.apply", "picard.solve_fixed_point") == 1000
    assert t.calls("gallery.apply", "picard.orbit_exact") == 999
    assert t.calls("core.distance", "picard.solve_fixed_point") == 1000
    assert t.calls("core.contains", "picard.solve_fixed_point") == 1000
    assert t.calls("core.contains", "picard.orbit_exact") == 1000


def test_traced_rotation_trace_counts_every_inner_iteration(tracer,
                                                            tmp_path,
                                                            monkeypatch):
    # planar-rotation's inner solves step on tuples, and apply, take the
    # residual and test membership once per iteration: the traced counts
    # inside solve_at_t are the untraced inner iterations, the warm
    # start's membership test among them, and every apply's residual
    cfg = tmp_path / "trace.cfg"
    cfg.write_text("experiment=trace\nmap=planar-rotation\nq=0.99\n"
                   "inner-tol=1e-12\ntarget-t=0.99\n")
    runs = []

    def recording(*args):
        runs.append(iterate(*args))
        return runs[-1]

    iterate = continuation._iterate
    monkeypatch.setattr(continuation, "_iterate", recording)
    assert fixpoint.cli.run_config(cfg, tmp_path / "plain", None) == 0
    monkeypatch.undo()
    # every solve converged, and its last apply gave the converged image
    assert runs and all(r.outside is None for r in runs)
    inner = sum(r.steps + 1 for r in runs)
    assert inner > 20 * len(runs)
    t = tracer.Tracer()
    t.install()
    try:
        assert fixpoint.cli.run_config(cfg, tmp_path / "traced", None) == 0
    finally:
        t.uninstall()
    solves = "continuation.solve_at_t"
    assert t.calls("gallery.apply", solves) == inner
    assert t.calls("core.contains", solves) == inner
    assert t.calls("core.distance", solves) == inner
    # and the traced run writes the plain run's reports
    plain = sorted((tmp_path / "plain").iterdir())
    assert [p.name for p in plain] == sorted(
        p.name for p in (tmp_path / "traced").iterdir())
    for p in plain:
        if p.name != "manifest.txt":
            assert (tmp_path / "traced" / p.name).read_bytes() == \
                p.read_bytes()
