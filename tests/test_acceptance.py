"""Acceptance gate: eight desk-scale criteria, one test and one printed
pass/fail line each.

Lines are printed with capture suspended so they stay visible in plain
pytest output; each line carries the measured values next to the verdict.
The bound-formula criterion re-evaluates every formula with 50-digit
arithmetic, applying the same documented near-integer snap convention as
the package (values within 1e-9 relative of an integer count as that
integer), so the two routes can only disagree if one of them is wrong.
"""

import math
import time

import mpmath as mp
import numpy as np

from fixpoint.continuation import (PathConfig, limit_path, solve_at_t,
                                   trace_path)
from fixpoint.core import constant_modulus, rational_decay_modulus
from fixpoint.errors import LsViolationError
from fixpoint.gallery import make_map
from fixpoint.picard import (coupling_index, orbit_exact,
                             run_stability_experiment, settling_index,
                             solve_fixed_point, stability_constants)


def _line(capsys, n: int, name: str, ok: bool, detail: str) -> None:
    text = (f"criterion {n} ({name}): "
            f"{'PASS' if ok else 'FAIL'} [{detail}]")
    with capsys.disabled():
        print(text, flush=True)
    assert ok, text


def test_criterion_1_rakotch_convergence(capsys):
    T = make_map("rakotch-decay").mapping
    start = time.perf_counter()
    res = solve_fixed_point(T, [1.0], 1e-6)
    orb = orbit_exact(T, [1.0], 1000)
    elapsed = time.perf_counter() - start
    drift = max(abs(orb.points[i, 0] - 1.0 / (i + 1))
                for i in range(1001))
    ok = (res.residual <= 1e-6 and abs(res.point[0]) <= 2e-3
          and drift <= 1e-12 and elapsed < 0.1)
    _line(capsys, 1, "rakotch convergence", ok,
          f"residual={res.residual:.3e} point={res.point[0]:.3e} "
          f"closed_form_drift={drift:.3e} time={elapsed:.3f}s")


def test_criterion_2_stability_certificate(capsys):
    T = make_map("rakotch-decay").mapping
    start = time.perf_counter()
    rep = run_stability_experiment(T, [0.0], 1.0, 0.1, trials=100,
                                   n=2000, seed=2026)
    elapsed = time.perf_counter() - start
    c = rep.constants
    ok = (abs(c.delta - 2.976190476190480e-4) <= 1e-16
          and c.k == 885
          and rep.pass_count == 100
          and rep.worst_margin <= 0.0
          and elapsed < 1.0)
    _line(capsys, 2, "perturbed-orbit stability", ok,
          f"delta={c.delta:.6e} k={c.k} pass={rep.pass_count}/100 "
          f"worst_margin={rep.worst_margin:.3e} time={elapsed:.3f}s")


def _mp_least_int_greater(v: mp.mpf) -> int:
    nearest = mp.nint(v)
    if abs(v - nearest) <= mp.mpf("1e-9") * max(mp.mpf(1), abs(v)):
        return int(nearest) + 1
    return int(mp.floor(v)) + 1


def test_criterion_3_bounds_vs_high_precision_oracle(capsys):
    mp.mp.dps = 50
    rng = np.random.default_rng(601)
    worst_rel = 0.0
    int_mismatch = 0
    for _ in range(1000):
        M = float(10.0 ** rng.uniform(-1, 1))
        eps = float(M * 10.0 ** rng.uniform(-2, 0))
        if rng.random() < 0.5:
            a = float(10.0 ** rng.uniform(-1, 1))
            modulus = rational_decay_modulus(a)

            def phi(t, a=a):
                return 1 / (1 + mp.mpf(a) * t)
        else:
            cval = float(rng.uniform(0.05, 0.95))
            modulus = constant_modulus(cval)

            def phi(t, cval=cval):
                return mp.mpf(cval)
        c0 = float(rng.uniform(0.0, 5.0))
        d0 = float(rng.uniform(0.0, 5.0))
        rad = float(rng.uniform(0.0, 5.0))
        e = mp.mpf(eps)
        gap = 1 - phi(e)

        k = settling_index(eps, modulus, c0, d0)
        k_mp = _mp_least_int_greater(
            (2 * mp.mpf(c0) + mp.mpf(d0)) / (e * gap))
        int_mismatch += k != k_mp

        k2 = coupling_index(eps, modulus, rad)
        k2_mp = _mp_least_int_greater(4 * mp.mpf(rad) / (gap * e))
        int_mismatch += k2 != k2_mp

        c = stability_constants(M, eps, modulus)
        d0_mp = mp.mpf(M) * (1 - phi(mp.mpf(M) / 2)) / 8
        d1_mp = e * (1 - phi(e / 2)) / 8
        delta_mp = min(d0_mp, d1_mp, e * gap / 4) / 2
        k3_mp = _mp_least_int_greater(4 * (mp.mpf(M) + 1) / (gap * e) + 4)
        int_mismatch += c.k != k3_mp
        for got, want in ((c.delta0, d0_mp), (c.delta1, d1_mp),
                          (c.delta, delta_mp)):
            worst_rel = max(worst_rel,
                            abs(mp.mpf(got) - want) / want)
    ok = int_mismatch == 0 and worst_rel <= 1e-12
    _line(capsys, 3, "bound formulas vs 50-digit oracle", ok,
          f"draws=1000 int_mismatches={int_mismatch} "
          f"worst_real_rel={float(worst_rel):.3e}")


def test_criterion_4_continuation_closed_form(capsys):
    path = trace_path(make_map("affine-halfline").mapping,
                      PathConfig(q=0.9, inner_tol=1e-10, target_t=0.9))
    worst = max(abs(e.x[0] - (-e.t / (2.0 - e.t))) for e in path.entries)
    worst_norm = max(abs(e.x[0]) for e in path.entries)
    ok = worst <= 1e-8 and worst_norm <= 5.0 and worst_norm <= 1.0
    _line(capsys, 4, "continuation closed form", ok,
          f"entries={len(path.entries)} worst_err={worst:.3e} "
          f"worst_norm={worst_norm:.6f} bounds=(5,1)")


def test_criterion_5_limit_extraction(capsys):
    start = time.perf_counter()
    x1, cert = limit_path(make_map("affine-halfline").mapping,
                          PathConfig(), 1e-6).terminal
    elapsed = time.perf_counter() - start
    err = abs(x1[0] - (-1.0))
    ok = err <= 1e-6 and cert.on_boundary and elapsed < 0.5
    _line(capsys, 5, "boundary limit extraction", ok,
          f"x1={x1[0]:.9f} err={err:.3e} "
          f"on_boundary={cert.on_boundary} time={elapsed:.3f}s")


def test_criterion_6_ls_violation_detection(capsys):
    t_seen = lam_seen = None
    try:
        trace_path(make_map("constant", c=2.0).mapping,
                   PathConfig(q=0.9, target_t=0.9))
    except LsViolationError as exc:
        t_seen, lam_seen = exc.t, exc.lam
    ok = (t_seen is not None and 0.49 <= t_seen <= 0.51
          and lam_seen is not None and 1.9 <= lam_seen <= 2.1)
    _line(capsys, 6, "boundary-condition violation", ok,
          f"t={t_seen} lambda={lam_seen}")


def test_criterion_7_lipschitz_certificate(capsys):
    path = trace_path(make_map("affine-halfline").mapping,
                      PathConfig(q=0.9, inner_tol=1e-10, target_t=0.9))
    worst_excess = -math.inf
    worst_ratio = 0.0
    for a, b in zip(path.entries, path.entries[1:]):
        gap = abs(b.x[0] - a.x[0])
        dt = b.t - a.t
        worst_excess = max(worst_excess, gap - (10.0 * dt + 2e-10))
        worst_ratio = max(worst_ratio, gap / dt)
    ok = worst_excess <= 0.0 and worst_ratio <= 2.0
    _line(capsys, 7, "parameter-to-point Lipschitz certificate", ok,
          f"worst_excess={worst_excess:.3e} "
          f"worst_ratio={worst_ratio:.6f}")


def test_criterion_8_affine_oracle(capsys):
    entry = make_map("planar-rotation")
    T = entry.mapping
    theta = entry.params["theta"]
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    b = np.array([entry.params["bx"], entry.params["by"]])
    worst = 0.0
    for t in (0.1, 0.5, 0.9):
        x, _ = solve_at_t(T, t, [0.0, 0.0], 1e-12)
        direct = np.linalg.solve(np.eye(2) - t * R, t * b)
        worst = max(worst, float(np.linalg.norm(x - direct)))
    ok = worst <= 1e-9
    _line(capsys, 8, "scaled-map solve vs linear algebra", ok,
          f"worst_err={worst:.3e} at t in (0.1, 0.5, 0.9)")
