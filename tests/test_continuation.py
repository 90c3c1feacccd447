import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from fixpoint.continuation import (ContinuationPath, PathConfig,
                                   _audit_boundary, apriori_norm_bound,
                                   check_leray_schauder, limit_path,
                                   lipschitz_bound, path_csv, solve_at_t,
                                   step_size, trace_path)
from fixpoint.core import (MappingInstance, Modulus, ball, box,
                           constant_modulus, euclidean, halfline, max_norm,
                           nonexpansive_modulus, rational_decay_modulus)
from fixpoint.errors import (ArgumentError, ConvergenceError, DomainError,
                             DomainExitError, LsViolationError,
                             NonFiniteError, NonRakotchError, StallError)
from fixpoint.gallery import make_map


def _affine() -> MappingInstance:
    return make_map("affine-halfline").mapping


def _const(c: float = 2.0) -> MappingInstance:
    return make_map("constant", c=c).mapping


# ---------------------------------------------------------------------------
# inner solves

def test_solve_at_t_affine_frozen():
    # x = t (x - 1)/2 has the solution -t/(2 - t); at t = 0.5 that is -1/3
    x, res = solve_at_t(_affine(), 0.5, [0.0], 1e-12)
    assert x[0] == pytest.approx(-1.0 / 3.0, abs=1e-11)
    assert res <= 1e-12


def test_solve_at_t_zero_collapses_to_origin():
    x, res = solve_at_t(_affine(), 0.0, [3.0], 1e-12)
    assert x[0] == 0.0
    assert res == 0.0


def test_solve_at_t_warm_start_within_tol_is_untouched():
    x0 = np.array([-1.0 / 3.0])
    x, res = solve_at_t(_affine(), 0.5, x0, 1e-6)
    assert x[0] == x0[0]


def test_solve_at_t_reports_domain_exit():
    # from x = 0.9 the scaled constant map jumps straight to 2 t > 1
    with pytest.raises(DomainExitError) as err:
        solve_at_t(_const(4.0), 0.5, [0.9], 1e-10)
    assert err.value.t == 0.5
    assert err.value.point is not None
    assert err.value.last_inside is not None


def _nan_map() -> MappingInstance:
    # NaN from every point of the whole line
    return MappingInstance(apply=lambda x: x * math.nan,
                           declared_modulus=constant_modulus(0.5),
                           domain=box([-math.inf], [math.inf]),
                           space=euclidean(1))


def test_solve_at_t_nan_image_is_non_finite_not_an_exit():
    with pytest.raises(NonFiniteError) as err:
        solve_at_t(_nan_map(), 0.5, [1.0], 1e-10)
    assert math.isnan(err.value.point[0])
    assert err.value.last_inside.tolist() == [1.0]


def test_stall_on_a_domain_without_finite_boundary_is_a_stall():
    # ||T x|| = 1e15 collapses the first step; the audit finds no finite
    # boundary face on the whole line and must leave the stall standing
    T = MappingInstance(apply=lambda x: x + 1e15,
                        declared_modulus=nonexpansive_modulus(),
                        domain=box([-math.inf], [math.inf]),
                        space=euclidean(1))
    with pytest.raises(StallError) as err:
        trace_path(T, PathConfig())
    assert err.value.t == 0.0


def test_paths_refuse_a_non_finite_image_of_zero():
    with pytest.raises(NonFiniteError) as err:
        trace_path(_nan_map(), PathConfig())
    assert err.value.last_inside.tolist() == [0.0]
    with pytest.raises(NonFiniteError):
        limit_path(_nan_map(), PathConfig(), 1e-6)


def test_solve_at_t_validates():
    with pytest.raises(ArgumentError):
        solve_at_t(_affine(), 1.0, [0.0], 1e-10)
    with pytest.raises(ArgumentError):
        solve_at_t(_affine(), 0.5, [0.0], 0.0)
    with pytest.raises(DomainError):
        solve_at_t(_affine(), 0.5, [-2.0], 1e-10)
    with pytest.raises(ConvergenceError):
        solve_at_t(_affine(), 0.9, [5.0], 1e-14, max_inner_iter=3)


# ---------------------------------------------------------------------------
# step rule and bounds

def test_step_size_frozen_values():
    # r (1-q)/(1+nTx) = 1 * 0.1 / 2 = 0.05, q - t0 = 0.9; half the min
    assert step_size(1.0, 0.9, 1.0, 0.0) == pytest.approx(0.025, rel=1e-14)
    # the q - t0 arm binds: min(0.05, 0.01) / 2
    assert step_size(1.0, 0.9, 1.0, 0.89) == pytest.approx(0.005)


def test_step_size_validates():
    with pytest.raises(ArgumentError):
        step_size(0.0, 0.9, 1.0, 0.0)
    with pytest.raises(ArgumentError):
        step_size(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ArgumentError):
        step_size(1.0, 0.9, 1.0, 0.9)
    with pytest.raises(ArgumentError):
        step_size(1.0, 0.9, -1.0, 0.0)


def test_step_size_guarantees_ball_invariance():
    # for the affine map, a step within the bound keeps the inner iterates
    # of the next parameter inside the r-ball of the current point
    T = _affine()
    t0, x0 = 0.4, np.array([-0.25])
    x0 = solve_at_t(T, t0, x0, 1e-13)[0]
    r = 0.5
    h = step_size(r, 0.9, abs((x0[0] - 1.0) / 2.0), t0)
    t1 = t0 + h
    x = np.array(x0)
    for _ in range(200):
        x = t1 * T.apply(x)
        assert abs(x[0] - x0[0]) <= r


def test_apriori_norm_bound_frozen():
    b = apriori_norm_bound(0.5, 0.9, constant_modulus(0.5))
    assert b.nonexpansive == pytest.approx(5.0)
    assert b.rakotch == 1.0
    b2 = apriori_norm_bound(0.0, 0.5, constant_modulus(0.5))
    assert b2.nonexpansive == 0.0 and b2.rakotch == 1.0
    b3 = apriori_norm_bound(2.0, 0.9, constant_modulus(0.5))
    assert b3.rakotch == pytest.approx(4.0)


def test_apriori_rakotch_bound_takes_the_closed_form_gap():
    # ||T 0|| / (1 - phi(1)) with phi(1) = 1 / (1 + a), exactly (1 + a) / a
    # at ||T 0|| = 1; the subtraction 1.0 - phi(1) cancelled for small a
    # (1000001.000061145 at a = 1e-6)
    with mpmath.workdps(50):
        for a in [1e-6, *np.geomspace(1e-6, 1e2, 41).tolist()]:
            got = apriori_norm_bound(1.0, 0.5,
                                     rational_decay_modulus(a)).rakotch
            exact = (1 + mpmath.mpf(a)) / mpmath.mpf(a)
            assert abs(got - exact) <= 4 * math.ulp(got), a


def test_apriori_norm_bound_sentinel_gives_infinite_rakotch():
    b = apriori_norm_bound(1.0, 0.5, nonexpansive_modulus())
    assert b.nonexpansive == 2.0
    assert math.isinf(b.rakotch)


def test_apriori_norm_bound_validates():
    with pytest.raises(ArgumentError):
        apriori_norm_bound(-1.0, 0.5, constant_modulus(0.5))
    with pytest.raises(ArgumentError):
        apriori_norm_bound(1.0, 1.0, constant_modulus(0.5))
    # a modulus flagged admissible whose gap at 1 is 0
    m = Modulus(kind="constant", params=(1.0,), rakotch=True,
                _fn=lambda t: 1.0, _gap=lambda t: 0.0)
    with pytest.raises(NonRakotchError, match="flagged admissible"):
        apriori_norm_bound(1.0, 0.9, m)


def test_lipschitz_bound_frozen():
    assert lipschitz_bound(0.0, 0.1, 1.0, 0.9) == pytest.approx(1.0)
    assert lipschitz_bound(0.3, 0.3, 1.0, 0.9) == 0.0
    assert lipschitz_bound(0.0, 0.9, 2.0, 0.9) == pytest.approx(18.0)


def test_lipschitz_bound_refuses_parameters_past_q():
    with pytest.raises(ArgumentError):
        lipschitz_bound(0.0, 0.95, 1.0, 0.9)
    with pytest.raises(ArgumentError):
        lipschitz_bound(0.0, 0.5, 0.0, 0.9)


# ---------------------------------------------------------------------------
# boundary condition

def test_ls_passes_at_affine_fixed_boundary_point():
    # T(-1) = -1 = 1 * (-1): the alignment ratio is exactly 1, not > 1
    assert check_leray_schauder(_affine(), [-1.0]) is None


def test_ls_detects_constant_map_violation():
    # T(1) = 2 = 2 * 1 on the boundary of [-1, 1]
    assert check_leray_schauder(_const(2.0), [1.0]) == 2.0


def test_ls_image_shrinking_inward_is_fine():
    T = MappingInstance(apply=lambda x: 0.2 * x,
                        declared_modulus=constant_modulus(0.2),
                        domain=box([-1.0], [1.0]), space=euclidean(1))
    assert check_leray_schauder(T, [1.0]) is None


def test_ls_validates():
    with pytest.raises(ArgumentError):
        check_leray_schauder(_const(), [0.2])    # not boundary
    with pytest.raises(ArgumentError):
        T = MappingInstance(apply=lambda x: x,
                            declared_modulus=constant_modulus(0.5),
                            domain=box([0.0 - 1e-12], [1.0]),
                            space=euclidean(1))
        check_leray_schauder(T, [0.0])           # x = 0
    with pytest.raises(DomainError, match="outside the closed domain") as err:
        check_leray_schauder(_const(), [1.5])
    assert err.value.point.tolist() == [1.5]


_ANGLES = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, 200)
_R90 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _audit_lams(image, R, inner_tol):
    """For each angle, the lam of the LsViolationError that _audit_boundary
    raises at R u (1 - 1e-15) on the disc of radius R for the map
    T x = image(x, u), or None where it raises nothing."""
    lams = []
    for a in _ANGLES:
        u = np.array([math.cos(a), math.sin(a)])
        T = MappingInstance(apply=lambda x, u=u: image(x, u),
                            declared_modulus=nonexpansive_modulus(),
                            domain=ball([0.0, 0.0], R), space=euclidean(2))
        try:
            _audit_boundary(T, R * u * (1.0 - 1e-15), 0.5, inner_tol)
        except LsViolationError as exc:
            lams.append(exc.lam)
        else:
            lams.append(None)
    return lams


@pytest.mark.parametrize("inner_tol", [1e-10, 1e-12])
@pytest.mark.parametrize("R", [1e-3, 1.0, 4.0, 1e3, 1e6])
def test_audit_catches_a_pinned_constant_map_at_every_scale(R, inner_tol):
    # T x = lam R u is lam times the boundary point R u: the audit must
    # report it however large the disc and however tight inner_tol
    for lam in (2.0, 1.01):
        lams = _audit_lams(lambda x, u: lam * R * u + 0.0 * x, R, inner_tol)
        assert lams.count(None) == 0
        assert lams == pytest.approx([lam] * 200, rel=1e-9)


@pytest.mark.parametrize("inner_tol", [1e-10, 1e-12])
@pytest.mark.parametrize("R", [1e-3, 1.0, 4.0, 1e3, 1e6])
def test_audit_passes_maps_that_keep_the_boundary_condition(R, inner_tol):
    # an image pulled inward (mu = 1/2) and one turned by 90 degrees
    # (mu = 1) satisfy the boundary condition everywhere
    assert _audit_lams(lambda x, u: 0.5 * x, R, inner_tol) == [None] * 200
    assert _audit_lams(lambda x, u: x.dot(_R90), R,
                       inner_tol) == [None] * 200


# ---------------------------------------------------------------------------
# path tracing

def _assert_within_apriori_bounds(T: MappingInstance,
                                  path: ContinuationPath) -> None:
    # every entry keeps the a-priori norm bounds for its t: the
    # nonexpansive one up to t = q, the rakotch one for an admissible
    # modulus, each with 1e-9 of slack
    norm = T.space.norm
    bounds = apriori_norm_bound(norm(T.apply(np.zeros(T.space.dimension))),
                                path.q, T.declared_modulus)
    for e in path.entries:
        if e.t <= path.q:
            assert norm(e.x) <= bounds.nonexpansive + 1e-9
        if T.declared_modulus.rakotch:
            assert norm(e.x) <= bounds.rakotch + 1e-9


def test_trace_affine_matches_closed_form():
    path = trace_path(_affine(), PathConfig(q=0.9, target_t=0.9))
    assert path.entries[0].t == 0.0
    assert path.final.t == 0.9
    for e in path.entries:
        want = -e.t / (2.0 - e.t)
        assert e.x[0] == pytest.approx(want, abs=1e-8)
        assert e.inner_residual <= path.inner_tol
    _assert_within_apriori_bounds(_affine(), path)


def test_trace_t_strictly_increasing_to_target():
    path = trace_path(_affine(), PathConfig(q=0.9, target_t=0.87))
    ts = [e.t for e in path.entries]
    assert ts == sorted(set(ts))
    assert ts[-1] == 0.87


def test_trace_entries_stay_interior():
    path = trace_path(_affine(), PathConfig(q=0.9, target_t=0.9))
    dom = _affine().domain
    for e in path.entries:
        assert dom.interior_contains(e.x)


def test_trace_recorded_steps_respect_the_rule():
    # each accepted step must not exceed half of
    # min(r (1-q_eff)/(1+||Tx||), q_eff - t0) at its source point, up to
    # the clamp onto the target
    T = _affine()
    path = trace_path(T, PathConfig(q=0.9, target_t=0.9))
    for prev, cur in zip(path.entries, path.entries[1:]):
        q_eff = max(0.9, 0.5 * (1.0 + prev.t))
        n_tx = abs(float(T.apply(prev.x)[0]))
        bound = 0.5 * min(cur.r_used * (1.0 - q_eff) / (1.0 + n_tx),
                          q_eff - prev.t)
        assert cur.step_bound_used <= bound + 1e-15


def test_trace_consecutive_points_obey_warm_containment():
    path = trace_path(_affine(), PathConfig(q=0.9, target_t=0.9))
    for prev, cur in zip(path.entries, path.entries[1:]):
        assert (abs(cur.x[0] - prev.x[0])
                <= cur.r_used + 2.0 * path.inner_tol)


def test_trace_past_q_needs_admissible_modulus():
    # contractive map continues past q toward its target
    path = trace_path(_affine(), PathConfig(q=0.9, target_t=0.97))
    assert path.final.t == pytest.approx(0.97)
    # nonexpansive map is clamped at q
    rot = make_map("planar-rotation").mapping
    path2 = trace_path(rot, PathConfig(q=0.9, target_t=0.97,
                                       inner_tol=1e-11))
    assert path2.final.t == 0.9


def test_trace_target_zero_gives_single_entry():
    path = trace_path(_affine(), PathConfig(q=0.9, target_t=0.0))
    assert len(path.entries) == 1
    assert path.entries[0].t == 0.0
    assert np.array_equal(path.entries[0].x, [0.0])


def test_trace_constant_map_hits_boundary_violation():
    with pytest.raises(LsViolationError) as err:
        trace_path(_const(2.0), PathConfig(q=0.9, target_t=0.9))
    assert err.value.t == pytest.approx(0.5, abs=1e-6)
    assert err.value.lam == pytest.approx(2.0, abs=1e-9)
    assert err.value.point is not None


def test_trace_requires_interior_origin():
    T = MappingInstance(apply=lambda x: x / 2.0,
                        declared_modulus=constant_modulus(0.5),
                        domain=halfline(0.0), space=euclidean(1))
    with pytest.raises(DomainError):
        trace_path(T, PathConfig())


def test_trace_rotation_matches_linear_solve():
    entry = make_map("planar-rotation")
    path = trace_path(entry.mapping, PathConfig(q=0.9, target_t=0.9,
                                                inner_tol=1e-12))
    for e in path.entries:
        want = entry.known_path(e.t)
        assert np.linalg.norm(e.x - want) <= 1e-10


# twelve random rotation traces to t = 0.9, each printed as the sha256 of
# its path.csv; with the 2-term dots on BLAS, 7 of them gave other bytes
# under Prescott and Haswell than under the default kernel
_TRACES = """
import hashlib, random
from fixpoint.continuation import PathConfig, path_csv, trace_path
from fixpoint.gallery import make_map
rng = random.Random(7)
for _ in range(12):
    theta = rng.uniform(0.2, 6.0)
    bx, by = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    T = make_map("planar-rotation", theta=theta, bx=bx, by=by,
                 radius=40.0).mapping
    path = trace_path(T, PathConfig(q=0.99, inner_tol=1e-12))
    print(hashlib.sha256("".join(path_csv(path)).encode()).hexdigest())
"""


def test_rotation_traces_give_the_same_bytes_on_every_blas_kernel():
    # a planar-rotation trace takes no BLAS call: its apply, norms and
    # distances are written out in + - * / and sqrt, so the OpenBLAS
    # kernel cannot change them.  Prescott has no fused multiply-add,
    # Haswell has one but orders a 2-term dot its own way
    src = str(Path(__file__).resolve().parents[1] / "src")
    hashes = {}
    for core in (None, "Prescott", "Haswell"):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        if core:
            env["OPENBLAS_CORETYPE"] = core
        proc = subprocess.run([sys.executable, "-c", _TRACES], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        hashes[core] = proc.stdout.split()
        assert len(hashes[core]) == 12
    assert hashes["Prescott"] == hashes[None]
    assert hashes["Haswell"] == hashes[None]


def test_path_config_validation():
    with pytest.raises(ArgumentError):
        PathConfig(q=1.0)
    with pytest.raises(ArgumentError):
        PathConfig(q=0.9, target_t=1.0)
    with pytest.raises(ArgumentError):
        PathConfig(q=0.9, inner_tol=0.0)


# ---------------------------------------------------------------------------
# limit extraction

def test_limit_affine_reaches_boundary_fixed_point():
    x1, cert = limit_path(_affine(), PathConfig(), 1e-6).terminal
    assert x1[0] == pytest.approx(-1.0, abs=1e-6)
    assert cert.on_boundary


def test_limit_damped_rational_interior():
    x1, cert = limit_path(make_map("damped-rational").mapping,
                          PathConfig(), 1e-6).terminal
    assert x1[0] == 0.0
    assert not cert.on_boundary


def test_limit_constant_inside_box():
    x1, cert = limit_path(make_map("constant", c=0.5).mapping,
                          PathConfig(), 1e-8).terminal
    assert x1[0] == pytest.approx(0.5, abs=1e-8)
    assert not cert.on_boundary


def test_limit_path_certificate_is_coherent():
    path = limit_path(_affine(), PathConfig(), 1e-6)
    x1, cert = path.terminal
    assert cert.residual <= 10.0 * 1e-6
    assert cert.tail_bound < 1e-6
    assert cert.schedule_steps == len(path.entries) - 1
    assert cert.on_boundary
    _assert_within_apriori_bounds(_affine(), path)
    ts = [e.t for e in path.entries]
    assert ts == sorted(ts)
    # the schedule is geometric: 1 - t halves each step
    for a, b in zip(path.entries[1:], path.entries[2:]):
        assert (1.0 - b.t) == pytest.approx((1.0 - a.t) / 2.0, rel=1e-12)


def test_limit_schedules_interlace_consistently():
    # two different geometric schedules must land on the same limit
    a, _ = limit_path(_affine(), PathConfig(), 1e-8,
                      schedule_ratio=0.5).terminal
    b, _ = limit_path(_affine(), PathConfig(), 1e-8,
                      schedule_ratio=0.618).terminal
    assert abs(a[0] - b[0]) <= 2e-8


def test_limit_refuses_nonexpansive():
    with pytest.raises(NonRakotchError):
        limit_path(make_map("planar-rotation").mapping, PathConfig(),
                   1e-6)


def test_limit_validates():
    with pytest.raises(ArgumentError):
        limit_path(_affine(), PathConfig(), 0.0)
    with pytest.raises(ArgumentError):
        limit_path(_affine(), PathConfig(), 1e-6, schedule_ratio=1.0)


def test_limit_schedule_that_runs_out_of_steps_reports_its_tail_bound():
    # 1 - 0.95^399 stays below 1.0, but the tail bound, 3.9e-9 at the
    # last step, never drops below final_tol
    with pytest.raises(ConvergenceError, match="exhausted 399 steps") as err:
        limit_path(_affine(), PathConfig(), 1e-12, schedule_ratio=0.95)
    assert 1e-12 < err.value.tail_bound < 1e-8
    assert err.value.residual is None


def test_limit_inner_exit_with_no_violation_is_an_ls_violation():
    # T x = 0.5 R_90 x + (3, 0) on the unit disk: at t = 0.5 the first
    # inner step from 0 lands on (1.5, 0), outside; the audit at the
    # boundary point (1, 0) nearest the last inside point 0 finds
    # T (1, 0) = (3, 0.5), no multiple of (1, 0)
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    T = MappingInstance(apply=lambda x: 0.5 * x.dot(R.T) + [3.0, 0.0],
                        declared_modulus=constant_modulus(0.5),
                        domain=ball([0.0, 0.0], 1.0), space=euclidean(2))
    with pytest.raises(LsViolationError, match="left the domain") as err:
        limit_path(T, PathConfig(), 1e-6)
    assert err.value.t == 0.5
    assert err.value.lam is None
    assert err.value.point.tolist() == [0.0, 0.0]


def test_limit_residual_guard_catches_a_false_modulus():
    # T x = 0.99 x + 1 declared with modulus 0: the tail bound trusts the
    # false modulus and stops while the residual is still about 4.8e-5
    T = MappingInstance(apply=lambda x: 0.99 * x + 1.0,
                        declared_modulus=constant_modulus(0.0),
                        domain=halfline(-1.0), space=euclidean(1))
    with pytest.raises(ConvergenceError, match="exceeds 10 \\* final_tol") \
            as err:
        limit_path(T, PathConfig(), 1e-6)
    assert 10.0 * 1e-6 < err.value.residual < 1e-4
    assert err.value.tail_bound is None


def test_trace_audits_a_solved_point_within_inner_tol_of_the_boundary():
    # x_t = 2 t meets the boundary 1 at t = 0.5; with inner_tol 1e-3 a
    # solved point comes within inner_tol of it while the step is still
    # far above the stall threshold, and its audit finds T 1 = 2 * 1
    with pytest.raises(LsViolationError, match="boundary condition fails") \
            as err:
        trace_path(_const(2.0), PathConfig(q=0.9, inner_tol=1e-3,
                                           target_t=0.9))
    assert 0.4995 - 1e-6 <= err.value.t < 0.5 - 1e-9
    assert err.value.lam == 2.0
    assert err.value.point.tolist() == [1.0]


# ---------------------------------------------------------------------------
# serialization

def test_path_csv_trace_layout():
    path = trace_path(_affine(), PathConfig(q=0.9, target_t=0.5))
    text = "".join(path_csv(path))
    lines = text.strip().split("\n")
    assert lines[0] == "t,x0,inner_residual,step_bound_used,r_used"
    assert len(lines) == len(path.entries) + 1
    assert lines[1].startswith("0.0,0.0,")
    assert text == "".join(path_csv(path))


def test_path_csv_limit_appends_terminal_row():
    path = limit_path(_affine(), PathConfig(), 1e-6)
    lines = "".join(path_csv(path)).strip().split("\n")
    assert len(lines) == len(path.entries) + 2
    assert lines[-1].startswith("1.0,")
