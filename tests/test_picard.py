import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixpoint.continuation import (PathConfig, check_leray_schauder,
                                   limit_path, solve_at_t)
from fixpoint.core import (MappingInstance, as_point, ball, box,
                           check_modulus_admissible, constant_modulus,
                           euclidean, halfline, max_norm,
                           rational_decay_modulus, nonexpansive_modulus,
                           verify_contractive, _frozen)
from fixpoint.errors import (ArgumentError, ConvergenceError, DomainError,
                             NonFiniteError, NonRakotchError,
                             NonselfExitError)
from fixpoint.gallery import make_map
from fixpoint.picard import (Orbit, StabilityReport, TrialRecord,
                             cluster_tolerance, coupling_index, orbit_csv,
                             orbit_exact, orbit_inexact,
                             run_stability_experiment, settling_index,
                             solve_fixed_point, stability_constants,
                             stability_report_text, _least_int_greater,
                             _ball_noise, _record_text)
from written_out import written_root


def _decay_map(a: float = 1.0) -> MappingInstance:
    return MappingInstance(apply=lambda x: x / (1.0 + a * x),
                           declared_modulus=rational_decay_modulus(a),
                           domain=halfline(0.0), space=euclidean(1))


def _affine_map() -> MappingInstance:
    return MappingInstance(apply=lambda x: (x - 1.0) / 2.0,
                           declared_modulus=constant_modulus(0.5),
                           domain=halfline(-1.0), space=euclidean(1))


# ---------------------------------------------------------------------------
# integer ceiling with snap

def test_least_int_greater_plain_cases():
    assert _least_int_greater(3.2) == 4
    assert _least_int_greater(0.0) == 1
    assert _least_int_greater(7.0) == 8


def test_least_int_greater_snaps_near_integers():
    # 220 - 3e-13 is an artifact of binary evaluation of a bound that is
    # exactly 220 in real arithmetic; it must not collapse to 220
    assert _least_int_greater(219.99999999999991) == 221
    assert _least_int_greater(883.9999999999997) == 885
    # a genuine fraction just below the snap window is unaffected
    assert _least_int_greater(219.9) == 220


# ---------------------------------------------------------------------------
# closed-form bounds, frozen against hand evaluation

def test_settling_index_frozen():
    # (2*1 + 0) / (0.1 * (1 - 1/1.1)) = 220 exactly; least integer above
    m = rational_decay_modulus()
    assert settling_index(0.1, m, 1.0, 0.0) == 221
    # constant modulus 1/2, eps = 1: (2 + 1) / 0.5 = 6
    assert settling_index(1.0, constant_modulus(0.5), 1.0, 1.0) == 7


def test_coupling_index_frozen():
    # 4 * 1 / ((1 - 1/1.1) * 0.1) = 440 exactly
    assert coupling_index(0.1, rational_decay_modulus(), 1.0) == 441
    # 4 * 0.5 / (0.5 * 1) = 4
    assert coupling_index(1.0, constant_modulus(0.5), 0.5) == 5


def test_cluster_tolerance_frozen():
    # 1 * (1 - 0.5) / 8
    assert cluster_tolerance(1.0, constant_modulus(0.5)) == 0.0625
    # 2 * (1 - 0.5) / 8
    assert cluster_tolerance(2.0, constant_modulus(0.5)) == 0.125


def test_bounds_reject_nonexpansive_and_bad_arguments():
    sentinel = nonexpansive_modulus()
    with pytest.raises(NonRakotchError):
        settling_index(0.1, sentinel, 1.0, 0.0)
    with pytest.raises(NonRakotchError):
        coupling_index(0.1, sentinel, 1.0)
    with pytest.raises(NonRakotchError):
        cluster_tolerance(0.1, sentinel)
    with pytest.raises(ArgumentError):
        settling_index(0.0, rational_decay_modulus(), 1.0, 0.0)
    with pytest.raises(ArgumentError):
        settling_index(0.1, rational_decay_modulus(), -1.0, 0.0)
    with pytest.raises(ArgumentError):
        coupling_index(0.1, rational_decay_modulus(), -1.0)
    with pytest.raises(ArgumentError):
        cluster_tolerance(0.0, constant_modulus(0.5))


_NAN = math.nan
_DECAY = rational_decay_modulus(1.0)


# each call once accepted its NaN argument: it returned a result, ran into
# a later error, or raised a bare ValueError; an iteration budget below 1
# is refused the same way, and so is a count or seed that is no integer,
# which raised a bare TypeError
@pytest.mark.parametrize("call", [
    lambda: solve_fixed_point(_decay_map(), [1.0], _NAN, max_iter=50),
    lambda: run_stability_experiment(_decay_map(), [0.0], 1.0, 0.1, 2, 900,
                                     0, delta_override=_NAN),
    lambda: verify_contractive(_decay_map(), [(1.0, 2.0)], slack=_NAN),
    lambda: check_leray_schauder(_affine_map(), [-1.0], tol=_NAN),
    lambda: PathConfig(inner_tol=_NAN),
    lambda: limit_path(_affine_map(), PathConfig(), final_tol=_NAN),
    lambda: orbit_inexact(_decay_map(), [1.0], 10, _NAN, 0),
    lambda: _DECAY(_NAN),
    lambda: _DECAY(np.array([0.5, _NAN])),
    lambda: cluster_tolerance(_NAN, _DECAY),
    lambda: settling_index(_NAN, _DECAY, 1.0, 0.0),
    lambda: settling_index(0.1, _DECAY, _NAN, 0.0),
    lambda: coupling_index(_NAN, _DECAY, 1.0),
    lambda: coupling_index(0.1, _DECAY, _NAN),
    lambda: constant_modulus(_NAN),
    lambda: rational_decay_modulus(_NAN),
    lambda: check_modulus_admissible(_DECAY, [0.0, _NAN]),
    lambda: solve_fixed_point(_decay_map(), [1.0], 1e-8, max_iter=0),
    lambda: solve_at_t(_affine_map(), 0.5, [0.0], 1e-10, max_inner_iter=0),
    lambda: PathConfig(max_inner_iter=0),
    lambda: orbit_inexact(_decay_map(), [1.0], 10, 1e-3, noise_seed=1.5),
    lambda: orbit_inexact(_decay_map(), [1.0], 10.5, 1e-3, noise_seed=1),
    lambda: orbit_exact(_decay_map(), [1.0], 10.5),
    lambda: run_stability_experiment(_decay_map(), [0.0], 1.0, 0.1, 2.5,
                                     900, 0),
    lambda: run_stability_experiment(_decay_map(), [0.0], 1.0, 0.1, 2,
                                     900.5, 0),
    lambda: run_stability_experiment(_decay_map(), [0.0], 1.0, 0.1, 2, 900,
                                     1.5),
    lambda: solve_fixed_point(_decay_map(), [1.0], 1e-8, max_iter=2.5),
    lambda: solve_at_t(_affine_map(), 0.5, [0.0], 1e-10,
                       max_inner_iter=2.5),
    lambda: PathConfig(max_inner_iter=2.5),
    lambda: orbit_exact(_decay_map(), [1.0], _NAN),
], ids=["solve-tol", "stability-delta", "verify-slack", "ls-tol",
        "path-inner-tol", "limit-final-tol", "orbit-delta", "modulus",
        "modulus-array", "cluster-delta", "settling-eps", "settling-radius",
        "coupling-eps", "coupling-radius", "constant-value", "decay-rate",
        "admissibility-grid",
        "solve-budget", "inner-budget", "path-budget",
        "orbit-seed-float", "orbit-length-float", "exact-length-float",
        "stability-trials-float", "stability-length-float",
        "stability-seed-float", "solve-budget-float", "inner-budget-float",
        "path-budget-float", "exact-length-nan"])
def test_nan_arguments_are_refused(call):
    with pytest.raises(ArgumentError):
        call()


def _disc_map() -> MappingInstance:
    return MappingInstance(apply=lambda x: 0.5 * x,
                           declared_modulus=constant_modulus(0.5),
                           domain=ball([0.0, 0.0], 1.0), space=euclidean(2))


# an infinite budget once drew infinite noise (NaN in d >= 2, from 0 * inf)
# and blamed the map for it with NonFiniteError; a negative seed escaped
# as numpy's ValueError
@pytest.mark.parametrize("call,name", [
    (lambda: orbit_inexact(make_map("rakotch-decay").mapping, [1.0], 10,
                           math.inf, 0), "perturbation bound"),
    (lambda: orbit_inexact(_disc_map(), [0.5, 0.0], 10, math.inf, 0),
     "perturbation bound"),
    (lambda: run_stability_experiment(_decay_map(), [0.0], 1.0, 0.1, 2,
                                      900, 0, delta_override=math.inf),
     "delta_override"),
    # an infinite slack passes any map, an infinite tol poses the
    # boundary condition at interior points
    (lambda: verify_contractive(
        dataclasses.replace(make_map("rakotch-decay").mapping,
                            declared_modulus=constant_modulus(0.0)),
        [(1.0, 2.0)], slack=math.inf), "slack"),
    (lambda: check_leray_schauder(make_map("planar-rotation").mapping,
                                  [0.5, 0.0], tol=math.inf), "tol"),
    (lambda: orbit_inexact(_decay_map(), [1.0], 10, 1e-3, -1),
     "noise_seed"),
    (lambda: run_stability_experiment(_decay_map(), [0.0], 1.0, 0.1, 2,
                                      900, -1), "seed"),
], ids=["orbit-inf-delta", "orbit-inf-delta-2d", "stability-inf-delta",
        "verify-inf-slack", "ls-inf-tol", "orbit-negative-seed",
        "stability-negative-seed"])
def test_infinite_budgets_and_negative_seeds_are_refused(call, name):
    with pytest.raises(ArgumentError, match=f"^{name} must be"):
        call()


@pytest.mark.parametrize("call,bound", [
    # eps (1 - phi(eps)) underflows to 0, or to a subnormal the bound
    # overflows against
    (lambda: stability_constants(1.0, 1e-300, _DECAY), "settling time"),
    (lambda: stability_constants(1.0, 1e-155, _DECAY), "settling time"),
    # 4 (M + 1) overflows
    (lambda: stability_constants(1e308, 0.1, _DECAY), "settling time"),
    (lambda: settling_index(0.1, _DECAY, math.inf, 0.0), "settling index"),
    (lambda: settling_index(1e-300, _DECAY, 1.0, 0.0), "settling index"),
    (lambda: coupling_index(1e-300, _DECAY, 1.0), "coupling index"),
    (lambda: coupling_index(0.1, _DECAY, math.inf), "coupling index"),
], ids=["stability-eps-1e-300", "stability-eps-1e-155", "stability-M-1e308",
        "settling-radius", "settling-eps", "coupling-eps", "coupling-radius"])
def test_an_index_past_the_largest_float_is_refused_naming_its_bound(
        call, bound):
    with pytest.raises(ArgumentError,
                       match=f"^{bound} bound .* exceeds the largest float"):
        call()


# admissible moduli: rational decay and a constant below 1
_ADMISSIBLE = st.one_of(
    st.floats(1e-3, 1e3).map(rational_decay_modulus),
    st.floats(0.0, 0.999).map(constant_modulus))
# 1e-12 to 1e3, the exponents spread evenly
_SCALE = st.builds(lambda m, k: m * 10.0 ** k,
                   st.floats(1.0, 10.0), st.integers(-12, 2))


@settings(max_examples=300)     # cheap draws: about a second
@given(_ADMISSIBLE, st.lists(_SCALE, min_size=2, max_size=2),
       st.lists(_SCALE, min_size=2, max_size=2), st.floats(0.0, 1e3),
       st.floats(0.0, 1e3))
def test_bound_monotonicity_in_epsilon(m, eps, seeds, radius, displacement):
    # a laxer accuracy target never asks for more steps or a smaller
    # budget; a wider seed ball never promises fewer steps or a smaller
    # interim budget delta0
    e_lo, e_hi = sorted(eps)
    M_lo, M_hi = sorted(max(M, e_hi) for M in seeds)
    lo, hi = (stability_constants(M_lo, e, m) for e in (e_lo, e_hi))
    settling = [settling_index(e, m, radius, displacement)
                for e in (e_lo, e_hi)]
    coupling = [coupling_index(e, m, radius) for e in (e_lo, e_hi)]
    cluster = [cluster_tolerance(e, m) for e in (e_lo, e_hi)]
    small, wide = (stability_constants(M, e_lo, m) for M in (M_lo, M_hi))
    assert hi.k <= lo.k and settling[1] <= settling[0]
    assert coupling[1] <= coupling[0]
    assert hi.delta >= lo.delta and hi.delta1 >= lo.delta1
    assert cluster[1] >= cluster[0]
    assert wide.k >= small.k and wide.delta0 >= small.delta0


def test_stability_constants_frozen_decay():
    c = stability_constants(1.0, 0.1, rational_decay_modulus())
    assert c.delta0 == pytest.approx(1.0 / 24.0, rel=1e-15)
    assert c.delta1 == pytest.approx(0.1 * (1 - 1 / 1.05) / 8.0, rel=1e-15)
    # delta1 < eps(1-phi(eps))/4 = 1/440 < delta0, so delta = delta1 / 2
    assert c.delta == pytest.approx(c.delta1 / 2.0, rel=0, abs=0)
    assert c.k == 885
    assert c.M == 1.0 and c.epsilon == 0.1


def test_stability_constants_frozen_constant_modulus():
    c = stability_constants(1.0, 1.0, constant_modulus(0.5))
    assert c.delta0 == 0.0625
    assert c.delta1 == 0.0625
    assert c.delta == 0.03125
    # 4 * 2 / 0.5 + 4 = 20
    assert c.k == 21


@settings(max_examples=300)
@given(st.floats(1e-3, 1e3), st.floats(0.0, allow_infinity=False),
       st.floats(0.0, 1.0))
def test_gap_is_one_minus_phi_within_two_ulp(a, t, c):
    # 1 - phi(t) at 50 digits, for every kind; rational decay's gap is the
    # one a subtraction 1.0 - phi(t) would cancel
    with mpmath.workdps(50):
        s = mpmath.mpf(a) * mpmath.mpf(t)
        cases = ((rational_decay_modulus(a), s / (1 + s)),
                 (constant_modulus(c), 1 - mpmath.mpf(c)),
                 (nonexpansive_modulus(), mpmath.mpf(0)))
        for m, exact in cases:
            got = m.gap(t)
            assert isinstance(got, float)
            assert abs(mpmath.mpf(got) - exact) <= 2 * math.ulp(float(exact))


def test_gap_limits_and_validation():
    m = rational_decay_modulus(2.0)
    assert m.gap(0.0) == 0.0
    assert m.gap(1e308) == 1.0 and m.gap(math.inf) == 1.0   # a t overflows
    assert m.gap(1e-300) == 2e-300     # 1.0 - phi(1e-300) is 0.0
    for t in (-1.0, math.nan):
        with pytest.raises(ArgumentError, match=">= 0"):
            m.gap(t)


def test_stability_constants_keep_a_gap_below_the_float_epsilon():
    # 1.0 - phi(eps) cancelled here: k came out 6.6e8 steps short at
    # eps = 1e-9, and eps = 1e-17 was refused with NonRakotchError
    m = rational_decay_modulus(1.0)
    with mpmath.workdps(50):
        for eps in (1e-9, 1e-17):
            c = stability_constants(1.0, eps, m)
            e = mpmath.mpf(eps)
            exact = 4 * 2 / (e / (1 + e) * e) + 4   # k's real-number bound
            if eps == 1e-9:
                assert c.k > exact
            # no outward rounding yet: k may sit ulps below at 1e-17
            assert abs(c.k - exact) <= 1e-15 * exact
    assert cluster_tolerance(1e-17, m) > 0.0
    assert coupling_index(1e-17, m, 1.0) > 1e34


def test_stability_constants_validation():
    m = rational_decay_modulus()
    with pytest.raises(ArgumentError):
        stability_constants(0.0, 0.1, m)
    with pytest.raises(ArgumentError):
        stability_constants(1.0, 2.0, m)    # epsilon > M
    with pytest.raises(NonRakotchError):
        stability_constants(1.0, 0.5, nonexpansive_modulus())
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ArgumentError, match="finite"):
            stability_constants(bad, 0.1, m)
        with pytest.raises(ArgumentError, match="finite"):
            stability_constants(1.0, bad, m)


def test_stability_delta_never_exceeds_its_three_floors():
    # the floors are taken at 50 digits: a reference written as
    # 1.0 - phi(eps) in floats cancels, and could hide a bound on the
    # wrong side of the exact one
    rng = np.random.default_rng(43)
    for _ in range(200):
        M = float(10.0 ** rng.uniform(-2, 2))
        eps = M * float(10.0 ** rng.uniform(-3, 0))
        a = float(10.0 ** rng.uniform(-2, 2))
        c = stability_constants(M, eps, rational_decay_modulus(a))
        with mpmath.workdps(50):
            M_, e = mpmath.mpf(M), mpmath.mpf(eps)

            def gap(t):
                return 1 - 1 / (1 + mpmath.mpf(a) * t)

            floors = min(M_ * gap(M_ / 2) / 8, e * gap(e / 2) / 8,
                         e * gap(e) / 4)
            assert c.delta <= floors / 2 * (1 + mpmath.mpf(1e-15))
            assert c.k > 4 * (M_ + 1) / (gap(e) * e)


# ---------------------------------------------------------------------------
# orbits

def test_orbit_exact_matches_closed_form():
    # x_{i+1} = x_i / (1 + x_i) from 1 gives x_i = 1/(i+1)
    orb = orbit_exact(_decay_map(), [1.0], 50)
    for i in range(51):
        assert orb.points[i, 0] == pytest.approx(1.0 / (i + 1), abs=1e-15)
    assert orb.exited_domain_at is None
    assert orb.perturbation_bound == 0.0
    assert np.all(orb.residuals == 0.0)
    assert len(orb) == 51


def test_orbit_exact_records_domain_exit():
    # constant map to 2 leaves [-1, 1] on the first step
    T = MappingInstance(apply=lambda x: np.array([2.0]),
                        declared_modulus=constant_modulus(0.0),
                        domain=box([-1.0], [1.0]), space=euclidean(1))
    orb = orbit_exact(T, [0.5], 10)
    assert orb.exited_domain_at == 1
    assert len(orb) == 2
    assert orb.points[1, 0] == 2.0


def test_orbit_exact_validates_input():
    with pytest.raises(ArgumentError):
        orbit_exact(_decay_map(), [1.0], 0)
    with pytest.raises(DomainError):
        orbit_exact(_decay_map(), [-1.0], 5)


def test_orbit_inexact_zero_delta_equals_exact():
    ex = orbit_exact(_decay_map(), [1.0], 40)
    inx = orbit_inexact(_decay_map(), [1.0], 40, 0.0, noise_seed=5)
    assert np.array_equal(ex.points, inx.points)
    assert np.array_equal(ex.residuals, inx.residuals)
    assert ex.exited_domain_at == inx.exited_domain_at


def test_orbit_inexact_residuals_bounded_by_delta():
    delta = 1e-2
    orb = orbit_inexact(_decay_map(), [1.0], 500, delta, noise_seed=17)
    assert orb.exited_domain_at is None
    assert np.all(orb.residuals <= delta)
    assert np.any(orb.residuals > 0.0)
    assert orb.perturbation_bound == delta


def test_orbit_inexact_projection_keeps_orbit_inside():
    # near the boundary 0 the noise constantly tries to leave [0, inf)
    T = _decay_map()
    orb = orbit_inexact(T, [1e-3], 2000, 1e-2, noise_seed=19)
    assert orb.exited_domain_at is None
    assert np.all(orb.points >= 0.0)
    assert np.all(orb.residuals <= 1e-2)


def test_orbit_inexact_is_reproducible():
    a = orbit_inexact(_decay_map(), [1.0], 100, 1e-3, noise_seed=23)
    b = orbit_inexact(_decay_map(), [1.0], 100, 1e-3, noise_seed=23)
    c = orbit_inexact(_decay_map(), [1.0], 100, 1e-3, noise_seed=24)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_orbit_inexact_genuine_exit_is_recorded():
    # map into 2 with the domain only reaching 1: exits immediately and the
    # exiting point is kept
    T = MappingInstance(apply=lambda x: np.full(np.shape(x), 2.0),
                        declared_modulus=constant_modulus(0.0),
                        domain=box([-1.0], [1.0]), space=euclidean(1))
    orb = orbit_inexact(T, [0.0], 10, 1e-3, noise_seed=29)
    assert orb.exited_domain_at == 1
    assert abs(orb.points[1, 0] - 2.0) <= 1e-3


def test_orbit_inexact_validates_delta():
    with pytest.raises(ArgumentError):
        orbit_inexact(_decay_map(), [1.0], 10, -1e-3, noise_seed=1)


def test_orbit_inexact_refuses_a_map_of_points_only():
    # the orbit is stepped as a (1, d) array of rows, as a one-trial
    # stability run is, and a map that only takes a point is refused
    T = MappingInstance(apply=lambda x: np.array([2.0]),
                        declared_modulus=constant_modulus(0.0),
                        domain=box([-1.0], [1.0]), space=euclidean(1))
    with pytest.raises(ArgumentError, match="row by row"):
        orbit_inexact(T, [0.0], 10, 1e-3, noise_seed=29)


# ---------------------------------------------------------------------------
# fixed-point solve

def test_solve_fixed_point_decay_frozen():
    res = solve_fixed_point(_decay_map(), [1.0], 1e-6)
    # residual 1/((i+1)(i+2)) first dips under 1e-6 at i = 999
    assert res.iterations == 999
    assert res.point[0] == pytest.approx(1e-3, rel=1e-12)
    assert res.residual <= 1e-6


def test_solve_fixed_point_affine_frozen():
    res = solve_fixed_point(_affine_map(), [3.0], 1e-12)
    # x_i = -1 + 4 * 2^-i, residual 2^(1-i): 41 steps to get under 1e-12
    assert res.iterations == 41
    assert res.point[0] == pytest.approx(-1.0 + 4.0 * 2.0 ** -41, abs=0)
    assert res.residual <= 1e-12


def test_solve_fixed_point_zero_iterations_at_fixed_point():
    res = solve_fixed_point(_affine_map(), [-1.0], 1e-9)
    assert res.iterations == 0
    assert res.residual == 0.0


def test_solve_fixed_point_budget_error_carries_residual():
    with pytest.raises(ConvergenceError) as err:
        solve_fixed_point(_decay_map(), [1.0], 1e-6, max_iter=10)
    assert err.value.residual is not None
    assert err.value.residual > 1e-6


def test_solve_fixed_point_nonself_exit_carries_partial_orbit():
    T = MappingInstance(apply=lambda x: np.array([2.0]),
                        declared_modulus=constant_modulus(0.0),
                        domain=box([-1.0], [1.0]), space=euclidean(1))
    with pytest.raises(NonselfExitError) as err:
        solve_fixed_point(T, [0.0], 1e-9)
    orb = err.value.orbit
    assert isinstance(orb, Orbit)
    assert orb.exited_domain_at == 1
    assert orb.points[1, 0] == 2.0


def test_solve_fixed_point_partial_orbit_is_the_exact_orbit_to_the_exit():
    T = MappingInstance(apply=lambda x: 2.0 * x + 1.0,
                        declared_modulus=constant_modulus(0.5),
                        domain=box([-10.0], [10.0]), space=euclidean(1))
    with pytest.raises(NonselfExitError, match="iterate 4 left") as err:
        solve_fixed_point(T, [0.0], 1e-9)
    orb = err.value.orbit
    assert orb.points[:, 0].tolist() == [0.0, 1.0, 3.0, 7.0, 15.0]
    assert orb.exited_domain_at == 4
    assert orb.residuals.tolist() == [0.0] * 4


def _nan_map() -> MappingInstance:
    # NaN from every point of the whole line
    return MappingInstance(apply=lambda x: x * math.nan,
                           declared_modulus=constant_modulus(0.5),
                           domain=box([-math.inf], [math.inf]),
                           space=euclidean(1))


def test_solve_fixed_point_nan_image_is_non_finite_not_an_exit():
    with pytest.raises(NonFiniteError) as err:
        solve_fixed_point(_nan_map(), [1.0], 1e-9)
    assert math.isnan(err.value.point[0])
    assert err.value.last_inside.tolist() == [1.0]


def test_solve_fixed_point_infinite_image_inside_is_non_finite():
    # +inf lies in the whole-line box, so only the residual can tell
    T = MappingInstance(apply=lambda x: x * math.inf,
                        declared_modulus=constant_modulus(0.5),
                        domain=box([-math.inf], [math.inf]),
                        space=euclidean(1))
    with pytest.raises(NonFiniteError) as err:
        solve_fixed_point(T, [1.0], 1e-9)
    assert err.value.point.tolist() == [math.inf]


@pytest.mark.parametrize("float_points", [True, False])
@pytest.mark.parametrize("name,iterations", [("affine-halfline", 564),
                                             ("rakotch-decay", 100_000)])
def test_residual_overflow_between_finite_points_is_not_non_finite(
        name, iterations, float_points):
    # from 1e160 the first residuals square past the largest float while
    # every iterate is finite: the solve goes on, on floats or on arrays
    T = dataclasses.replace(make_map(name).mapping,
                            float_points=float_points)
    res = solve_fixed_point(T, [1e160], 1e-10, 100_000)
    assert res.iterations == iterations and res.residual <= 1e-10
    assert res.point.shape == (1,) and not res.point.flags.writeable


def test_residual_overflow_of_a_custom_map_is_not_non_finite():
    # x / 2 on the whole line from 1e308: the first residual is inf
    T = MappingInstance(apply=lambda x: x / 2.0,
                        declared_modulus=constant_modulus(0.5),
                        domain=box([-math.inf], [math.inf]),
                        space=euclidean(1))
    res = solve_fixed_point(T, [1e308], 1e-6, 5000)
    assert 0.0 < res.residual <= 1e-6
    assert res.point.tolist() == [2.0 * res.residual]


def test_residual_of_a_two_coordinate_solve_far_out_is_finite():
    # from 1e160 the residual's square overflows in two coordinates as in
    # one: the space takes it in its own units, so the budget ends in a
    # ConvergenceError with a finite residual and no warning
    T = MappingInstance(apply=lambda x: x / 2.0,
                        declared_modulus=constant_modulus(0.5),
                        domain=ball([0.0, 0.0], 1e300), space=euclidean(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as err:
            solve_fixed_point(T, [1e160, 0.0], 1e-10, max_iter=2)
    assert err.value.residual == 1.25e159
    assert "(last residual 1.25e+159)" in str(err.value)


def test_orbit_exact_nan_image_is_non_finite():
    with pytest.raises(NonFiniteError):
        orbit_exact(_nan_map(), [1.0], 5)


def test_orbit_exact_infinite_image_inside_is_non_finite():
    # +inf lies in the whole-line box, so no exit flags it
    T = MappingInstance(apply=lambda x: x * math.inf,
                        declared_modulus=constant_modulus(0.5),
                        domain=box([-math.inf], [math.inf]),
                        space=euclidean(1))
    with pytest.raises(NonFiniteError) as err:
        orbit_exact(T, [1.0], 3)
    assert err.value.point.tolist() == [math.inf]
    assert err.value.last_inside.tolist() == [1.0]


def test_orbit_inexact_nan_image_is_non_finite_not_an_exit():
    with pytest.raises(NonFiniteError) as err:
        orbit_inexact(_nan_map(), [1.0], 3, 0.1, 1)
    assert math.isnan(err.value.point[0])
    assert err.value.last_inside.tolist() == [1.0]


def test_orbit_inexact_reports_the_non_finite_image_not_its_perturbation():
    # the payload is T x itself: its finite coordinate carries no noise
    T = MappingInstance(apply=lambda x: np.full(np.shape(x),
                                                [math.nan, 0.5]),
                        declared_modulus=constant_modulus(0.0),
                        domain=ball([0.0, 0.0], 1.0), space=euclidean(2))
    with pytest.raises(NonFiniteError) as err:
        orbit_inexact(T, [0.0, 0.0], 3, 0.1, 1)
    assert math.isnan(err.value.point[0]) and err.value.point[1] == 0.5
    assert err.value.last_inside.tolist() == [0.0, 0.0]


def test_an_overflowing_map_ends_in_non_finite_error_not_a_warning():
    # x -> 1e200 x overflows to +inf, inside [0, inf): the perturbed steps
    # run the map with no warning, so under the suite's
    # error::RuntimeWarning filter the run still ends in the typed error
    T = _halfline_map(lambda x: 1e200 * x)
    with pytest.raises(NonFiniteError):
        run_stability_experiment(T, [0.0], 1.0, 1.0, 12, 21, seed=3)
    with pytest.raises(NonFiniteError) as err:
        orbit_inexact(T, [1.0], 5, 0.1, 1)
    assert err.value.point.tolist() == [math.inf]
    assert 1e199 < err.value.last_inside[0] < math.inf


class _ZeroDirections:
    """A generator for run_stability_experiment whose every direction is
    the zero vector and every radius draw r."""

    def __init__(self, r: float):
        self.r = r

    def standard_normal(self, d):
        return np.zeros(d)

    def random(self):
        return self.r

    def integers(self, lo, hi):
        return lo


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stability_start_with_a_zero_direction_takes_the_first_axis(
        d, monkeypatch):
    # a drawn direction of norm below 1e-300 is replaced by e_0, so the
    # start is xbar + M r^(1/d) e_0
    xbar, M, r = np.arange(1.0, d + 1.0) / 8, 0.5, 0.125
    T = MappingInstance(apply=lambda x: xbar + (x - xbar) / 2,
                        declared_modulus=constant_modulus(0.5),
                        domain=box([-4.0] * d, [4.0] * d),
                        space=euclidean(d))
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _ZeroDirections(r))
    report = run_stability_experiment(T, xbar, M, 0.25, trials=2, n=200,
                                      seed=0, delta_override=0.0)
    e0 = np.eye(d)[0]
    for trial in report.trials:
        assert trial.x0.tolist() == (xbar + e0 * (M * r ** (1.0 / d))
                                     ).tolist()
        assert trial.passed


def test_stability_trials_with_nan_images_are_non_finite():
    # fixed at 0, but NaN from every start above 0.3: those trials must
    # not pass for ordinary failures with worst = inf
    T = MappingInstance(apply=lambda x: np.where(x > 0.3, math.nan, x / 2),
                        declared_modulus=constant_modulus(0.5),
                        domain=box([-math.inf], [math.inf]),
                        space=euclidean(1))
    with pytest.raises(NonFiniteError) as err:
        run_stability_experiment(T, [0.0], 1.0, 0.5, trials=10, n=40,
                                 seed=0)
    assert math.isnan(err.value.point[0])
    assert err.value.last_inside[0] > 0.3


def test_stability_trials_with_infinite_points_inside_are_non_finite():
    # +inf lies in the whole-line box, so those trials never exit; they
    # used to fail quietly with worst = inf
    T = MappingInstance(apply=lambda x: np.where(x > 0.3, math.inf, x / 2),
                        declared_modulus=constant_modulus(0.5),
                        domain=box([-math.inf], [math.inf]),
                        space=euclidean(1))
    with pytest.raises(NonFiniteError, match="infinite point inside"):
        run_stability_experiment(T, [0.0], 1.0, 0.5, trials=10, n=40,
                                 seed=0)


def test_stability_trials_let_the_maps_own_errors_through():
    # a singular solve on the batch is the map's failure, not an apply
    # that fails to map the (trials, d) rows one by one, even though the
    # single-row applies succeed
    def apply(x):
        if x.ndim == 2:
            raise np.linalg.LinAlgError("singular batch")
        return x / 2.0

    T = MappingInstance(apply=apply, declared_modulus=constant_modulus(0.5),
                        domain=box([-math.inf], [math.inf]),
                        space=euclidean(1))
    with pytest.raises(np.linalg.LinAlgError, match="singular batch"):
        run_stability_experiment(T, [0.0], 1.0, 0.5, trials=4, n=40, seed=0)


def test_solve_fixed_point_refuses_nonexpansive():
    T = MappingInstance(apply=lambda x: x,
                        declared_modulus=nonexpansive_modulus(),
                        domain=halfline(0.0), space=euclidean(1))
    with pytest.raises(NonRakotchError):
        solve_fixed_point(T, [1.0], 1e-9)


# ---------------------------------------------------------------------------
# stability experiment

def test_stability_experiment_small_batch_passes():
    rep = run_stability_experiment(_decay_map(), [0.0], 1.0, 0.5,
                                   trials=10, n=200, seed=3)
    assert rep.all_passed
    assert rep.pass_count == 10
    assert rep.worst_margin <= 0.0
    assert not rep.constants_violated
    assert rep.delta_used == rep.constants.delta
    for t in rep.trials:
        assert t.worst <= 0.5
        assert abs(t.x0[0]) <= 1.0 + 1e-12


def test_stability_experiment_is_reproducible():
    a = run_stability_experiment(_decay_map(), [0.0], 1.0, 0.5,
                                 trials=5, n=200, seed=3)
    b = run_stability_experiment(_decay_map(), [0.0], 1.0, 0.5,
                                 trials=5, n=200, seed=3)
    assert [t.worst for t in a.trials] == [t.worst for t in b.trials]


def test_stability_experiment_flags_oversized_override():
    rep = run_stability_experiment(_decay_map(), [0.0], 1.0, 0.5,
                                   trials=3, n=200, seed=3,
                                   delta_override=0.4)
    assert rep.constants_violated
    assert rep.delta_used == 0.4


def test_stability_experiment_oversized_delta_actually_fails():
    # noise far beyond the certified budget equilibrates the orbit around
    # the x solving x^2/(1+x) ~ delta, which for delta = 0.4 sits near
    # 0.85, past eps = 0.5
    rep = run_stability_experiment(_decay_map(), [0.0], 1.0, 0.5,
                                   trials=5, n=300, seed=9,
                                   delta_override=0.4)
    assert not rep.all_passed


def test_stability_experiment_validates_inputs():
    with pytest.raises(ArgumentError):
        run_stability_experiment(_decay_map(), [0.5], 1.0, 0.5,
                                 trials=3, n=200, seed=1)   # not fixed
    with pytest.raises(ArgumentError):
        run_stability_experiment(_decay_map(), [0.0], 1.0, 0.5,
                                 trials=3, n=3, seed=1)     # n below k
    with pytest.raises(ArgumentError):
        run_stability_experiment(_decay_map(), [0.0], 1.0, 0.5,
                                 trials=0, n=200, seed=1)


def test_stability_refuses_a_fixed_point_whose_image_is_not_finite():
    # NaN fails drift > 1e-10, so xbar = 0 once passed as fixed; a trial
    # that exits is parked at xbar, whose image must be finite
    for value in (math.nan, math.inf):
        T = MappingInstance(
            apply=lambda x, v=value: np.where(x == 0.0, v, x / 2.0),
            declared_modulus=constant_modulus(0.5), domain=box([-1.0], [1.0]),
            space=euclidean(1))
        with pytest.raises(NonFiniteError, match="non-finite") as err:
            run_stability_experiment(T, [0.0], 1.0, 0.5, trials=3, n=200,
                                     seed=1)
        assert err.value.last_inside.tolist() == [0.0]


def test_stability_drift_guard_refuses_a_nan_drift():
    # a distance that is NaN between finite points fails the guard too
    T = _decay_map()
    T = dataclasses.replace(T, space=dataclasses.replace(
        T.space, distance=lambda a, b: math.nan))
    with pytest.raises(ArgumentError, match="not fixed"):
        run_stability_experiment(T, [0.0], 1.0, 0.5, trials=3, n=200, seed=1)


def test_stability_start_the_domain_cannot_place_is_a_domain_error():
    # a project that breaks its contract hands the drawn start back
    # unchanged, still outside the box, and the draw is refused
    dom = dataclasses.replace(box([-1e-3], [1e-3]), project=lambda p: p)
    T = MappingInstance(apply=lambda x: x / 2.0,
                        declared_modulus=constant_modulus(0.5), domain=dom,
                        space=euclidean(1))
    with pytest.raises(DomainError, match="could not be placed") as err:
        run_stability_experiment(T, [0.0], 1.0, 0.5, trials=3, n=200, seed=1)
    assert not dom.contains(err.value.point)


# ---------------------------------------------------------------------------
# the batched experiment against the one-trial-at-a-time loop it replaced

def _reference_rowwise(T, a, b):
    if T.space.rowwise_distance is not None:
        return T.space.rowwise_distance(a, b)
    if b.ndim == 1:
        return np.array([T.space.distance(p, b) for p in a])
    return np.array([T.space.distance(p, q) for p, q in zip(a, b)])


def _reference_orbit_inexact(T, x0, n, delta, noise_seed):
    """Frozen copy of the scalar perturbed-orbit loop: one point per
    step through the point forms of apply, contains and project."""
    d = T.space.dimension
    x = as_point(x0, d)
    perturbed = delta > 0.0
    if perturbed:
        rng = np.random.default_rng(noise_seed)
        dirs = rng.standard_normal((n, d))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True),
                           1e-300)
        radii = delta * rng.random(n) ** (1.0 / d) * (1.0 - 1e-9)
        noise = dirs * radii[:, None]
    pts = np.empty((n + 1, d))
    images = np.empty((n, d))
    pts[0] = x
    exited = None
    m = n
    for i in range(n):
        y = T.apply(x)
        images[i] = y
        cand = y + noise[i] if perturbed else y
        if not T.domain.contains(cand):
            if T.domain.project is not None and T.domain.contains(y):
                cand = T.domain.project(cand)
            else:
                pts[i + 1] = cand
                exited = i + 1
                m = i + 1
                break
        pts[i + 1] = cand
        x = cand
    pts = pts[:m + 1]
    res = (_reference_rowwise(T, pts[1:], images[:m]) if perturbed
           else np.zeros(m))
    return Orbit(points=_frozen(pts), residuals=_frozen(res),
                 exited_domain_at=exited, perturbation_bound=delta)


def _reference_stability(T, xbar, M, epsilon, trials, n, seed,
                         delta_override=None):
    """Frozen copy of the per-trial stability loop: one orbit per trial,
    then the rowwise max over [k:]."""
    d = T.space.dimension
    xb = as_point(xbar, d)
    consts = stability_constants(M, epsilon, T.declared_modulus)
    delta_used = consts.delta if delta_override is None else delta_override
    rng = np.random.default_rng(seed)
    records = []
    for trial in range(trials):
        direction = rng.standard_normal(d)
        nrm = written_root(direction)
        if nrm < 1e-300:
            direction = np.zeros(d)
            direction[0] = 1.0
            nrm = 1.0
        x0 = xb + direction * (M * rng.random() ** (1.0 / d) / nrm)
        if not T.domain.contains(x0) and T.domain.project is not None:
            x0 = T.domain.project(x0)
        noise_seed = int(rng.integers(0, 2 ** 63))
        orb = _reference_orbit_inexact(T, x0, n, delta_used, noise_seed)
        if orb.exited_domain_at is not None:
            worst = math.inf
        else:
            worst = float(np.max(_reference_rowwise(
                T, orb.points[consts.k:], xb)))
        records.append(TrialRecord(trial=trial, x0=_frozen(x0), worst=worst,
                                   passed=worst <= epsilon))
    return StabilityReport(
        constants=consts, delta_used=delta_used,
        constants_violated=(delta_override is not None
                            and delta_override > consts.delta),
        n=n, trials=tuple(records))


def _assert_same_report(T, xbar, M, epsilon, trials, n, seed,
                        delta_override=None):
    batched = run_stability_experiment(T, xbar, M, epsilon, trials, n, seed,
                                       delta_override=delta_override)
    ref = _reference_stability(T, xbar, M, epsilon, trials, n, seed,
                               delta_override=delta_override)
    assert stability_report_text(batched) == stability_report_text(ref)
    return batched


# (map name, map params, M, epsilon, n): every gallery map the stability
# experiment accepts, with n just past the settling index k
_GALLERY_CASES = [
    ("affine-halfline", {}, 1.0, 0.1, 170),
    ("rakotch-decay", {"a": 1.0}, 1.0, 0.1, 900),
    ("constant", {"c": 0.5}, 1.0, 0.1, 100),
    ("damped-rational", {}, 1.0, 0.1, 170),
]


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name,params,M,eps,n", _GALLERY_CASES)
def test_batched_stability_report_matches_per_trial_loop(name, params, M,
                                                         eps, n, seed):
    entry = make_map(name, **params)
    _assert_same_report(entry.mapping, entry.known_fixed_point, M, eps,
                        trials=12, n=n, seed=seed)


def test_batched_stability_single_trial_matches():
    T = make_map("rakotch-decay").mapping
    _assert_same_report(T, [0.0], 1.0, 0.1, trials=1, n=900, seed=4)


def test_batched_stability_matches_when_trials_exit():
    # T x = -x/2 on [-0.1, inf): a point past 0.2 maps below -0.1, so a
    # trial whose noise carries it there leaves the domain for good
    T = MappingInstance(apply=lambda x: -0.5 * x,
                        declared_modulus=constant_modulus(0.5),
                        domain=halfline(-0.1), space=euclidean(1))
    rep = _assert_same_report(T, [0.0], 0.15, 0.1, trials=20, n=120,
                              seed=5, delta_override=0.16)
    exits = sum(1 for t in rep.trials if t.worst == math.inf)
    assert 0 < exits < 20


def _halfline_map(apply) -> MappingInstance:
    return MappingInstance(apply=apply,
                           declared_modulus=constant_modulus(0.5),
                           domain=halfline(0.0), space=euclidean(1))


def test_batched_stability_matches_with_exits_at_a_boundary_anchor():
    # the fixed point 0 is the boundary of [0, inf), so the images are
    # tested first; a start past 0.1 is sent to -x and exits at step 1,
    # the others settle with most perturbed points projected back in
    T = _halfline_map(lambda x: np.where(x > 0.1, -x, 0.5 * x))
    rep = _assert_same_report(T, [0.0], 0.15, 0.1, trials=20, n=120,
                              seed=5)
    exits = sum(1 for t in rep.trials if t.worst == math.inf)
    assert 0 < exits < 20


def test_batched_stability_names_a_nan_image_at_a_boundary_anchor():
    # a start past 0.25 is sent to NaN at step 1: its image fails the
    # images-first test and its perturbed point the one after it, and the
    # error names that trial's start, the first of them
    starts = [t.x0 for t in run_stability_experiment(
        _halfline_map(lambda x: 0.5 * x), [0.0], 1.0, 1.0, 12, 21,
        seed=3).trials]
    first = next(x0 for x0 in starts if x0[0] > 0.25)
    assert sum(x0[0] > 0.25 for x0 in starts) > 1
    T = _halfline_map(lambda x: np.where(x > 0.25, math.nan, 0.5 * x))
    with pytest.raises(NonFiniteError) as err:
        run_stability_experiment(T, [0.0], 1.0, 1.0, 12, 21, seed=3)
    assert math.isnan(err.value.point[0])
    assert err.value.last_inside.tobytes() == first.tobytes()


@pytest.mark.parametrize("lo", [-5.0, 0.0], ids=["interior", "boundary"])
def test_batched_stability_matches_when_every_trial_exits_in_the_window(lo):
    # x -> 1.05 x only claims its modulus: from |x0| <= 1, with steps of
    # at most delta = 1/32, |x_i| <= 1.625 * 1.05^i - 0.625, below 5 up to
    # step 25, past the settling index k = 21; so every trial is still in
    # at n = k and has left by n = 3000, when the kernel stops early
    T = MappingInstance(apply=lambda x: 1.05 * x,
                        declared_modulus=constant_modulus(0.5),
                        domain=box([lo], [5.0]), space=euclidean(1))
    rep = _assert_same_report(T, [0.0], 1.0, 1.0, trials=12, n=21, seed=3)
    assert rep.constants.k == 21
    assert all(t.worst < math.inf for t in rep.trials)
    rep = _assert_same_report(T, [0.0], 1.0, 1.0, trials=12, n=3000, seed=3)
    assert all(t.worst == math.inf for t in rep.trials)


def test_batched_stability_matches_with_more_than_a_block_of_trials():
    # 4097 trials of one coordinate fill more than the 4096 floats of a
    # window block, which then holds one step
    T = _halfline_map(lambda x: 0.5 * x)
    rep = _assert_same_report(T, [0.0], 1.0, 1.0, trials=4097, n=21,
                              seed=2)
    assert rep.all_passed


def _counting_kernel_calls(T):
    """T with its domain's contains_rows and project and its space's
    rowwise_distance wrapped to record the shape of each call's first
    argument, and the dict of lists the shapes are kept in."""
    calls = {"contains_rows": [], "project": [], "rowwise_distance": []}

    def counted(name, fn):
        def wrapped(rows, *args):
            calls[name].append(np.shape(rows))
            return fn(rows, *args)
        return wrapped

    dom, space = T.domain, T.space
    return dataclasses.replace(
        T,
        domain=dataclasses.replace(
            dom, contains_rows=counted("contains_rows", dom.contains_rows),
            project=counted("project", dom.project)),
        space=dataclasses.replace(space, rowwise_distance=counted(
            "rowwise_distance", space.rowwise_distance))), calls


@pytest.mark.parametrize("name,params,epsilon,k,projections", [
    ("rakotch-decay", {"a": 1.0}, 0.1, 885, 2000),
    ("damped-rational", {}, 0.01, 1605, 0),
])
def test_stability_kernel_tests_once_a_step_and_folds_the_window_in_blocks(
        name, params, epsilon, k, projections):
    # rakotch-decay's fixed point 0 is the boundary of [0, inf): the noise
    # pushes some perturbed point outside on most steps, but no image
    # leaves, so testing the images first takes one membership test a
    # step, and one projection places the batch.  damped-rational's 0 is
    # inside [-2, 2] and no perturbed point leaves, so testing those first
    # takes one test a step and no projection.  The window [k, n] of 100
    # trials is folded 4096 // 100 = 40 steps at a time, the rest last
    entry = make_map(name, **params)
    T, calls = _counting_kernel_calls(entry.mapping)
    n, trials = 2000, 100
    rep = run_stability_experiment(T, entry.known_fixed_point, 1.0, epsilon,
                                   trials=trials, n=n, seed=2026)
    assert rep.constants.k == k and rep.all_passed
    assert calls["contains_rows"] == [(trials, 1)] * n
    # the starts drawn outside [0, inf) are projected as (1,) points
    assert [s for s in calls["project"] if s != (1,)] == (
        [(trials, 1)] * projections)
    full, rest = divmod(n - k + 1, 40)
    assert calls["rowwise_distance"] == ([(40 * trials, 1)] * full
                                         + [(rest * trials, 1)] * (rest > 0))
    assert len(calls["rowwise_distance"]) == math.ceil((n - k + 1) / 40)


@pytest.mark.parametrize("space", [euclidean, max_norm])
@pytest.mark.parametrize("domain", [
    ball([0.6, 0.8], 1.0),
    box([-math.inf, 0.0], [0.0, math.inf]),
    ball([0.36, 0.48, 0.8], 1.0),
    box([-1.0, 0.0, -math.inf], [math.inf, 2.0, 0.0]),
])
def test_batched_stability_matches_in_two_and_three_dimensions(domain,
                                                               space):
    # x / 2 with the fixed point 0 on the boundary, so starts and
    # perturbed steps are projected back in often
    d = domain.dimension
    T = MappingInstance(apply=lambda x: x / 2.0,
                        declared_modulus=constant_modulus(0.5),
                        domain=domain, space=space(d))
    for seed in (2, 3):
        _assert_same_report(T, np.zeros(d), 1.0, 0.5, trials=12, n=60,
                            seed=seed)


_SPHERE_C = np.array([1.0, 0.0])

# (T, x0, delta, exits): starts on the boundary, where a one-row run tests
# the images first, with an orbit that stays and one that exits:
# 0 on [0, inf), where x -> -x past 0.1 leaves, and (2, 0) on the sphere
# about (1, 0), where x -> c + 1.02 (x - c) leaves
_BOUNDARY_STARTS = [
    (_decay_map(), [0.0], 1e-2, False),
    (_halfline_map(lambda x: np.where(x > 0.1, -x, 0.5 * x)), [0.0], 0.3,
     True),
    (MappingInstance(apply=lambda x: x / 2.0,
                     declared_modulus=constant_modulus(0.5),
                     domain=ball(_SPHERE_C, 1.0), space=euclidean(2)),
     [2.0, 0.0], 0.1, False),
    (MappingInstance(apply=lambda x: _SPHERE_C + 1.02 * (x - _SPHERE_C),
                     declared_modulus=constant_modulus(0.5),
                     domain=ball(_SPHERE_C, 1.0), space=euclidean(2)),
     [2.0, 0.0], 0.1, True),
]


def test_boundary_starts_lie_on_the_boundary_and_exit_as_labelled():
    for T, x0, delta, exits in _BOUNDARY_STARTS:
        assert T.domain.boundary_distance(as_point(x0)) == 0.0
        orb = orbit_inexact(T, x0, 300, delta, noise_seed=41)
        assert (orb.exited_domain_at is not None) == exits


@pytest.mark.parametrize("T,x0,delta", [
    (_decay_map(), [1e-3], 1e-2),
    (_decay_map(), [1.0], 0.0),
    (MappingInstance(apply=lambda x: np.full(np.shape(x), 2.0),
                     declared_modulus=constant_modulus(0.0),
                     domain=box([-1.0], [1.0]), space=euclidean(1)),
     [0.0], 1e-3),
    (MappingInstance(apply=lambda x: x / 2.0,
                     declared_modulus=constant_modulus(0.5),
                     domain=ball([1.0, 0.0], 1.0), space=euclidean(2)),
     [0.5, 0.5], 0.1),
    *(case[:3] for case in _BOUNDARY_STARTS),
])
def test_orbit_inexact_matches_scalar_loop(T, x0, delta):
    got = orbit_inexact(T, x0, 300, delta, noise_seed=41)
    ref = _reference_orbit_inexact(T, x0, 300, delta, noise_seed=41)
    assert np.array_equal(got.points, ref.points)
    assert np.array_equal(got.residuals, ref.residuals)
    assert got.exited_domain_at == ref.exited_domain_at


def _counting_contains(T):
    """T with its domain's contains wrapped to count its calls, and the
    one-element list the count is kept in."""
    calls = [0]
    inner = T.domain.contains

    def contains(p):
        calls[0] += 1
        return inner(p)

    return dataclasses.replace(
        T, domain=dataclasses.replace(T.domain, contains=contains)), calls


def test_perturbed_orbit_tests_each_point_once():
    # the orbit is a one-row run of the stability kernel: its start is
    # tested as a point, then each step tests its perturbed point as a
    # row, and a step where that is outside also tests the image and
    # projects; from 1, inside [0, inf), the perturbed points go first
    T, calls = _counting_kernel_calls(make_map("rakotch-decay").mapping)
    T, point_tests = _counting_contains(T)
    n, delta, seed = 10_000, 1e-3, 7
    got = orbit_inexact(T, [1.0], n, delta, noise_seed=seed)
    tests = point_tests[0]
    row_tests, projections = map(list, (calls["contains_rows"],
                                        calls["project"]))
    ref = _reference_orbit_inexact(T, [1.0], n, delta, noise_seed=seed)
    assert got.points.tobytes() == ref.points.tobytes()
    assert got.residuals.tobytes() == ref.residuals.tobytes()
    assert got.exited_domain_at is ref.exited_domain_at is None
    noise = _ball_noise(seed, n, 1, delta)
    projected = int((T.apply(got.points[:-1]) + noise < 0.0).sum())
    assert 0 < projected < n // 10
    assert tests == 1
    assert row_tests == [(1, 1)] * (n + projected)
    assert projections == [(1, 1)] * projected
    point_tests[0] = 0
    orbit_exact(T, [1.0], n)
    assert point_tests[0] == n + 1


def _rotation_map(apply_for):
    c, s = math.cos(0.3), math.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    b = np.array([0.2, -0.1])
    T = MappingInstance(apply=apply_for(R, b),
                        declared_modulus=constant_modulus(0.5),
                        domain=ball([0.0, 0.0], 10.0), space=euclidean(2))
    return T, np.linalg.solve(np.eye(2) - R, b)


def test_batched_stability_refuses_an_apply_that_is_not_rowwise():
    # R @ x of a (2, 2) array of rows is a matrix product, not the rows'
    # images; stepping with it would give a silently wrong report
    T, xbar = _rotation_map(lambda R, b: lambda x: R @ x + b)
    # with one trial too: a (1, 2) array of rows is still not a point
    for trials in (2, 1):
        with pytest.raises(ArgumentError, match="row by row"):
            run_stability_experiment(T, xbar, 1.0, 0.5, trials=trials, n=60,
                                     seed=1)


def test_batched_stability_refuses_an_apply_numpy_cannot_broadcast():
    # with three trials R @ x cannot even be formed; that is the same
    # refusal, not a numpy ValueError
    T, xbar = _rotation_map(lambda R, b: lambda x: R @ x + b)
    with pytest.raises(ArgumentError, match="row by row"):
        run_stability_experiment(T, xbar, 1.0, 0.5, trials=3, n=60, seed=1)


def test_batched_stability_accepts_a_rowwise_affine_map():
    # x @ R.T + b maps rows; its batched rows may round differently from
    # the single-row images, which the rowwise check allows
    T, xbar = _rotation_map(lambda R, b: lambda x: x @ R.T + b)
    rep = run_stability_experiment(T, xbar, 1.0, 0.5, trials=8, n=60,
                                   seed=1)
    assert len(rep.trials) == 8


# ---------------------------------------------------------------------------
# serialization

def test_orbit_csv_shape_and_determinism():
    orb = orbit_inexact(_decay_map(), [1.0], 5, 1e-3, noise_seed=31)
    text = "".join(orbit_csv(orb))
    lines = text.strip().split("\n")
    assert lines[0] == "i,x0,residual"
    assert len(lines) == 7
    assert lines[1].startswith("0,1.0,")
    assert text == "".join(orbit_csv(orb))
    # residual column empty on the seed row, filled afterwards
    assert lines[1].endswith(",")
    assert not lines[2].endswith(",")


def test_record_text_is_the_report_format():
    # arrays by their coordinates' float reprs joined by ';', everything
    # else by str, so a numpy scalar reads like the Python float it holds
    text = _record_text([
        ("point", np.array([0.1, -2.0, 1e-300])), ("ints", np.array([3])),
        ("n", 3), ("ok", True), ("r", 0.1 + 0.2),
        ("s", np.float64(0.1)), ("name", "a b")])
    assert text == ("point=0.1;-2.0;1e-300\nints=3.0\nn=3\nok=True\n"
                    "r=0.30000000000000004\ns=0.1\nname=a b\n")
    assert _record_text([("a", 1), ("b", np.array([1.5]))],
                        sep=" ") == "a=1 b=1.5\n"
    assert _record_text([]) == "\n"


def test_stability_report_text_fields():
    rep = run_stability_experiment(_decay_map(), [0.0], 1.0, 0.5,
                                   trials=3, n=200, seed=3)
    text = stability_report_text(rep)
    assert f"k={rep.constants.k}" in text
    assert text.count("trial=") == 3
    assert "pass_count=3" in text
    assert "constants_violated=False" in text
    line = [ln for ln in text.split("\n") if ln.startswith("trial=0")][0]
    assert " x0=" in line and " worst=" in line and " pass=True" in line
