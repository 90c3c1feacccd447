import math
import warnings
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fixpoint.core import (as_point, ball, box, check_modulus_admissible,
                           constant_modulus, euclidean, halfline, max_norm,
                           nonexpansive_modulus, rational_decay_modulus,
                           verify_contractive, MappingInstance, Modulus,
                           _refuse_non_finite, _row_norms)
from fixpoint.errors import ArgumentError, DomainError, NonFiniteError
from written_out import same_float, written_admissibility, written_root


# ---------------------------------------------------------------------------
# moduli

def test_rational_decay_values():
    m = rational_decay_modulus()
    # 1 / 1.1 by hand
    assert m(0.1) == pytest.approx(0.9090909090909091, abs=0)
    assert m(0.0) == 1.0
    assert m.rakotch


def test_constant_modulus_values_and_flag():
    m = constant_modulus(0.5)
    assert m(0.0) == 0.5 and m(123.0) == 0.5
    assert m.rakotch
    assert not constant_modulus(1.0).rakotch


def test_constant_modulus_range_validated():
    with pytest.raises(ArgumentError):
        constant_modulus(1.5)
    with pytest.raises(ArgumentError):
        constant_modulus(-0.1)


@pytest.mark.parametrize("a", [0.0, -1.0, -math.inf])
def test_rational_decay_modulus_needs_a_positive_rate(a):
    with pytest.raises(ArgumentError, match="decay rate must be > 0"):
        rational_decay_modulus(a)


def test_modulus_rejects_negative_argument():
    for m in (constant_modulus(0.5), rational_decay_modulus(),
              nonexpansive_modulus()):
        with pytest.raises(ArgumentError):
            m(-1e-12)


def test_admissibility_flags_increasing_table():
    # an increasing step phi(0) = 0.9, phi(1) = 0.95 is caught on the grid
    m = Modulus(kind="step", params=(0.9, 0.95), rakotch=True,
                _fn=lambda t: np.where(t < 1.0, 0.9, 0.95), _gap=None)
    rep = check_modulus_admissible(m, [0.0, 1.0])
    assert rep.monotonicity_violations == ((0.0, 1.0),)
    assert rep.not_below_one == ()
    assert not rep.admissible


def test_admissibility_flags_nonexpansive_sentinel():
    rep = check_modulus_admissible(nonexpansive_modulus(), [0.0, 1.0])
    assert rep.monotonicity_violations == ()
    assert rep.not_below_one == (1.0,)
    assert not rep.admissible


def test_admissibility_passes_decay_on_dense_grid():
    grid = np.concatenate([[0.0], np.geomspace(1e-8, 1e4, 200)])
    rep = check_modulus_admissible(rational_decay_modulus(3.0), grid)
    assert rep.admissible
    assert rep.grid[0] == 0.0 and len(rep.grid) == 201


def test_admissibility_grid_validation():
    m = constant_modulus(0.5)
    with pytest.raises(ArgumentError):
        check_modulus_admissible(m, [])
    with pytest.raises(ArgumentError):
        check_modulus_admissible(m, [1.0, 0.5])
    with pytest.raises(ArgumentError):
        check_modulus_admissible(m, [-1.0, 0.5])


def test_decay_modulus_on_an_array_overflows_to_the_scalar_value_quietly():
    # a t past the largest float is inf on a Python float with no warning,
    # and the array form warned there; phi is then 1 / inf = 0
    m = rational_decay_modulus(1e300)
    t = np.array([0.0, 1e9, 1e308, math.inf])
    assert m(t).tolist() == [m(v) for v in t.tolist()] == [1.0, 0.0, 0.0,
                                                             0.0]


def _step_modulus(at: float, lo: float, hi: float) -> Modulus:
    # a step modulus, lo below at and hi from there on; it increases when
    # lo < hi, as the table in test_admissibility_flags_increasing_table
    return Modulus(kind="step", params=(at, lo, hi), rakotch=True,
                   _fn=lambda t: np.where(t < at, lo, hi), _gap=None)


# the grid's entries: zeros of both signs, subnormals, the normal floats
# up to 1e308, and a few values drawn again and again, for repeats
_GRID_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 1e-300, 0.5, 1.0, 2.0,
                     1e308]),
    st.floats(0.0, 1e308),
    st.floats(0.0, 2.0 ** -1022))

_MODULI = st.one_of(
    st.floats(0.0, 1.0).map(constant_modulus),
    st.floats(1e-300, 1e300).map(rational_decay_modulus),
    st.just(nonexpansive_modulus()),
    st.builds(_step_modulus, _GRID_ENTRY, st.floats(0.0, 1.0),
              st.floats(0.0, 1.0)))


def _same_floats(got: tuple, want: tuple) -> bool:
    return len(got) == len(want) and all(
        type(a) is float and same_float(a, b) for a, b in zip(got, want))


@given(m=_MODULI, grid=st.lists(_GRID_ENTRY, min_size=1, max_size=40).map(
    sorted), as_array=st.booleans())
@example(m=_step_modulus(1.0, 0.9, 0.95), grid=[0.0, 1.0, 1.0, 2.0],
         as_array=False)
@example(m=rational_decay_modulus(1.0), grid=[-0.0, 0.0, 5e-324, 1e308],
         as_array=True)
def test_admissibility_equals_the_written_out_loops(m, grid, as_array):
    # every field, the violations in grid order, as the loops over the
    # grid's floats give them: Python floats, a zero's sign kept
    want = written_admissibility(m, grid)
    rep = check_modulus_admissible(m, np.array(grid) if as_array else grid)
    assert _same_floats(rep.grid, want[0])
    got_pairs = rep.monotonicity_violations
    assert len(got_pairs) == len(want[1]) and all(
        _same_floats(a, b) for a, b in zip(got_pairs, want[1]))
    assert all(type(pair) is tuple for pair in got_pairs)
    assert _same_floats(rep.not_below_one, want[2])


@pytest.mark.parametrize("grid", [
    [], [-1.0, 0.5], [0.0, -1e-300], [0.0, math.nan], [math.nan],
    [1.0, 0.5], [0.0, 2.0, 1.0]])
def test_admissibility_refusals_equal_the_written_out_loops(grid):
    m = rational_decay_modulus()
    with pytest.raises(ArgumentError):
        written_admissibility(m, grid)
    with pytest.raises(ArgumentError):
        check_modulus_admissible(m, grid)


@pytest.mark.parametrize("grid", [
    [[0.0, 1.0]], [[0.0], [1.0]], np.zeros((2, 2)), np.zeros((1, 0)), 1.0],
    ids=["row", "column", "square", "empty-row", "scalar"])
def test_admissibility_refuses_a_grid_that_is_not_1d(grid):
    # the loop form raised TypeError on these, converting a row or
    # iterating over a number
    with pytest.raises(ArgumentError, match="grid must be 1-D"):
        check_modulus_admissible(rational_decay_modulus(), grid)


def test_decay_modulus_monotone_under_random_grids():
    # IEEE division is monotone here, so the exact check must never trip
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = float(10.0 ** rng.uniform(-3, 2))
        grid = np.sort(rng.uniform(0.0, 1e3, size=40))
        rep = check_modulus_admissible(rational_decay_modulus(a), grid)
        assert rep.admissible


# ---------------------------------------------------------------------------
# spaces and points

def test_as_point_coerces_and_validates():
    p = as_point(3.0)
    assert p.shape == (1,) and p.dtype == float
    with pytest.raises(ArgumentError):
        as_point([[1.0, 2.0]])
    with pytest.raises(ArgumentError):
        as_point([1.0, 2.0], dimension=3)


def test_euclidean_space_distance():
    s = euclidean(2)
    d = s.distance(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
    assert d == 5.0
    assert s.norm(np.array([3.0, 4.0])) == 5.0


@pytest.mark.parametrize("d", [2, 3, 5])
def test_euclidean_norms_past_the_square_overflow_stay_finite(d):
    # a norm of 1e200 squares past the largest float: every form takes it
    # again in the point's own units, with no warning, as euclidean(1)
    # does; only a norm past the largest float is inf
    s = euclidean(d)
    x, zero = np.zeros(d), np.zeros(d)
    x[0] = 1e200
    huge = np.full(d, 1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [s.distance(x, zero), s.norm(x),
               float(s.rowwise_distance(x[None], zero[None])[0]),
               float(s.rowwise_distance(x[None], zero)[0])]
        if d == 2:
            got += [s.distance((1e200, 0.0), (0.0, 0.0)),
                    s.norm((1e200, 0.0)), s.distance((0.0, 1e200), (0.0, 0.0))]
        assert got == [1e200] * len(got)
        assert s.norm(huge) == math.inf
        assert s.rowwise_distance(huge[None], zero).tolist() == [math.inf]


@pytest.mark.parametrize("space", [euclidean(1), euclidean(2), euclidean(3),
                                   max_norm(1), max_norm(2)],
                         ids=lambda s: f"{s.kind}({s.dimension})")
def test_distances_past_the_largest_float_are_inf_without_a_warning(space):
    # x - y overflows in the first coordinate: every row and point form
    # gives inf, with no overflow warning from the subtraction
    x, y = np.zeros(space.dimension), np.zeros(space.dimension)
    x[0], y[0] = 1e308, -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert space.rowwise_distance(np.array([x, y]), y).tolist() == [
            math.inf, 0.0]
        got = [space.distance(x, y), space.distance(y, x),
               *space.rowwise_distance(x[None], y[None]).tolist()]
        # and the float forms of euclidean(1) and euclidean(2)
        if space.kind == "euclidean" and space.dimension <= 2:
            floats = {1: (1e308, -1e308), 2: ((1e308, 0.0), (-1e308, 0.0))}
            got.append(space.distance(*floats[space.dimension]))
    assert got == [math.inf] * len(got)


def test_max_norm_space_distance():
    s = max_norm(2)
    assert s.distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 4.0


def test_spaces_name_their_norm():
    assert {euclidean(d).kind for d in (1, 2, 5)} == {"euclidean"}
    assert {max_norm(d).kind for d in (1, 2, 5)} == {"max"}


def test_rowwise_distance_matches_pointwise():
    rng = np.random.default_rng(7)
    for d in range(1, 7):
        for s in (euclidean(d), max_norm(d)):
            a = rng.standard_normal((200, d))
            b = rng.standard_normal((200, d))
            rows = s.rowwise_distance(a, b)
            for i in range(200):
                assert rows[i] == s.distance(a[i], b[i]), (d, i)


@pytest.mark.parametrize("d", range(1, 7))
def test_row_norms_equal_the_scalar_floats(d):
    # the batched stability experiment reproduces the one-point reports
    # only if these agree to the bit, not merely to an ulp
    rng = np.random.default_rng(100 + d)
    scale = 10.0 ** rng.uniform(-6.0, 6.0, size=(2000, 1))
    rows = rng.standard_normal((2000, d)) * scale
    for v, r in zip(rows, _row_norms(rows)):
        assert r == written_root(v)


# ---------------------------------------------------------------------------
# domains

def test_box_membership_boundary_projection():
    d = box([-1.0, 0.0], [1.0, 2.0])
    inside = np.array([0.5, 1.0])
    edge = np.array([1.0, 1.0])
    outside = np.array([2.0, 1.0])
    assert d.contains(inside) and d.contains(edge)
    assert d.interior_contains(inside) and not d.interior_contains(edge)
    assert not d.contains(outside)
    assert d.boundary_distance(inside) == 0.5
    assert d.boundary_distance(edge) == 0.0
    assert d.boundary_distance(outside) == 0.0
    assert np.array_equal(d.project(outside), [1.0, 1.0])


def test_box_requires_proper_bounds():
    with pytest.raises(ArgumentError):
        box([0.0], [0.0])
    with pytest.raises(ArgumentError):
        box([1.0], [0.0])


@pytest.mark.parametrize("lo,hi", [
    ([0.0, 1.0], [1.0]),                 # unequal lengths
    ([0.0], [1.0, 2.0]),
    ([[0.0, 1.0]], [[1.0, 2.0]]),        # 2-D
    ([[0.0], [1.0]], [1.0, 2.0]),        # 2-D and 1-D of one size
])
def test_box_refuses_bounds_not_1d_of_equal_length(lo, hi):
    with pytest.raises(ArgumentError) as err:
        box(lo, hi)
    assert str(err.value) == "box bounds must be 1-D of equal length"


@pytest.mark.parametrize("dimension", [0, -1])
def test_space_refuses_a_dimension_below_one(dimension):
    s = euclidean(1)
    with pytest.raises(ArgumentError) as err:
        replace(s, dimension=dimension)
    assert str(err.value) == "dimension must be >= 1"


@pytest.mark.parametrize("make,message", [
    (lambda: box([math.nan], [1.0]), "box lo must not be NaN"),
    (lambda: box([0.0], [math.nan]), "box hi must not be NaN"),
    (lambda: ball([math.nan], 1.0), "ball center must be finite"),
    (lambda: halfline(math.nan), "box lo must not be NaN"),
], ids=["box-lo", "box-hi", "ball-center", "halfline"])
def test_nan_domain_parameter_is_refused_by_name(make, message):
    # a NaN parameter used to build an empty set, so a later run failed on
    # its start point instead of on the parameter
    with pytest.raises(ArgumentError, match=message):
        make()


@pytest.mark.parametrize("center", [
    [math.inf, 0.0], [-math.inf, 0.0], [0.0, math.inf], [0.0, -math.inf],
    [0.0, math.nan]])
def test_ball_refuses_a_non_finite_center(center):
    # a ball about an infinite center holds no finite point, and its
    # project gave a NaN coordinate with an invalid-value warning
    with pytest.raises(ArgumentError, match="ball center must be finite"):
        ball(center, 1.0)


def test_infinite_box_bounds_are_kept():
    assert box([-math.inf], [math.inf]).contains(np.array([0.0]))
    assert box([-math.inf, 0.0], [math.inf, math.inf]).contains(
        np.array([-1e308, 1e308]))


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, -math.inf])
def test_ball_needs_a_positive_radius(radius):
    with pytest.raises(ArgumentError, match="ball radius must be > 0"):
        ball([0.0, 0.0], radius)


_INF = math.inf


@pytest.mark.parametrize("lo,hi,p,want,dist", [
    # a coordinate with both bounds infinite has no face; the others do
    ([-_INF, -_INF], [0.0, _INF], [-2.0, 5.0], [0.0, 5.0], 2.0),
    ([-_INF, -1.0, -_INF], [_INF, _INF, _INF], [3.0, 4.0, -7.0],
     [3.0, -1.0, -7.0], 5.0),
    # p - lo overflows, but the face at lo is finite
    ([-1.7e308, -_INF], [_INF, _INF], [1.7e308, 0.0], [-1.7e308, 0.0], _INF),
    ([-1e308, -1.0], [1e308, 1.0], [9e307, 0.5], [9e307, 1.0], 0.5),
    ([-1.7e308], [1.7e308], [1.6e308], [1.7e308], 1.7e308 - 1.6e308),
])
def test_box_nearest_boundary_takes_the_nearest_finite_face(lo, hi, p, want,
                                                            dist):
    # the gaps are compared in half units, so none overflows; a box with
    # a whole-line coordinate used to be refused as having no finite face
    d = box(lo, hi)
    b = d.nearest_boundary(np.array(p))
    assert np.array_equal(b, want)
    assert d.contains(b) and d.boundary_distance(b) == 0.0
    assert d.boundary_distance(np.array(p)) == dist


@pytest.mark.parametrize("lo,hi,p", [
    ([-_INF, -_INF], [_INF, _INF], [0.0, 0.0]),
    ([-_INF], [_INF], [3.0]),
    ([0.0, 0.0], [1.0, 1.0], [0.5, math.nan]),
])
def test_box_nearest_boundary_is_refused_without_a_finite_face(lo, hi, p):
    with pytest.raises(ArgumentError, match="no finite boundary face"):
        box(lo, hi).nearest_boundary(np.array(p))


@pytest.mark.parametrize("lo,hi,p,dist", [
    ([-1e308, -1.0], [1e308, 1.0], [1e308, 0.0], 0.0),
    ([-1e308, -1.0], [1e308, 1.0], [-9e307, 0.5], 0.5),
    ([-1.7e308, -_INF], [1.7e308, _INF], [0.0, 0.0], 1.7e308),
    # every gap lies past the largest float
    ([-1.7e308, -1.7e308], [_INF, _INF], [1.7e308, 1.7e308], _INF),
])
def test_box_boundary_distance_takes_a_gap_past_the_floats(lo, hi, p, dist):
    # p - lo overflows in some coordinate; the distance is the least gap,
    # inf only past the largest float, with no warning
    d = box(lo, hi)
    p = np.array(p)
    assert d.boundary_distance(p) == dist
    assert d.interior_contains(p) is (dist > 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lo,hi,p,dist", [
    # hi - p is inf - inf in the infinite coordinates
    ([0.0, 0.0], [_INF, _INF], [_INF, 1.0], 1.0),
    ([0.0, 0.0], [_INF, _INF], [_INF, _INF], _INF),
    # so is p - lo at a -inf bound: an infinite coordinate at an infinite
    # bound of its own sign is no face, its gaps are inf
    ([-_INF], [0.0], [-_INF], _INF),
    ([-_INF, 0.0], [0.0, _INF], [-_INF, 1.0], 1.0),
    ([0.0], [_INF], [_INF], _INF),
    ([-_INF], [_INF], [-_INF], _INF),
    ([-_INF], [_INF], [_INF], _INF),
    # the NaN gap of the infinite coordinate hides no smaller one: the
    # point is on the face x_0 = 1
    ([0.0, 0.0], [1.0, _INF], [1.0, _INF], 0.0),
    # every point that contains refuses is at 0.0, NaN included
    ([0.0], [_INF], [math.nan], 0.0),
    ([0.0], [1.0], [math.nan], 0.0),
    ([0.0], [1.0], [-_INF], 0.0),
    ([0.0, 0.0], [_INF, _INF], [math.nan, 1.0], 0.0),
])
def test_box_boundary_distance_at_an_infinite_bound_does_not_warn(lo, hi, p,
                                                                  dist):
    got = box(lo, hi).boundary_distance(np.array(p))
    assert type(got) is float and got == dist


def test_halfline_is_box_with_infinite_top():
    d = halfline(-1.0)
    assert d.contains(as_point(1e12))
    assert not d.contains(as_point(-1.0000001))
    assert d.boundary_distance(as_point(4.0)) == 5.0
    assert np.array_equal(d.nearest_boundary(as_point(3.0)), [-1.0])


def test_ball_membership_and_projection():
    d = ball([1.0, 0.0], 2.0)
    assert d.contains(np.array([3.0, 0.0]))
    assert not d.interior_contains(np.array([3.0, 0.0]))
    assert d.boundary_distance(np.array([1.0, 0.0])) == 2.0
    far = np.array([6.0, 0.0])
    proj = d.project(far)
    assert d.contains(proj)
    assert np.linalg.norm(proj - np.array([3.0, 0.0])) < 1e-10


@pytest.mark.parametrize("p,want", [
    ([1e200, 0.0], [1.0, 0.0]),
    ([-1e300, 1e300], [-math.sqrt(0.5), math.sqrt(0.5)]),
    ([1.7e308, 1.7e308], [math.sqrt(0.5), math.sqrt(0.5)]),
    ([1e200, 3.0], [1.0, 0.0]),
    ([2.0 ** 700, 0.0], [1.0, 0.0]),     # a norm of exactly 1 in its units
])
def test_ball_projection_survives_an_overflowing_norm(p, want):
    # the squared norm of p overflows, so radius / r must not be taken as
    # radius / inf, which is the center
    d = ball([0.0, 0.0], 1.0)
    q = d.project(np.array(p))
    assert np.all(np.isfinite(q)) and d.contains(q)
    assert np.abs(q - want).max() < 1e-9
    assert np.array_equal(d.project(np.array([p, [0.5, 0.5]]))[0], q)


@pytest.mark.parametrize("p", [[5e-324, 0.0], [1e-310, 1e-310],
                               [1e-310, 1e-310, 0.0]])
def test_ball_projects_a_tiny_member_unchanged_with_no_warning(p):
    # p's squared norm underflows, so its norm is taken in units so small
    # that radius / unit overflows to inf, the right threshold: no row in
    # those units lies outside.  That division used to warn
    d = ball([0.0] * len(p), 1.0)
    x = np.array(p)
    far = np.zeros(len(p))
    far[0] = 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = d.project(x)
        rows = d.project(np.array([p, far]))
    assert one.tobytes() == x.tobytes() and rows[0].tobytes() == x.tobytes()
    assert d.contains(rows[1]) and rows[1][0] == pytest.approx(1.0)


def test_ball_membership_survives_an_overflowing_norm():
    d = ball([0.0, 0.0], 1e200)
    on, inside, past = [1e200, 0.0], [6e199, 0.0], [1e201, 0.0]
    rows = np.array([on, inside, past, [math.inf, 0.0], [math.nan, 0.0]])
    want = [True, True, False, False, False]
    assert [d.contains(p) for p in rows] == want
    assert d.contains_rows(rows).tolist() == want
    assert [d.interior_contains(p) for p in rows] == [False, True] + [False] * 3
    assert d.boundary_distance(np.array(inside)) == pytest.approx(4e199)
    assert d.boundary_distance(np.array(on)) == 0.0
    assert np.allclose(d.nearest_boundary(np.array(inside)), on)
    # it used to retry its shave down to the center
    q = d.project(np.array(past))
    assert d.contains(q) and np.allclose(q, on, rtol=1e-9)
    # the float form of a point, as planar-rotation's inner solves pass it
    assert [d.contains(tuple(p)) for p in rows.tolist()] == want


def test_ball_takes_an_offset_past_the_floats_in_its_own_units():
    # p - c overflows: the projection lies on the sphere, short of c by
    # the radius, where it used to be NaN
    d = ball([-1e308], 1e300)
    q = d.project(np.array([1e308]))
    assert d.contains(q) and q[0] == pytest.approx(-1e308 + 1e300, rel=1e-12)
    assert not d.contains(np.array([1e308]))
    assert d.contains_rows(np.array([[1e308], [-1e308]])).tolist() == [
        False, True]
    assert d.boundary_distance(np.array([1e308])) == 0.0
    assert d.nearest_boundary(np.array([1e308]))[0] == pytest.approx(
        -1e308 + 1e300, rel=1e-12)
    # ||p - c|| is past the floats: the nearest boundary point lies along
    # p, where it used to be the center
    u = ball([0.0, 0.0], 1.0)
    b = u.nearest_boundary(np.array([1.7e308, 1.7e308]))
    assert np.allclose(b, [math.sqrt(0.5)] * 2, rtol=1e-15)
    assert np.allclose(u.project(np.array([1.7e308, 1.7e308])), b)
    far = ball([-1e308, 1e308], 1.0)
    assert np.allclose(far.nearest_boundary(np.array([1e308, -1e308])),
                       [-1e308, 1e308], rtol=1e-15)


def test_ball_tuple_membership_is_taken_about_the_center():
    # the float form subtracts the center: a point of the disk about (3, 0)
    # lies outside the disk about the origin, and the other way round
    d = ball([3.0, 0.0], 1.0)
    for p, inside in (((3.5, 0.0), True), ((0.5, 0.0), False),
                      ((3.0, -1.0), True), ((3.0, -1.0000001), False)):
        assert d.contains(p) is d.contains(np.array(p)) is inside


def test_row_forms_take_an_overflowing_row_without_a_warning():
    # the own-units retry handles the overflow of the first attempt, so
    # it raises no warning; a norm past the largest float raises none either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = np.array([[1e200, 0.0], [1.5e308, 1.5e308], [6e199, 0.0]])
        assert ball([0.0, 0.0], 1e200).contains_rows(rows).tolist() == [
            True, False, True]
        # rows - c overflows too
        rows = np.array([[1e308, 0.0], [-1e308, 1e300], [1e308, -1e308]])
        assert ball([-1e308, 0.0], 1e301).contains_rows(rows).tolist() == [
            False, True, False]


def test_ball_nearest_boundary_from_within_radius_over_2_1024_of_centre():
    # radius / r overflows for r = 1e-10 against radius 1e300: the
    # boundary point is taken along the unit direction instead
    d = ball([0.0, 0.0], 1e300)
    assert d.nearest_boundary(np.array([1e-10, 0.0])).tolist() == [1e300, 0.0]
    assert d.nearest_boundary(np.array([0.0, -1e-10])).tolist() == [
        0.0, -1e300]


@pytest.mark.parametrize("p", [[1e154, 0.0], [1e20, 0.0]])
def test_ball_takes_a_far_point_to_a_tiny_sphere_along_its_direction(p):
    # radius / ||p|| underflows, to 0 against 1e154 and to a subnormal
    # against 1e20: the direction p / ||p|| is taken first, where the
    # point used to land on the center or off in the fifth digit, and
    # under np.errstate(all="raise") the division raised
    d = ball([0.0, 0.0], 1e-300)
    x = np.array(p)
    with np.errstate(all="raise"):
        q = d.project(x)
        b = d.nearest_boundary(x)
    ulps = 4.0 * math.ulp(1e-300)
    # project pulls its point 1e-12 of the radius inside the sphere
    assert abs(q[0] - 1e-300 * (1.0 - 1e-12)) <= ulps and q[1] == 0.0
    assert d.contains(q)
    assert abs(b[0] - 1e-300) <= ulps and b[1] == 0.0
    assert abs(math.hypot(*b) - 1e-300) <= ulps


@pytest.mark.parametrize("center,radius,p,inside,dist", [
    # p - c overflows
    ([-1e308, 0.0], 1e308, [1e308, 0.0], False, 0.0),
    ([1e308, 1e308, -1e308], 1e308, [-1e308, 1e308, -1e308], False, 0.0),
    # ||p - c||^2 overflows: inside, on the sphere, outside
    ([-1e308, 0.0], 1.7e308, [0.6e308, 0.0], True, 0.1e308),
    ([-1e308, 0.0], 1e308, [0.0, 0.0], True, 0.0),
    ([0.0, 0.0, 0.0], 1.5e308, [1e308, -1e308, 0.0], True,
     1.5e308 - math.sqrt(2.0) * 1e308),
    ([0.0, 0.0, 0.0], 1.5e308, [1e308, 1e308, 1e308], False, 0.0),
])
def test_ball_membership_survives_an_overflowing_offset(center, radius, p,
                                                        inside, dist):
    d = ball(center, radius)
    p = np.array(p)
    assert d.contains(p) is inside
    if len(p) == 2:
        assert d.contains(tuple(p.tolist())) is inside
    assert d.contains_rows(np.array([p, center])).tolist() == [inside, True]
    assert d.interior_contains(p) is (inside and dist > 0.0)
    assert d.boundary_distance(p) == pytest.approx(dist, rel=1e-12)


@pytest.mark.parametrize("center,radius,p,inside,dist", [
    # ||p - c||^2 underflows to 0 or a subnormal: outside, inside
    ([0.0, 0.0], 1e-200, [2e-200, 0.0], False, 0.0),
    ([0.0, 0.0], 1e-200, [3e-200, -4e-200], False, 0.0),
    ([0.0, 0.0], 1e-200, [6e-201, 7e-201], True,
     1e-200 - math.sqrt(85.0) * 1e-201),
    ([1e-300, 0.0], 1e-200, [2.1e-200, 0.0], False, 0.0),
    ([0.0, 0.0, 0.0], 1e-200, [1e-200, 1e-200, 0.0], False, 0.0),
    ([0.0, 0.0], 1e-310, [2e-310, 0.0], False, 0.0),
    ([0.0, 0.0], 1e-310, [0.5e-310, 0.0], True, 0.5e-310),
    # the center itself
    ([0.0, 0.0], 1e-200, [0.0, 0.0], True, 1e-200),
])
def test_ball_membership_survives_an_underflowing_norm(center, radius, p,
                                                       inside, dist):
    # the squared norm is taken in the point's own units, where it used to
    # underflow and let a point up to about sqrt(2^-1074) from the center
    # into any ball, in every form
    d = ball(center, radius)
    p = np.array(p)
    assert d.contains(p) is inside
    assert d.contains_rows(np.array([p, center])).tolist() == [inside, True]
    assert d.interior_contains(p) is (inside and dist > 0.0)
    assert d.boundary_distance(p) == pytest.approx(dist, rel=1e-12)
    if len(p) == 2:
        u = tuple(p.tolist())
        assert d.contains(u) is inside
        assert d.boundary_distance(u) == d.boundary_distance(p)
    if inside:
        assert np.array_equal(d.project(p), p)


@pytest.mark.parametrize("center,radius,p", [
    ([0.0, 0.0], 1.0, [3.0, 4.0]),
    ([0.5, -0.5, 2.0], 3.0, [10.0, -7.0, 1e3]),
    # p - c overflows
    ([-1e308, 0.0], 1e300, [1e308, 1e308]),
    ([1e308, -1e308], 1.5e308, [-1e308, 1e308]),
    # the radius is below an ulp of the center: c + v s rounds to c
    ([1.0, 1.0], 1e-150, [2.0, 2.0]),
    # ||p - c||^2 underflows
    ([0.0, 0.0], 1e-200, [2e-200, 0.0]),
    ([0.0, 0.0], 1e-200, [3e-200, -4e-200]),
    ([1e-300, -1e-300, 0.0], 1e-250, [1e-249, 1e-251, -3e-250]),
])
def test_ball_projection_lands_inside_in_exact_arithmetic(center, radius, p):
    d = ball(center, radius)
    q = d.project(np.array(p))
    assert np.all(np.isfinite(q)) and d.contains(q)
    # inside by the exact norm, not only by the rounded one
    assert sum((Fraction(x) - Fraction(y)) ** 2
               for x, y in zip(q.tolist(), center)) <= Fraction(radius) ** 2
    # and near the exact projection c + (p - c) radius / ||p - c||
    with mpmath.workdps(60):
        v = [mpmath.mpf(x) - mpmath.mpf(y) for x, y in zip(p, center)]
        r = mpmath.sqrt(sum(x * x for x in v))
        want = [float(mpmath.mpf(y) + x * radius / r)
                for x, y in zip(v, center)]
    assert np.abs(q - want).max() <= 1e-11 * max(radius, *map(abs, center))
    assert np.array_equal(d.project(np.array([p, center]))[0], q)


@pytest.mark.parametrize("center,radius,p", [
    ([-1.7e308], 1.0, [1.7e308]),
    ([-1e308, 1e308], 1e307, [1e308, -1e308]),
    ([1.7e308, 0.0, -1.7e308], 1e300, [-1.7e308, 1e-300, 1.7e308]),
    ([0.0, 0.0], 1.0, [1.7e308, -1.7e308]),
])
def test_ball_nearest_boundary_across_a_gap_past_the_floats(center, radius,
                                                            p):
    # ||p - c|| lies past the largest float: the boundary point is taken
    # along p - c in p's own units, not as an overflowed difference
    b = ball(center, radius).nearest_boundary(np.array(p))
    with mpmath.workdps(60):
        v = [mpmath.mpf(x) - mpmath.mpf(y) for x, y in zip(p, center)]
        r = mpmath.sqrt(sum(x * x for x in v))
        want = [float(mpmath.mpf(y) + x * radius / r)
                for x, y in zip(v, center)]
    assert np.all(np.isfinite(b))
    assert np.allclose(b, want, rtol=1e-15, atol=1e-12 * radius)


@pytest.mark.parametrize("dom", [
    box([-1.0, -2.0], [1.0, 2.0]),
    ball([0.5, -0.5], 3.0),
    box([-math.inf, -1.0], [2.0, math.inf]),
])
def test_projection_is_idempotent_and_nonexpansive(dom):
    rng = np.random.default_rng(23)
    for _ in range(200):
        p = rng.uniform(-6.0, 6.0, size=2)
        q = rng.uniform(-6.0, 6.0, size=2)
        pp, qq = dom.project(p), dom.project(q)
        assert dom.contains(pp) and dom.contains(qq)
        assert np.array_equal(dom.project(pp), pp)
        # metric projection onto a convex set cannot increase distances;
        # the ball projection shaves 1e-12 inward, hence the slack
        assert (np.linalg.norm(pp - qq)
                <= np.linalg.norm(p - q) + 1e-10)


@pytest.mark.parametrize("dom,dim", [
    (box([-1.0], [1.0]), 1),
    (halfline(0.0), 1),
    (box([-1.0, -2.0, 0.0], [1.0, 2.0, 0.5]), 3),
    (ball([0.5, -0.5], 3.0), 2),
    (ball([1.0, 0.0, -1.0], 2.5), 3),
    (box([-math.inf, -1.0], [2.0, math.inf]), 2),
    (box([-math.inf, -1.7, 0.1], [0.9, math.inf, math.inf]), 3),
])
def test_row_forms_equal_the_point_forms_row_by_row(dom, dim):
    rng = np.random.default_rng(37)
    rows = rng.uniform(-4.0, 4.0, size=(500, dim))
    rows[::7] = 0.0
    # points on the boundary up to rounding, where a norm or dot product
    # that is off by an ulp flips membership
    rows[1::3] = [dom.nearest_boundary(p) for p in rows[1::3]]
    inside = dom.contains_rows(rows)
    projected = dom.project(rows)
    assert inside.shape == (500,) and projected.shape == rows.shape
    assert 0 < inside.sum() < 500
    for p, c, q in zip(rows, inside, projected):
        assert c == dom.contains(p)
        assert np.array_equal(q, dom.project(p))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_point_projection_is_the_closed_form(d):
    # the point form runs through the row form; it must still give the
    # closed-form point, to the bit and in the point's shape
    rng = np.random.default_rng(41 + d)
    c = rng.standard_normal(d)
    bl = ball(c, 1.5)
    for p in rng.uniform(-4.0, 4.0, size=(300, d)):
        r = written_root(p - c)
        want = p if r <= 1.5 else c + (p - c) * ((1.5 / r) * (1.0 - 1e-12))
        got = bl.project(p)
        assert got.shape == (d,) and np.array_equal(got, want)


@pytest.mark.parametrize("dom", [
    box([-1.0, -2.0], [1.0, 2.0]),
    ball([0.5, -0.5], 3.0),
    box([-math.inf, -1.0], [2.0, math.inf]),
])
def test_boundary_distance_is_certified_by_sampling(dom):
    # for inside points, no sampled outside point may be closer than the
    # reported boundary distance
    rng = np.random.default_rng(29)
    for _ in range(50):
        p = rng.uniform(-4.0, 4.0, size=2)
        if not dom.contains(p):
            continue
        bd = dom.boundary_distance(p)
        for _ in range(40):
            q = p + rng.standard_normal(2) * (0.99 * bd / 2.0 if bd else 1.0)
            if bd > 0 and np.linalg.norm(q - p) < bd:
                assert dom.contains(q)


@pytest.mark.parametrize("dom,dim", [
    (box([-1.0], [1.0]), 1),
    (ball([0.0, 0.0], 2.0), 2),
    (box([-math.inf, -2.0], [3.0, math.inf]), 2),
])
def test_nearest_boundary_lands_on_boundary(dom, dim):
    rng = np.random.default_rng(31)
    for _ in range(50):
        p = rng.uniform(-1.0, 1.0, size=dim)
        b = dom.nearest_boundary(p)
        assert dom.boundary_distance(b) <= 1e-9
        assert np.linalg.norm(b - p) <= dom.boundary_distance(p) + 1e-9


@pytest.mark.parametrize("dom,dim,space", [
    (box([0.0], [1.0]), 1, euclidean(2)),
    (box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), 3, max_norm(2)),
    (halfline(0.0), 1, max_norm(3)),
    (ball([0.0, 0.0, 0.0], 1.0), 3, euclidean(2)),
    (box([-math.inf, -math.inf], [0.0, math.inf]), 2, euclidean(1)),
])
def test_mapping_refuses_a_domain_of_another_dimension(dom, dim, space):
    assert dom.dimension == dim
    with pytest.raises(ArgumentError) as info:
        MappingInstance(apply=lambda x: x, declared_modulus=constant_modulus(
            0.5), domain=dom, space=space)
    msg = str(info.value)
    assert f"dimension {dim}" in msg
    assert f"dimension {space.dimension}" in msg
    T = MappingInstance(apply=lambda x: x, declared_modulus=constant_modulus(
        0.5), domain=dom, space=euclidean(dim))
    assert T.domain.dimension == T.space.dimension


@pytest.mark.parametrize("dom,space,words", [
    (ball([0.0], 1.0), euclidean, "the ball domain has dimension 1"),
    (box([0.0, 0.0], [1.0, 1.0]), euclidean, "the box domain has dimension 2"),
    (box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), euclidean,
     "the box domain has dimension 3"),
    (ball([0.0, 0.0, 0.0], 1.0), euclidean,
     "the ball domain has dimension 3"),
    (ball([0.0, 0.0], 1.0), max_norm, "the max space"),
    (box([0.0], [1.0]), max_norm, "the max space"),
])
def test_float_points_refuses_a_domain_whose_point_forms_take_no_float(
        dom, space, words):
    # the drives would step these on a Python float, which a 1-D ball's
    # norm, a 2-D box's membership or the max norm's distance (a bare
    # TypeError on tuples) does not take
    with pytest.raises(ArgumentError) as info:
        MappingInstance(apply=lambda x: x / 2.0,
                        declared_modulus=constant_modulus(0.5), domain=dom,
                        space=space(dom.dimension), float_points=True)
    msg = str(info.value)
    assert "float_points" in msg and words in msg
    for dom in (box([-1.0], [1.0]), halfline(0.0), ball([0.0, 0.0], 1.0),
                ball([0.5, -2.0], 3.0)):
        T = MappingInstance(apply=lambda x: x / 2.0,
                            declared_modulus=constant_modulus(0.5),
                            domain=dom, space=euclidean(dom.dimension),
                            float_points=True)
        assert T.float_points


# ---------------------------------------------------------------------------
# contractivity audits

def _decay_map():
    space = euclidean(1)
    return MappingInstance(apply=lambda x: x / (1.0 + x),
                           declared_modulus=rational_decay_modulus(),
                           domain=halfline(0.0), space=space)


def test_verify_contractive_frozen_pair():
    # T x = x/(1+x) at (1, 2): |T1 - T2| = |1/2 - 2/3| = 1/6,
    # phi(1) * 1 = 1/2
    rep = verify_contractive(_decay_map(), [([1.0], [2.0])])
    assert rep.n_pairs == 1
    assert rep.lhs[0] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert rep.rhs[0] == pytest.approx(0.5, abs=0)
    assert rep.verdicts[0] and rep.passed


def test_verify_contractive_random_pairs_pass():
    rng = np.random.default_rng(37)
    pairs = [(rng.uniform(0, 50, 1), rng.uniform(0, 50, 1))
             for _ in range(300)]
    assert verify_contractive(_decay_map(), pairs).passed


def test_verify_contractive_flags_a_false_claim():
    # the same map with an overclaimed modulus 1/(1+5t) must fail somewhere
    space = euclidean(1)
    liar = MappingInstance(apply=lambda x: x / (1.0 + x),
                           declared_modulus=rational_decay_modulus(5.0),
                           domain=halfline(0.0), space=space)
    rng = np.random.default_rng(41)
    pairs = [(rng.uniform(0, 3, 1), rng.uniform(0, 3, 1))
             for _ in range(100)]
    assert not verify_contractive(liar, pairs).passed


def test_verify_contractive_rejects_outside_points():
    with pytest.raises(DomainError) as err:
        verify_contractive(_decay_map(), [([1.0], [-2.0])])
    assert err.value.point is not None
    assert err.value.point[0] == -2.0


def test_verify_contractive_rejects_negative_slack():
    with pytest.raises(ArgumentError):
        verify_contractive(_decay_map(), [], slack=-1e-9)


def test_verify_contractive_takes_tuples_or_an_array_alike():
    rng = np.random.default_rng(59)
    xy = rng.uniform(0, 20, (50, 2, 1))
    tuples = [(x, y) for x, y in xy]
    a = verify_contractive(_decay_map(), tuples, slack=1e-12)
    b = verify_contractive(_decay_map(), xy, slack=1e-12)
    assert a.n_pairs == b.n_pairs == 50
    for field in ("x", "y", "lhs", "rhs", "verdicts"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    assert a.slack == b.slack and a.passed == b.passed
    assert np.array_equal(b.x, xy[:, 0]) and np.array_equal(b.y, xy[:, 1])


def test_verify_contractive_report_arrays_hold_the_pairs():
    rng = np.random.default_rng(61)
    xy = rng.uniform(0, 5, (20, 2, 1))
    rep = verify_contractive(_decay_map(), xy)
    assert rep.x.shape == rep.y.shape == (20, 1)
    assert rep.lhs.shape == rep.rhs.shape == rep.verdicts.shape == (20,)
    for arr in (rep.x, rep.y, rep.lhs, rep.rhs, rep.verdicts):
        assert not arr.flags.writeable
    assert rep.n_pairs == 20
    assert rep.x.tolist() == xy[:, 0].tolist()
    assert rep.y.tolist() == xy[:, 1].tolist()
    assert rep.verdicts.tolist() == (rep.lhs <= rep.rhs + rep.slack).tolist()


def test_verify_contractive_no_pairs():
    rep = verify_contractive(_decay_map(), [])
    assert rep.n_pairs == 0 and rep.passed
    assert rep.x.shape == rep.y.shape == (0, 1)
    assert rep.lhs.size == rep.rhs.size == 0


def test_verify_contractive_no_pairs_never_calls_the_map():
    # a point-only apply would fail on the empty (0, d) stack
    T = MappingInstance(apply=lambda x: np.array([math.exp(-x[0])]),
                        declared_modulus=constant_modulus(0.5),
                        domain=box([0.0], [1.0]), space=euclidean(1))
    rep = verify_contractive(T, [])
    assert rep.n_pairs == 0 and rep.passed


def test_verify_contractive_takes_scalar_pairs_in_dimension_one():
    scalar = verify_contractive(_decay_map(), [(1.0, 2.0), (0.5, 3.0)])
    points = verify_contractive(_decay_map(), [([1.0], [2.0]),
                                               ([0.5], [3.0])])
    assert scalar.x.tolist() == points.x.tolist() == [[1.0], [0.5]]
    assert scalar.y.tolist() == points.y.tolist()
    assert scalar.lhs.tobytes() == points.lhs.tobytes()
    assert scalar.rhs.tobytes() == points.rhs.tobytes()


def test_verify_contractive_refuses_a_wrong_shape():
    T = _decay_map()
    bad = ([([1.0, 2.0], [3.0, 4.0])],     # points of dimension 2
           [[1.0, 2.0, 3.0]],              # scalar triples, not pairs
           [([1.0], [2.0], [3.0])],        # triples, not pairs
           [([1.0], [2.0]), ([1.0], [2.0, 3.0])])    # ragged
    for pairs in bad:
        with pytest.raises(ArgumentError, match="pairs must form"):
            verify_contractive(T, pairs)


def test_verify_contractive_names_the_first_outside_point():
    # an outside x in pair 3 and an outside y in pair 2: y_2 comes first
    # in the order x_0, y_0, x_1, y_1, ...
    xy = np.full((5, 2, 1), 1.0)
    xy[3, 0, 0] = -3.0
    xy[2, 1, 0] = -2.0
    with pytest.raises(DomainError, match="outside the domain") as err:
        verify_contractive(_decay_map(), xy)
    assert err.value.point.tolist() == [-2.0]
    xy[2, 1, 0] = 1.0
    with pytest.raises(DomainError) as err:
        verify_contractive(_decay_map(), xy)
    assert err.value.point.tolist() == [-3.0]


def _whole_line(apply) -> MappingInstance:
    return MappingInstance(apply=apply,
                           declared_modulus=constant_modulus(0.5),
                           domain=box([-math.inf], [math.inf]),
                           space=euclidean(1))


def test_verify_contractive_refuses_a_non_finite_image():
    # NaN images used to fail their pair quietly (lhs = nan)
    with pytest.raises(NonFiniteError) as err:
        verify_contractive(_whole_line(lambda x: x * math.nan),
                           [([1.0], [2.0])])
    assert math.isnan(err.value.point[0])
    assert err.value.last_inside.tolist() == [1.0]


def test_verify_contractive_refuses_a_non_finite_pair_point():
    # [inf] lies in the whole-line box and used to give lhs=nan, rhs=inf
    T = _whole_line(lambda x: x / 2.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ArgumentError, match="not finite"):
            verify_contractive(T, [([1.0], [2.0]), ([3.0], [bad])])


@pytest.mark.parametrize("modulus", [rational_decay_modulus(1.0),
                                     constant_modulus(0.5)])
@pytest.mark.parametrize("space", [euclidean, max_norm])
def test_verify_contractive_refuses_a_pair_farther_apart_than_the_floats(
        modulus, space):
    # 1e308 - (-1e308) overflows: phi(inf) * inf was NaN with a warning for
    # the decay modulus, and inf for the constant one, where the pair then
    # passed as inf <= inf; the first such pair is named
    T = MappingInstance(apply=lambda x: x / 2.0, declared_modulus=modulus,
                        domain=box([-math.inf], [math.inf]), space=space(1))
    pairs = [([1.0], [2.0]), ([1e308], [-1e308]), ([-1e308], [1e308])]
    with pytest.raises(ArgumentError) as err:
        verify_contractive(T, pairs)
    assert str(err.value) == ("pair (array([1.e+308]), array([-1.e+308])) "
                              "is farther apart than the largest float")
    # a pair just inside the floats still gets a finite bound
    rep = verify_contractive(T, [([8e307], [-8e307])])
    assert rep.rhs[0] == modulus(1.6e308) * 1.6e308


def _plane_map(apply) -> MappingInstance:
    return MappingInstance(apply=apply,
                           declared_modulus=constant_modulus(0.5),
                           domain=box([-1.0, -1.0], [1.0, 1.0]),
                           space=euclidean(2))


@pytest.mark.parametrize("j", [0, 3, 11])
@pytest.mark.parametrize("side", [0, 1])
def test_verify_contractive_names_the_first_non_finite_pair_point(j, side):
    # the whole pair array is tested first and rows only when that fails:
    # the point named is still the first in the order x_0, y_0, x_1, ...,
    # whatever bad points follow it
    xy = np.full((16, 2, 2), 0.25)
    xy[j, side] = [0.5, math.nan]
    xy[j, 1 - side] = [0.75, 0.125]
    xy[j + 2, 0] = [math.inf, 0.5]
    xy[j + 1, side] = [math.nan, math.nan]
    T = _plane_map(lambda x: x / 2.0)
    with pytest.raises(ArgumentError) as err:
        verify_contractive(T, xy)
    assert str(err.value) == "pair point array([0.5, nan]) is not finite"


@pytest.mark.parametrize("j", [0, 5, 8, 13])
def test_verify_contractive_names_the_first_non_finite_image(j):
    # the map sends a row whose first coordinate is 0.375 to inf there, and
    # a row whose second is -0.625 to NaN; the error carries the first such
    # image in the batch and the point it came from, as (2,) points
    def apply(x):
        y = np.where(x == 0.375, math.inf, x / 2.0)
        return np.where(x == -0.625, math.nan, y)

    xy = np.full((16, 2, 2), 0.25)
    xy[j, 1] = [0.375, 0.5]
    xy[j + 1, 0] = [0.375, 0.125]
    xy[j + 2, 1] = [0.0, -0.625]
    with pytest.raises(NonFiniteError) as err:
        verify_contractive(_plane_map(apply), xy)
    assert err.value.point.tolist() == [math.inf, 0.25]
    assert err.value.last_inside.tolist() == [0.375, 0.5]
    images = apply(xy.reshape(-1, 2))
    with pytest.raises(NonFiniteError) as err:
        _refuse_non_finite(images[2 * j + 2:], xy.reshape(-1, 2)[2 * j + 2:])
    assert err.value.point.tolist() == [math.inf, 0.0625]
    assert err.value.last_inside.tolist() == [0.375, 0.125]


def test_verify_contractive_refuses_an_apply_that_is_not_rowwise():
    # R @ x of the stacked points is a matrix product: for one pair the
    # (2, 2) stack gives wrong rows, for more numpy cannot broadcast
    c, s = math.cos(0.3), math.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    b = np.array([0.2, -0.1])
    T = MappingInstance(apply=lambda x: R @ x + b,
                        declared_modulus=nonexpansive_modulus(),
                        domain=ball([0.0, 0.0], 10.0), space=euclidean(2))
    rng = np.random.default_rng(67)
    for m in (1, 5):
        with pytest.raises(ArgumentError, match="row by row"):
            verify_contractive(T, rng.uniform(-1, 1, (m, 2, 2)))
    rowwise = MappingInstance(apply=lambda x: x @ R.T + b,
                              declared_modulus=nonexpansive_modulus(),
                              domain=T.domain, space=T.space)
    rep = verify_contractive(rowwise, rng.uniform(-1, 1, (5, 2, 2)),
                             slack=1e-12)
    assert rep.n_pairs == 5 and rep.passed


def test_verify_contractive_refuses_single_row_images_of_the_wrong_shape():
    # the rows map to rows, but a single row maps to three coordinates
    T = _whole_line(lambda x: x / 2.0 if x.ndim == 2 else np.zeros(3))
    with pytest.raises(ArgumentError, match="row by row"):
        verify_contractive(T, [([1.0], [2.0]), ([3.0], [4.0])])


def _always_singular(x):
    return np.linalg.solve(np.zeros((1, 1)), np.atleast_2d(x).T).T.reshape(
        np.shape(x))


def test_verify_contractive_lets_the_maps_own_errors_through():
    # LinAlgError and a ValueError the map raises itself are ValueErrors
    # too, but they are no sign of an apply that fails to map rows
    def own_value_error(x):
        raise ValueError("the map's own failure")

    for apply, error, msg in (
            (_always_singular, np.linalg.LinAlgError, "Singular"),
            (own_value_error, ValueError, "own failure")):
        with pytest.raises(error, match=msg) as err:
            verify_contractive(_whole_line(apply), [([1.0], [2.0])] * 3)
        assert not isinstance(err.value, ArgumentError)


@pytest.mark.parametrize("single_error", [TypeError, ValueError])
def test_verify_contractive_raises_a_failing_single_rows_own_error(
        single_error):
    # the batched apply raises a ValueError and a single row fails too:
    # the single row's error surfaces, with the batched one as its context
    def apply(x):
        if x.ndim == 2:
            raise ValueError("batched failure")
        raise single_error("single-row failure")

    with pytest.raises(single_error, match="single-row failure") as err:
        verify_contractive(_whole_line(apply), [([1.0], [2.0])] * 3)
    assert not isinstance(err.value, ArgumentError)
    assert str(err.value.__context__) == "batched failure"


def test_verify_contractive_lets_a_late_linalg_error_through():
    # singular only at a point past the rows checked one by one
    def apply(x):
        if np.any(x == 5.0):
            raise np.linalg.LinAlgError("singular at 5")
        return x / 2.0

    pairs = [([1.0], [2.0])] * 9 + [([1.0], [5.0])]
    with pytest.raises(np.linalg.LinAlgError, match="singular at 5"):
        verify_contractive(_whole_line(apply), pairs)

