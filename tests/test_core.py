import math
from fractions import Fraction

import numpy as np
import pytest

from fixpoint.core import (as_point, ball, box, check_modulus_admissible,
                           constant_modulus, euclidean, halfline,
                           halfspace, max_norm, nonexpansive_modulus,
                           rational_decay_modulus, table_modulus,
                           verify_contractive, MappingInstance, _row_dot,
                           _row_norms)
from fixpoint.errors import ArgumentError, DomainError, NonFiniteError


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


def test_modulus_rejects_negative_argument():
    for m in (constant_modulus(0.5), rational_decay_modulus(),
              nonexpansive_modulus(), table_modulus([0.0], [0.5])):
        with pytest.raises(ArgumentError):
            m(-1e-12)


def test_table_modulus_right_continuous_steps():
    m = table_modulus([0.0, 1.0, 2.0], [0.9, 0.5, 0.2])
    assert m(0.0) == 0.9
    assert m(0.999) == 0.9
    assert m(1.0) == 0.5       # plateau starts at its own knot
    assert m(1.5) == 0.5
    assert m(2.0) == 0.2
    assert m(100.0) == 0.2     # constant beyond the last knot
    assert m.rakotch


def test_table_modulus_construction_errors():
    with pytest.raises(ArgumentError):
        table_modulus([0.5, 1.0], [0.5, 0.5])      # must start at 0
    with pytest.raises(ArgumentError):
        table_modulus([0.0, 1.0, 1.0], [0.5, 0.5, 0.5])
    with pytest.raises(ArgumentError):
        table_modulus([0.0], [1.5])
    with pytest.raises(ArgumentError):
        table_modulus([], [])


def test_table_modulus_rakotch_flag_needs_all_below_one():
    # a plateau at 1 holds on an interval of positive length, so any
    # value 1 anywhere disqualifies the table
    assert not table_modulus([0.0, 1.0], [1.0, 0.5]).rakotch
    assert table_modulus([0.0, 1.0], [0.99, 0.5]).rakotch


def test_admissibility_flags_increasing_table():
    # increasing table phi(0) = 0.9, phi(1) = 0.95 is caught on the grid
    m = table_modulus([0.0, 1.0], [0.9, 0.95])
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


def test_max_norm_space_distance():
    s = max_norm(2)
    assert s.distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 4.0


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
def test_row_norms_and_dots_equal_the_scalar_floats(d):
    # the batched stability experiment reproduces the one-point reports
    # only if these agree to the bit, not merely to an ulp
    rng = np.random.default_rng(100 + d)
    scale = 10.0 ** rng.uniform(-6.0, 6.0, size=(2000, 1))
    rows = rng.standard_normal((2000, d)) * scale
    nv = rng.standard_normal(d)
    norms = _row_norms(rows)
    dots = _row_dot(rows, nv)
    for v, r, s in zip(rows, norms, dots):
        assert r == math.sqrt(float(v @ v))
        assert s == float(nv @ v)


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


def test_halfspace_membership_and_projection():
    d = halfspace([0.0, 1.0], 1.0)          # y <= 1
    assert d.contains(np.array([5.0, 1.0]))
    assert not d.contains(np.array([0.0, 1.1]))
    assert d.boundary_distance(np.array([0.0, -1.0])) == 2.0
    proj = d.project(np.array([3.0, 4.0]))
    assert np.allclose(proj, [3.0, 1.0])


def _exact_dot(a, b) -> Fraction:
    return sum(Fraction(float(x)) * Fraction(float(y)) for x, y in zip(a, b))


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


@pytest.mark.parametrize("nv,offset,p", [
    ([1.0, 1.0], 0.0, [1e308, 1e308]),        # the dot product is +inf
    ([2.0, 2.0], 1e308, [1e308, 1e308]),
    ([1.0, 0.5], -5.0, [1.2e308, 1.2e308]),
    ([2.0, 2.0, 2.0], 0.0, [1e308, -1e308, 1e308]),     # inf - inf: NaN
])
def test_halfspace_projection_survives_an_overflowing_dot(nv, offset, p):
    # the dot product with p overflows, so the push must not be taken as
    # inf, which sends the point to -inf
    d = halfspace(nv, offset)
    q = d.project(np.array(p))
    assert np.all(np.isfinite(q))
    # inside in exact arithmetic (where the float dot product with q
    # overflows too, contains cannot tell) and near the exact projection
    assert _exact_dot(nv, q) <= Fraction(offset)
    s = _exact_dot(nv, p)
    want = [float(Fraction(x) - Fraction(n) * (s - Fraction(offset))
                  / _exact_dot(nv, nv)) for x, n in zip(p, nv)]
    assert np.abs(q - want).max() <= 1e-11 * max(map(abs, p))
    assert np.array_equal(d.project(np.array([p, [0.0] * len(p)]))[0], q)


# membership of points whose squared norm or dot product overflows: numpy
# warns about the first attempt, then the domain takes the point in its
# own units
_OVERFLOW_WARNING = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning")


@_OVERFLOW_WARNING
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


@_OVERFLOW_WARNING
@pytest.mark.parametrize("nv,offset,p,inside,dist", [
    # the dot products overflow to +inf, -inf and NaN (inf - inf)
    ([1.0, 1.0, 1.0], 1.5e308, [1e308, 1e308, -1e308], True,
     0.5e308 / math.sqrt(3.0)),
    ([1.0, 1.0, 1.0], -1.5e308, [-1e308, -1e308, 1e308], False, 0.0),
    ([2.0, 2.0], 0.0, [-1e308, -1e308], True, math.sqrt(2.0) * 1e308),
    ([2.0, 2.0, 2.0], 0.0, [1e308, -1e308, 1e308], False, 0.0),
    # on the plane: no overflow in the normal's own units
    ([2.0, 2.0], 0.0, [1e308, -1e308], True, 0.0),
])
def test_halfspace_membership_survives_an_overflowing_dot(nv, offset, p,
                                                          inside, dist):
    d = halfspace(nv, offset)
    p = np.array(p)
    assert d.contains(p) is inside
    assert d.contains_rows(np.array([p, np.zeros(len(p))])).tolist() == [
        inside, 0.0 <= offset]
    assert d.interior_contains(p) is (inside and dist > 0.0)
    assert d.boundary_distance(p) == pytest.approx(dist, rel=1e-12)


@pytest.mark.parametrize("nv,offset,p,want,dist", [
    # |normal|^2 overflows, or underflows to 0
    ([1e200, 0.0], 0.0, [1.0, 3.0], [0.0, 3.0], 0.0),
    ([1e200, 0.0], 0.0, [-1.0, 3.0], [-1.0, 3.0], 1.0),
    ([1e-200], 1e-190, [2e10], [1e10], 0.0),
    ([1e-200], 1e-190, [0.0], [0.0], 1e10),
])
def test_halfspace_survives_a_normal_of_any_scale(nv, offset, p, want, dist):
    d = halfspace(nv, offset)
    q = d.project(np.array(p))
    assert d.contains(q) and np.allclose(q, want, rtol=1e-9, atol=1e-9)
    assert d.boundary_distance(np.array(p)) == pytest.approx(dist)
    assert d.params == (*nv, offset)


@pytest.mark.parametrize("nv,offset,p,want", [
    # offset / |normal|^2 overflows; the boundary is at -1e308
    ([1e-25], -1e283, [0.0], [-1e308]),
    ([1e-25], -1e283, [1e308], [-1e308]),    # so does the move itself
    ([-1e-30], -1.7e278, [-1e308], [1.7e308]),
    ([1e-25, 0.0], -1e283, [0.0, 5.0], [-1e308, 5.0]),
])
def test_halfspace_with_a_boundary_at_the_edge_of_the_floats(nv, offset, p,
                                                             want):
    # the unscaled normal (offset / unit would overflow) is far below 1:
    # the move across the gap is taken along the unit normal, not as
    # normal * (gap / |normal|^2), which overflowed to infinity
    d = halfspace(nv, offset)
    q = d.project(np.array(p))
    assert np.all(np.isfinite(q)) and d.contains(q)
    assert np.allclose(q, want, rtol=1e-11)
    assert np.allclose(d.nearest_boundary(np.array(p)), want, rtol=1e-15)


@pytest.mark.parametrize("dom", [
    box([-1.0, -2.0], [1.0, 2.0]),
    ball([0.5, -0.5], 3.0),
    halfspace([1.0, 1.0], 2.0),
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
    (halfspace([0.6, 1.3], 2.0), 2),
    (halfspace([0.3, -1.7, 0.9], 0.1), 3),
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
    c, nv = rng.standard_normal(d), rng.standard_normal(d)
    bl, hs = ball(c, 1.5), halfspace(nv, 0.3)
    nn = math.sqrt(float(nv @ nv))
    for p in rng.uniform(-4.0, 4.0, size=(300, d)):
        r = math.sqrt(float((p - c) @ (p - c)))
        want = p if r <= 1.5 else c + (p - c) * ((1.5 / r) * (1.0 - 1e-12))
        got = bl.project(p)
        assert got.shape == (d,) and np.array_equal(got, want)
        s = float(nv @ p)
        want = p if s <= 0.3 else p - nv * (
            (s - 0.3) * (1.0 + 1e-12) / (nn * nn))
        got = hs.project(p)
        assert got.shape == (d,) and np.array_equal(got, want)


@pytest.mark.parametrize("dom", [
    box([-1.0, -2.0], [1.0, 2.0]),
    ball([0.5, -0.5], 3.0),
    halfspace([1.0, 1.0], 2.0),
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
    (halfspace([1.0, 0.0], 3.0), 2),
])
def test_nearest_boundary_lands_on_boundary(dom, dim):
    rng = np.random.default_rng(31)
    for _ in range(50):
        p = rng.uniform(-1.0, 1.0, size=dim)
        b = dom.nearest_boundary(p)
        assert dom.boundary_distance(b) <= 1e-9
        assert np.linalg.norm(b - p) <= dom.boundary_distance(p) + 1e-9


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
    c = rep.checks[0]
    assert c.lhs == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert c.rhs == pytest.approx(0.5, abs=0)
    assert c.passed and rep.passed


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


def test_verify_contractive_report_arrays_and_checks_agree():
    rng = np.random.default_rng(61)
    rep = verify_contractive(_decay_map(), rng.uniform(0, 5, (20, 2, 1)))
    assert rep.x.shape == rep.y.shape == (20, 1)
    assert rep.lhs.shape == rep.rhs.shape == rep.verdicts.shape == (20,)
    for arr in (rep.x, rep.y, rep.lhs, rep.rhs, rep.verdicts):
        assert not arr.flags.writeable
    checks = rep.checks
    assert len(checks) == rep.n_pairs
    for j, c in enumerate(checks):
        assert c.x.tolist() == rep.x[j].tolist()
        assert c.y.tolist() == rep.y[j].tolist()
        assert (c.lhs, c.rhs, c.passed) == (rep.lhs[j], rep.rhs[j],
                                            rep.verdicts[j])


def test_verify_contractive_no_pairs():
    rep = verify_contractive(_decay_map(), [])
    assert rep.n_pairs == 0 and rep.checks == () and rep.passed


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


def test_verify_contractive_lets_a_late_linalg_error_through():
    # singular only at a point past the rows checked one by one
    def apply(x):
        if np.any(x == 5.0):
            raise np.linalg.LinAlgError("singular at 5")
        return x / 2.0

    pairs = [([1.0], [2.0])] * 9 + [([1.0], [5.0])]
    with pytest.raises(np.linalg.LinAlgError, match="singular at 5"):
        verify_contractive(_whole_line(apply), pairs)

