import dataclasses
import math

import numpy as np
import pytest

from fixpoint.core import (as_point, ball, box, check_modulus_admissible,
                           constant_modulus, euclidean, eval_modulus,
                           halfline, halfspace, max_norm,
                           nonexpansive_modulus, rational_decay_modulus,
                           table_modulus, verify_contractive,
                           MappingInstance, _row_dot, _row_norms)
from fixpoint.errors import ArgumentError, DomainError


# ---------------------------------------------------------------------------
# moduli

def test_rational_decay_values():
    m = rational_decay_modulus()
    # 1 / 1.1 by hand
    assert eval_modulus(m, 0.1) == pytest.approx(0.9090909090909091, abs=0)
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
    for s in (euclidean(3), max_norm(3)):
        a = rng.standard_normal((20, 3))
        b = rng.standard_normal((20, 3))
        rows = s.rowwise_distance(a, b)
        for i in range(20):
            # accumulation order differs between the batch and scalar
            # routes, so agreement is only to an ulp
            assert rows[i] == pytest.approx(s.distance(a[i], b[i]),
                                            rel=1e-15)


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
    projected = dom.project_rows(rows)
    assert inside.shape == (500,) and projected.shape == rows.shape
    assert 0 < inside.sum() < 500
    for p, c, q in zip(rows, inside, projected):
        assert c == dom.contains(p)
        assert np.array_equal(q, dom.project(p))


def test_domain_needs_both_projection_forms_or_neither():
    d = box([-1.0], [1.0])
    with pytest.raises(ArgumentError, match="project_rows"):
        dataclasses.replace(d, project_rows=None)
    with pytest.raises(ArgumentError, match="project_rows"):
        dataclasses.replace(d, project=None)
    bare = dataclasses.replace(d, project=None, project_rows=None)
    assert bare.project is None


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
