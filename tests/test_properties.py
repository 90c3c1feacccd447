"""Property tests (hypothesis) of the domains, the Picard kernels and the
boundary-condition test.

* every domain's project lands inside the domain and is nonexpansive, for
  points and for rows;
* every domain's project returns a member unchanged, bit for bit, and
  does not write into its argument, for points and for rows;
* the ball's contains (on arrays and tuples), contains_rows,
  interior_contains, boundary_distance and project decide on one rounded
  ||p - c|| at radii of every binary exponent;
* a perturbed orbit with delta = 0 is the exact orbit, bit for bit;
* the batch kernel's worst distance of each of m rows stepped together
  is, bit for bit, that of the row's single orbit, with the anchor on the
  boundary or off it and the window folded in blocks of any size;
* check_leray_schauder's one alignment test reports every lam > 1 that
  T x meets within tol / 2, and no lam <= 1.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fixpoint.continuation import check_leray_schauder
from fixpoint.core import (MappingInstance, ball, box, constant_modulus,
                           euclidean, halfline, max_norm,
                           nonexpansive_modulus)
from fixpoint.errors import ArgumentError
from fixpoint import picard
from fixpoint.gallery import list_maps, make_map
from fixpoint.picard import (_ball_noise, _perturbed_steps, orbit_exact,
                             orbit_inexact)

# coordinates and parameters up to 1e251, with their exponents spread
# evenly: a ball's center far from the origin against its radius is where
# rounding decides membership.  Squared norms overflow from about 1e154
# on; the domains take those in the point's own units.  The cap keeps the
# sums and differences the tests form (a box's lo + width, a ball's
# center plus its radius, the distance between two rows) finite, so no
# check holds a value against an infinity.
_POSITIVE = st.builds(lambda m, k: m * 10.0 ** k,
                      st.floats(1.0, 10.0), st.integers(-100, 250))
_COORD = st.one_of(st.just(0.0), _POSITIVE, _POSITIVE.map(lambda v: -v))


@st.composite
def _domains(draw):
    """(domain, dimension, scale): scale bounds the magnitude of the
    domain's parameters, for the rounding slack."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["box", "halfline", "ball"]))
    if kind == "halfline":
        a = draw(_COORD)
        return halfline(a), 1, abs(a)
    if kind == "box":
        lo = np.array(draw(st.lists(_COORD, min_size=d, max_size=d)))
        width = np.array(draw(st.lists(
            st.one_of(_POSITIVE, st.just(math.inf)), min_size=d, max_size=d)))
        hi = lo + width
        lo[draw(st.lists(st.booleans(), min_size=d, max_size=d))] = -math.inf
        if not np.all(lo < hi):         # lo + width rounded back to lo
            hi = np.where(lo < hi, hi, np.nextafter(lo, math.inf))
        return box(lo, hi), d, 0.0
    c = draw(st.lists(_COORD, min_size=d, max_size=d))
    # or a radius a few to a few thousand ulps of the center
    r = draw(st.one_of(_POSITIVE, st.integers(4, 13).map(
        lambda k: (max(map(abs, c)) or 1.0) * 10.0 ** -k)))
    return ball(c, r), d, float(np.abs(c).max()) + r


@st.composite
def _projection_cases(draw):
    """(domain, scale, rows): a domain as _domains draws it and an (m, d)
    array of points to project, some a few ulps off the boundary."""
    dom, d, scale = draw(_domains())
    rows = draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), d),
                           elements=_COORD))
    for i in range(len(rows)):
        # a point a few ulps off the boundary, where rounding decides
        # whether a projection lands inside
        if draw(st.booleans()):
            try:
                rows[i] = dom.nearest_boundary(rows[i]) * (
                    1.0 + draw(st.sampled_from([-1.0, 1.0]))
                    * 10.0 ** -draw(st.integers(8, 17)))
            except ArgumentError:       # no finite boundary face here
                pass
    return dom, scale, rows


@settings(max_examples=200)     # 60 draws miss the hard boundary cases
@given(_projection_cases())
def test_projection_lands_inside_and_is_nonexpansive(case):
    dom, scale, rows = case
    projected = dom.project(rows)
    assert projected.shape == rows.shape
    assert dom.contains_rows(projected).all()
    for p, q in zip(rows, projected):
        pp = dom.project(p)
        assert pp.shape == p.shape and np.array_equal(pp, q)
        assert dom.contains(pp)
    # the metric projection onto a convex set cannot increase a distance;
    # the ball's form steps a hair past the exact projection,
    # hence a slack relative to the magnitudes involved; hypot, since a
    # squared distance can overflow here
    for i in range(len(rows)):
        for j in range(i):
            gap = math.hypot(*(projected[i] - projected[j]))
            bound = math.hypot(*(rows[i] - rows[j]))
            size = scale + np.abs(rows[i]).max() + np.abs(rows[j]).max()
            assert gap <= bound * (1.0 + 1e-12) + 1e-9 * size


# signed zeros, subnormals, the least normal, the far doubles and the
# infinities, beside the spread coordinates
_EDGE = st.one_of(st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
     1e308, -1e308, math.inf, -math.inf]), _COORD)


@st.composite
def _members(draw):
    """(domain, rows): a domain and an (m, d) array of points, many of
    them members on its boundary: box and halfline rows built from signed
    zeros, subnormals and the bounds themselves; ball rows on the sphere
    (radii up to 1e251) or on a segment from the center to it."""
    kind = draw(st.sampled_from(["box", "halfline", "ball"]))
    d = 1 if kind == "halfline" else draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    coords = st.lists(_COORD, min_size=d, max_size=d)
    if kind == "halfline":
        a = draw(_EDGE.filter(lambda v: v < math.inf))
        return halfline(a), draw(hnp.arrays(
            np.float64, (m, 1), elements=st.one_of(_EDGE, st.just(a))))
    if kind == "box":
        lo, hi = [], []
        for _ in range(d):
            a, b = draw(_EDGE), draw(_EDGE)
            assume(a != b)
            lo.append(min(a, b))
            hi.append(max(a, b))
        return box(lo, hi), draw(hnp.arrays(
            np.float64, (m, d), elements=st.one_of(
                _EDGE, st.sampled_from(lo + hi))))
    rows = np.empty((m, d))
    c = np.array(draw(coords))
    dom = ball(c, draw(_POSITIVE))
    for i in range(m):
        with np.errstate(all="ignore"):
            on = dom.nearest_boundary(np.array(draw(coords)))
        rows[i] = c + (on - c) * draw(st.sampled_from([1.0, 0.5, 0.0]))
    return dom, rows


@settings(max_examples=300)
@given(_members())
@example((box([0.0, -1.0], [1.0, -0.0]),
          np.array([[-0.0, 0.0], [0.0, -0.0], [5e-324, -5e-324]])))
@example((halfline(-0.0), np.array([[0.0], [-0.0], [math.inf]])))
@example((ball([1e250, 0.0], 1e251),
          np.array([[1.1e251, 0.0], [1e250, 1e251], [1e250, -1e251]])))
# a subnormal radius: contains took the point's norm rounded back from its
# own units, project compared it unrounded against the radius in those
# units, and moved the member
@example((ball([0.0, 0.0], 2.5067181128526e-310),
          np.array([[1.1686253388549e-310, -2.21764526349227e-310]])))
def test_project_returns_a_member_unchanged_and_leaves_its_argument(case):
    # the stability kernel projects a whole batch once no row exits, so a
    # row already inside must come back with the same bits
    dom, rows = case
    before = rows.tobytes()
    with np.errstate(all="ignore"):     # what happens to the other rows
        inside = dom.contains_rows(rows)
        mixed = dom.project(rows)
    assert rows.tobytes() == before
    members = rows[inside]
    assert mixed[inside].tobytes() == members.tobytes()
    kept = members.tobytes()
    assert dom.project(members).tobytes() == kept
    assert members.tobytes() == kept
    for p in rows:
        with np.errstate(all="ignore"):
            if not dom.contains(p):
                continue
        q = p.tobytes()
        assert dom.project(p).tobytes() == q and p.tobytes() == q


def test_ball_forms_decide_on_one_norm_at_every_radius():
    # radii m 2^e at every fourth binary exponent, subnormal ones included,
    # about centred and off-centre balls in 2-D and 3-D, and points
    # c + u radius (1 +- 2^-k) on both sides of the sphere, where one
    # rounding of ||p - c|| decides: every form must decide on that one
    # value, so project returns every member with its bits
    rng = np.random.default_rng(7)
    for e in range(-1074, 1024, 4):
        radius = float(np.ldexp(rng.uniform(1.0, 2.0), e))
        for d in (2, 3):
            c = np.zeros(d)
            if rng.random() < 0.5:      # up to 2^60 radii off the origin
                j = min(int(rng.integers(0, 61)), 1020 - e)
                c = rng.uniform(-1.0, 1.0, d) * np.ldexp(radius, j)
            dom = ball(c, radius)
            u = rng.standard_normal((12, d))
            u /= np.sqrt((u * u).sum(axis=1))[:, None]
            k = rng.integers(1, 61, 12)
            with np.errstate(all="ignore"):
                rows = c + u * (radius * (1.0 + rng.choice([-1.0, 1.0], 12)
                                          * np.ldexp(1.0, -k)))[:, None]
            rows = rows[np.isfinite(rows).all(axis=1)]
            inside = dom.contains_rows(rows)
            for p, member in zip(rows, inside.tolist()):
                assert dom.contains(p) is member
                if d == 2:
                    assert dom.contains(tuple(p.tolist())) is member
                assert dom.interior_contains(p) is (
                    dom.boundary_distance(p) > 0.0)
            projected = dom.project(rows)
            assert projected[inside].tobytes() == rows[inside].tobytes()
            assert dom.contains_rows(projected).all()


# ---------------------------------------------------------------------------
# orbits

_ELEMENTWISE_2D = [
    MappingInstance(apply=lambda x: 0.5 * x + np.array([0.25, -0.5]),
                    declared_modulus=constant_modulus(0.5),
                    domain=ball([0.0, 0.0], 1.0), space=euclidean(2)),
    MappingInstance(apply=lambda x: 0.9 * x * np.array([1.0, -1.0]) + 0.4,
                    declared_modulus=constant_modulus(0.9),
                    domain=box([-math.inf, -math.inf], [1.0, math.inf]),
                    space=euclidean(2)),
]


@st.composite
def _maps_and_starts(draw, m: int = 1):
    """A map and an (m, d) array of starts inside its domain: a gallery
    map with its sampler, or a 2-D elementwise map on a ball or on the
    halfplane x <= 1, whose starts are projected in: those past x = 1
    land on that face and exit at step 1, as the map's fixed point
    (4, 0.4 / 1.9) lies outside."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    which = draw(st.sampled_from([*list_maps(), "constant-outside", 0, 1]))
    if isinstance(which, int):
        T = _ELEMENTWISE_2D[which]
        return T, T.domain.project(rng.uniform(-2.0, 2.0, (m, 2)))
    entry = (make_map("constant", c=2.0) if which == "constant-outside"
             else make_map(which))
    return entry.mapping, entry.sampler(rng, m)


@given(_maps_and_starts(), st.integers(1, 300))
def test_zero_delta_orbit_is_the_exact_orbit(map_and_start, n):
    T, starts = map_and_start
    exact = orbit_exact(T, starts[0], n)
    got = orbit_inexact(T, starts[0], n, 0.0, noise_seed=1)
    assert got.points.tobytes() == exact.points.tobytes()
    assert got.residuals.tobytes() == exact.residuals.tobytes()
    assert got.exited_domain_at == exact.exited_domain_at


@given(st.integers(2, 6).flatmap(
           lambda m: _maps_and_starts(m).filter(
               lambda ts: ts[0].space.dimension == 1
               or ts[0] in _ELEMENTWISE_2D)),
       st.integers(1, 300), st.sampled_from([0.0, 1e-3, 0.3]),
       st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(1, 16),
       st.data())
def test_stepping_rows_together_equals_one_row_runs(map_and_starts, n,
                                                     delta, seed, on_edge,
                                                     budget, data):
    # the batch kernel against the single-orbit kernel: the row contract
    # is bit for bit for elementwise maps; planar-rotation is affine, and
    # its batched rows may differ in the last bits.  An anchor on the
    # boundary makes the kernel test the images first; a window budget of
    # a few floats folds the window in blocks of one to eight steps, the
    # last one partial
    T, starts = map_and_starts
    m, d = starts.shape
    noise = None
    if delta > 0.0:
        noise = np.stack([_ball_noise(seed + j, n, d, delta)
                          for j in range(m)], axis=1)
    k = data.draw(st.sampled_from([1, n]) | st.integers(1, n))
    anchor = starts[0]
    if on_edge:
        try:
            anchor = T.domain.nearest_boundary(anchor)
        except ArgumentError:     # the whole line has no boundary
            pass
        if not T.domain.contains(anchor):
            anchor = T.domain.project(anchor)
    with mock.patch.object(picard, "_WINDOW_FLOATS", budget):
        worst = _perturbed_steps(T, starts, n, noise, anchor, k)
    for j in range(m):
        orbit = orbit_inexact(T, starts[j], n, delta, noise_seed=seed + j)
        one = (math.inf if orbit.exited_domain_at is not None else
               T.space.rowwise_distance(orbit.points[k:], anchor).max())
        assert worst[j:j + 1].tobytes() == np.array([one]).tobytes()


@st.composite
def _face_points(draw):
    """(space, x, tol): x on a face of the box [-1, 1]^d, d = 1..3, under
    the Euclidean or the max norm."""
    d = draw(st.integers(1, 3))
    space = draw(st.sampled_from([euclidean, max_norm]))(d)
    x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d,
                               max_size=d)))
    x[draw(st.integers(0, d - 1))] = draw(st.sampled_from([-1.0, 1.0]))
    return space, x, draw(st.sampled_from([1e-9, 1e-6, 1e-3]))


@example((euclidean(1), np.array([1.0]), 1e-9), 3.0, [0, 0, 0], 0.0, 1.0)
@given(_face_points(), st.floats(1.001, 10.0),
       st.lists(st.integers(-4, 4), min_size=3, max_size=3),
       st.floats(0.0, 1.0), st.floats(-10.0, 1.0))
def test_alignment_test_reports_every_lam_within_half_tol(case, lam, direction,
                                                          scale, lam_ok):
    # ||T x - mu x|| <= 2 ||T x - lam x|| in any norm, so T x = lam x + e
    # with ||e|| <= 0.45 tol leaves the ratio mu within tol of aligned
    space, x, tol = case
    d = x.shape[0]
    v = np.array(direction[:d], dtype=float)
    nv = space.norm(v)
    e = v * (0.45 * tol * scale / nv) if nv > 0.0 else np.zeros(d)

    def check(apply):
        return check_leray_schauder(
            MappingInstance(apply=apply,
                            declared_modulus=nonexpansive_modulus(),
                            domain=box([-1.0] * d, [1.0] * d), space=space),
            x, tol)

    got = check(lambda p: lam * p + e)
    assert got is not None
    assert abs(got - lam) <= tol / space.norm(x)
    assert check(lambda p: lam_ok * p) is None
