"""Property tests (hypothesis) of the domains and the Picard kernels.

* every domain's project lands inside the domain and is nonexpansive, for
  points and for rows;
* a perturbed orbit with delta = 0 is the exact orbit, bit for bit;
* the batch kernel's worst distance of each of m rows stepped together
  is, bit for bit, that of the row's single orbit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fixpoint.core import (MappingInstance, ball, box, constant_modulus,
                           euclidean, halfline, halfspace)
from fixpoint.errors import ArgumentError
from fixpoint.gallery import list_maps, make_map
from fixpoint.picard import (_ball_noise, _perturbed_steps, orbit_exact,
                             orbit_inexact)

# coordinates and parameters up to 1e251, with their exponents spread
# evenly: a ball's center far from the origin against its radius, or a
# point far out along a plane against its gap, is where rounding decides
# membership.  Squared norms and dot products overflow from about 1e154
# on; the domains take those in the point's own units.  The cap stops
# where a halfspace's boundary leaves the floats: with normals down to
# 1e-50, offset / |normal| reaches 1e301 here; past exponents of about
# 257 it can pass the largest float, and the boundary points built below,
# or a projection's overshoot, round to infinity.
_POSITIVE = st.builds(lambda m, k: m * 10.0 ** k,
                      st.floats(1.0, 10.0), st.integers(-100, 250))
_COORD = st.one_of(st.just(0.0), _POSITIVE, _POSITIVE.map(lambda v: -v))


@st.composite
def _domains(draw):
    """(domain, dimension, scale): scale bounds the magnitude of the
    domain's parameters, for the rounding slack."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["box", "halfline", "ball", "halfspace"]))
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
    if kind == "ball":
        c = draw(st.lists(_COORD, min_size=d, max_size=d))
        # or a radius a few to a few thousand ulps of the center
        r = draw(st.one_of(_POSITIVE, st.integers(4, 13).map(
            lambda k: (max(map(abs, c)) or 1.0) * 10.0 ** -k)))
        return ball(c, r), d, float(np.abs(c).max()) + r
    nv = draw(st.lists(_COORD, min_size=d, max_size=d).filter(
        lambda v: max(map(abs, v)) > 1e-50))
    offset = draw(_COORD)
    return halfspace(nv, offset), d, abs(offset) / math.hypot(*nv)


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


# the membership tests try one norm or dot product first; numpy warns when
# it overflows, before the domain takes the point in its own units
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=200)     # 60 draws miss the hard boundary cases
@given(_projection_cases())
# a boundary at -1e308 where the factor gap / |normal|^2 of the move across
# the plane overflows: the projection went to -inf
@example((halfspace([1e-25], -1e283), 1e308,
          np.array([[0.0], [1e308], [-1e300]])))
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
    # the ball and halfspace forms step a hair past the exact projection,
    # hence a slack relative to the magnitudes involved; hypot, since a
    # squared distance can overflow here
    for i in range(len(rows)):
        for j in range(i):
            gap = math.hypot(*(projected[i] - projected[j]))
            bound = math.hypot(*(rows[i] - rows[j]))
            size = scale + np.abs(rows[i]).max() + np.abs(rows[j]).max()
            assert gap <= bound * (1.0 + 1e-12) + 1e-9 * size


# ---------------------------------------------------------------------------
# orbits

_ELEMENTWISE_2D = [
    MappingInstance(apply=lambda x: 0.5 * x + np.array([0.25, -0.5]),
                    declared_modulus=constant_modulus(0.5),
                    domain=ball([0.0, 0.0], 1.0), space=euclidean(2)),
    MappingInstance(apply=lambda x: 0.9 * x * np.array([1.0, -1.0]) + 0.4,
                    declared_modulus=constant_modulus(0.9),
                    domain=halfspace([1.0, 2.0], 1.0), space=euclidean(2)),
]


@st.composite
def _maps_and_starts(draw, m: int = 1):
    """A map and an (m, d) array of starts inside its domain: a gallery
    map with its sampler, or a 2-D elementwise map on a ball or a
    halfspace, whose starts are projected in."""
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
       st.integers(1, 80), st.sampled_from([0.0, 1e-3, 0.3]),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_stepping_rows_together_equals_one_row_runs(map_and_starts, n,
                                                     delta, seed, data):
    # the batch kernel against the single-orbit kernel: the row contract
    # is bit for bit for elementwise maps; planar-rotation is affine, and
    # its batched rows may differ in the last bits
    T, starts = map_and_starts
    m, d = starts.shape
    noise = None
    if delta > 0.0:
        noise = np.stack([_ball_noise(seed + j, n, d, delta)
                          for j in range(m)], axis=1)
    k = data.draw(st.integers(1, n))
    anchor = starts[0]
    worst = _perturbed_steps(T, starts, n, noise, anchor, k)
    for j in range(m):
        orbit = orbit_inexact(T, starts[j], n, delta, noise_seed=seed + j)
        one = (math.inf if orbit.exited_domain_at is not None else
               T.space.rowwise_distance(orbit.points[k:], anchor).max())
        assert worst[j:j + 1].tobytes() == np.array([one]).tobytes()
