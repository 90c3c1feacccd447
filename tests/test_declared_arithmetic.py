"""The declared arithmetic: every norm, distance and ball predicate, and
planar-rotation's apply, is binary64 + - * / and sqrt, each rounded once,
with sums added left to right and nothing fused.  So the tuple, point and
row forms, and a view with a negative stride, give the same bits as the
formula written out on Python floats, on every OpenBLAS kernel
(OPENBLAS_CORETYPE=Prescott, Haswell, ...), and the Euclidean distance is
within a few ulps of the exact one, by rationals.  A NaN or an infinity
gives the norm IEEE gives the written-out sum, and no source line of the
package calls BLAS but planar-rotation's np.linalg.solve.
"""

import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import fixpoint
from fixpoint.core import ball, euclidean
from fixpoint.gallery import make_map
from written_out import same_float, written_norm


def _layouts(v: list[float]) -> list[np.ndarray]:
    """v as a contiguous point, a strided column and a view with a
    negative stride."""
    d = len(v)
    col = np.zeros((d, 2))
    col[:, 1] = v
    return [np.array(v), col[:, 1], np.array(v[::-1])[::-1]]


# ordinary magnitudes, squares that underflow (below about 1e-154) or
# overflow (above about 1e154), signed zeros and the least subnormal;
# below 1e200, so no difference of two coordinates overflows
_COORD = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e-150, 1e-150),
                   st.floats(1e150, 1e200), st.floats(-1e200, -1e150),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e200]))


@st.composite
def _cases(draw):
    """Dimension 1 to 5: two points, a ball's center and radius."""
    d = draw(st.integers(1, 5))
    pt = st.lists(_COORD, min_size=d, max_size=d)
    center = draw(st.one_of(st.just([0.0] * d), pt))
    return draw(pt), draw(pt), center, draw(st.floats(1e-300, 1e300))


@given(_cases(), st.floats(0.1, 2.0 * math.pi - 0.1),
       st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
# a point a few ulps from the sphere, which the fused square's root put
# outside where the unfused sum put it inside
@example(([0.013748755781528944, 1.7893275282298184], [0.0, 0.0],
          [0.0, 0.0], 1.7893803484912232), 2.0, (0.5, -1.5))
@example(([1e200, 0.0], [-0.0, 5e-324], [0.0, 0.0], 1e200), 2.0, (0.5, -1.5))
@example(([2e-200, -3e-200, 0.0], [0.0, 0.0, 5e-324], [1e-200, 0.0, 0.0],
          1e-200), 2.0, (0.5, -1.5))
# the squares added in another order round to the next double down
@example(([0.76, -1.19, 0.04], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
          1.4125508840392265), 2.0, (0.5, -1.5))
def test_every_form_rounds_as_the_written_out_formula(case, theta, shift):
    x, y, c, radius = case
    d = len(x)
    space, dom = euclidean(d), ball(c, radius)
    diff = [a - b for a, b in zip(x, y)]
    off = [a - b for a, b in zip(x, c)]
    want_norm, want_dist = written_norm(x), written_norm(diff)
    want_in = written_norm(off) <= radius
    want_bd = max(0.0, radius - written_norm(off))
    xs, ys = _layouts(x), _layouts(y)
    norms = [space.norm(p) for p in xs]
    dists = [space.distance(p, q) for p in xs for q in ys]
    dists += space.rowwise_distance(np.array([x]), np.array([y])).tolist()
    dists += [space.rowwise_distance(p[None], q).item()
              for p, q in zip(xs, ys)]
    inside = [dom.contains(p) for p in xs]
    inside += dom.contains_rows(np.array([x, x])).tolist()
    bds = [dom.boundary_distance(p) for p in xs]
    if d == 1:
        norms.append(space.norm(x[0]))
        dists.append(space.distance(x[0], y[0]))
    if d == 2:
        norms.append(space.norm(tuple(x)))
        dists.append(space.distance(tuple(x), tuple(y)))
        inside.append(dom.contains(tuple(x)))
        bds.append(dom.boundary_distance(tuple(x)))
    assert all(type(r) is float and same_float(r, want_norm) for r in norms)
    assert all(type(r) is float and same_float(r, want_dist) for r in dists)
    assert inside == [want_in] * len(inside)
    assert all(same_float(r, want_bd) for r in bds)
    if d == 2:
        bx, by = shift
        T = make_map("planar-rotation", theta=theta, bx=bx, by=by,
                     radius=1e6).mapping
        cs, sn = math.cos(theta), math.sin(theta)
        rows = T.apply(np.array([x, y, x]))
        for j, (p, ps) in enumerate(((x, xs), (y, ys))):
            v0, v1 = p
            want = (v0 * cs + v1 * -sn + bx, v0 * sn + v1 * cs + by)
            got = T.apply(tuple(p))
            assert type(got) is tuple and all(map(same_float, got, want))
            for q in ps:
                assert all(map(same_float, T.apply(q).tolist(), want))
            assert all(map(same_float, rows[j].tolist(), want))
        assert rows[2].tobytes() == rows[0].tobytes()


# differences down to the subnormals, where a squared norm underflows,
# and ordinary ones
_COORDS = st.one_of(st.floats(-1e-150, 1e-150), st.floats(-10.0, 10.0),
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2e-200,
                                     2.2250738585072014e-308]))


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(_COORDS, min_size=d, max_size=d),
    st.lists(_COORDS, min_size=d, max_size=d))))
@example(([2e-200, 0.0], [0.0, 0.0]))
@example(([2e-200], [0.0]))
@example(([5e-324, 0.0, 0.0], [0.0, -5e-324, 0.0]))
@example(([1e-160, 1e-160], [-1e-160, 3e-161]))
def test_euclidean_distance_is_the_exact_distance_rounded(xy):
    # against the exact rational sum of squares: every form of distance
    # and norm, point, row and float form, is within 8 ulps of the exact
    # root, plus half the least subnormal, so it is 0 only between equal
    # points; before, a difference below about 1e-154 read 0
    x, y = map(np.array, xy)
    d = len(x)
    space = euclidean(d)
    exact = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(*xy))
    got = [space.distance(x, y),
           float(space.rowwise_distance(x[None], y[None])[0]),
           space.norm(x - y)]
    if d == 1:
        got += [space.distance(xy[0][0], xy[1][0])]
    elif d == 2:
        got += [space.distance(tuple(xy[0]), tuple(xy[1])),
                space.norm(tuple((x - y).tolist()))]
    eps, tiny = Fraction(8, 2 ** 53), Fraction(1, 2 ** 1075)
    for r in got:
        assert type(r) is float and (r == 0.0) is (exact == 0)
        lo, hi = Fraction(r) - tiny, Fraction(r) + tiny
        assert max(lo, 0) ** 2 <= exact * (1 + eps) ** 2
        assert exact * (1 - eps) ** 2 <= hi ** 2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_norms_of_a_nan_or_an_infinity_follow_ieee(d):
    # a NaN coordinate gives a NaN norm in every form, an infinite one
    # with no NaN an inf norm, as the written-out sum of squares does
    # (inf beside NaN is NaN there, not hypot's inf); the ball holds no
    # such point, and none of it warns
    space, dom = euclidean(d), ball([0.0] * d, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for j in range(d):
            for rest in (1.5, -0.0, 1e200):
                v = [rest] * d
                v[j] = bad
                vs = [v]
                if d > 1:
                    vs.append([math.inf if i == j else math.nan
                               for i in range(d)])
                for w in vs:
                    want = math.nan if any(map(math.isnan, w)) else math.inf
                    zero = [0.0] * d
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = [space.norm(p) for p in _layouts(w)]
                        got += [space.distance(p, np.array(zero))
                                for p in _layouts(w)]
                        got += space.rowwise_distance(
                            np.array([w]), np.array([zero])).tolist()
                        inside = [dom.contains(p) for p in _layouts(w)]
                        inside += [dom.interior_contains(np.array(w))]
                        inside += dom.contains_rows(np.array([w])).tolist()
                        if d == 1:
                            got += [space.norm(w[0]),
                                    space.distance(w[0], 0.0)]
                        if d == 2:
                            got += [space.norm(tuple(w)),
                                    space.distance(tuple(w), (0.0, 0.0))]
                            inside.append(dom.contains(tuple(w)))
                    assert all(same_float(r, want) for r in got), (w, got)
                    assert not any(inside), w


@pytest.mark.parametrize("v,c,radius", [
    ([1e-170, 1e-170], [0.0, 0.0], 1.0),
    ([5e-324, 0.0, -1e-200], [0.0, 0.0, 0.0], 1.0),
    ([1e-300], [0.0], 1.0),
    # a norm below the normal floats, scaled back from its own units
    ([1e-310, -1e-310], [0.0, 0.0], 1.0),
    # squares that overflow, and a coordinate that underflows in the
    # row's own units
    ([1e200, -1e-300], [0.0, 0.0], 1.0),
    # the offset overflows, and its tiny coordinate, and the radius, are
    # below the normal floats in the offset's own units
    ([1e308, 1e-300], [-1e308, 0.0], 1e-300),
])
def test_no_norm_form_raises_on_an_underflow(v, c, radius):
    # numpy flags the squares of v, or its offset or the radius in the
    # offset's own units, as underflowing; under np.errstate(under="raise")
    # the row forms, which the point forms fall back on there, took that
    # flag and raised FloatingPointError, where the Python-float
    # arithmetic of the point forms never raises
    d = len(v)
    space, dom = euclidean(d), ball(c, radius)
    x, rows, zero = np.array(v), np.array([v, v]), np.zeros(d)
    want = written_norm(v)
    want_in = written_norm([a - b for a, b in zip(v, c)]) <= radius
    with np.errstate(all="raise"):
        got = [space.norm(x), space.distance(x, zero)]
        got += space.rowwise_distance(rows, zero).tolist()
        inside = [dom.contains(x)] + dom.contains_rows(rows).tolist()
        if d == 2:
            got += [space.norm(tuple(v)),
                    space.distance(tuple(v), (0.0, 0.0))]
            inside.append(dom.contains(tuple(v)))
    assert all(type(r) is float and same_float(r, want) for r in got)
    assert inside == [want_in] * len(inside)


# the only linear algebra the package calls: planar-rotation's closed-form
# fixed point and path, which checks compare only to a tolerance
_BLAS = re.compile(r"\.dot\(| @ |matmul|einsum|vdot|np\.inner\("
                   r"|linalg\.(?!solve\(|LinAlgError)")


def test_no_reported_float_goes_through_blas():
    # every norm, distance, predicate and map is written out in + - * /
    # and sqrt, so its bits do not depend on the BLAS kernel
    src = sorted(Path(fixpoint.__file__).parent.glob("*.py"))
    assert src
    hits = [f"{f.name}:{i}: {line.strip()}" for f in src
            for i, line in enumerate(f.read_text().splitlines(), 1)
            if _BLAS.search(line)]
    assert hits == []
