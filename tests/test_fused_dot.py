"""core._fma, the fused 2-term dot product of the float forms, and the
forms that split a factor once (core._fsq, planar-rotation's tuple apply,
the ball's pre-tested tuple contains), the inner solves' residual
pre-test (core._far) and the Euclidean distance at every scale, against an
oracle that needs no BLAS kernel.

a * b + c rounded once is float(Fraction(a) * Fraction(b) + Fraction(c))
for finite arguments, an infinity of its sign past the largest float, and
the IEEE rules for a zero or a NaN or infinite argument.  None of this
depends on the OpenBLAS kernel, so these tests hold on every kernel
(OPENBLAS_CORETYPE=Prescott, Haswell, SkylakeX, ...), as the goldens of
planar-rotation's trace now do.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, strategies as st

from fixpoint.core import _far, _fma, _fsq, ball, euclidean
from fixpoint.gallery import _build_planar_rotation

_EDGE = 2.0 ** 480

# the magnitudes where the split stops being exact, on both sides of each
# edge; subnormals; the largest float; zeros of both signs
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1e-310, 1.7976931348623157e308, -1.7976931348623157e308,
            2.0 ** 1000, 2.0 ** -1000]
for _edge in (_EDGE, 1.0 / _EDGE):
    for _v in (_edge, math.nextafter(_edge, 0.0),
               math.nextafter(_edge, math.inf)):
        _SPECIAL += [_v, -_v]

# magnitudes on both sides of the split's range, where a product's low
# bits fall below the subnormals or its sum with c past the largest float
_NEAR_EDGES = st.one_of(st.floats(2.0 ** -560, 2.0 ** -460),
                        st.floats(2.0 ** 460, 2.0 ** 520))
_FINITE = st.one_of(st.sampled_from(_SPECIAL), st.floats(-10.0, 10.0),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(-1e-300, 1e-300), _NEAR_EDGES,
                    _NEAR_EDGES.map(lambda v: -v))
_ANY = st.one_of(_FINITE, st.sampled_from([math.inf, -math.inf, math.nan]),
                 st.floats())


def _fused(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, by the exact rational value, or by the IEEE
    rules where an argument is NaN or infinite: such a product is exact
    (inf or NaN), and a finite product leaves a NaN or infinite c."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return a * b + c
    if not math.isfinite(c):
        return c
    v = Fraction(a) * Fraction(b) + Fraction(c)
    if not v:
        # an exact zero: the sum of the product's signed zero and c where
        # a or b is zero, else +0.0 (round to nearest)
        return a * b + c if not (a and b) else 0.0
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _same(a: float, b: float) -> bool:
    """The same double (a zero's sign included), or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@given(_FINITE, _FINITE, _FINITE)
@example(-0.0, 1.0, -0.0)       # fsum gives +0.0 where -0.0 is due
@example(0.0, -1.0, -0.0)
@example(-0.0, -0.0, 0.0)
@example(0.1, 0.1, -0.010000000000000002)   # c cancels a * b: its error
@example(_EDGE, _EDGE, -1.7976931348623157e308)
@example(1.0 / _EDGE, 1.0 / _EDGE, 0.0)     # the product underflows
@example(1.5, 1.7976931348623157e308, -1.7976931348623157e308)
@example(_EDGE / 2.0, _EDGE / 2.0, 1.7976931348623157e308)  # stays finite
@example(2.0 ** 500, 2.0 ** 524, -1.7976931348623157e308)
@example(-(2.0 ** 1000), 2.0 ** 100, 1.0)   # past the floats: -inf
@example(2.0 ** 511, 2.0 ** 511, 1.7976931348623157e308)
# c cancels a product whose low bits fall below the subnormals: the split
# of a factor below 2^-480 would lose them
@example(float.fromhex("0x1.d8f16ad9ac27cp-543"),
         float.fromhex("0x1.c386bbc204f8ap-488"),
         float.fromhex("-0x0.01a1151c3d18bp-1022"))
@example(float.fromhex("0x1.eb8ac8db877e6p-535"),
         float.fromhex("0x1.8c5fe8e76dfcap-491"),
         float.fromhex("-0x0.2f912d6664280p-1022"))
@example(2.0 ** 1000, -(2.0 ** 100), 1.7976931348623157e308)
def test_fma_equals_the_exact_rounding(a, b, c):
    assert _same(_fma(a, b, c), _fused(a, b, c))


@given(_FINITE, _FINITE, st.floats(-1.0, 1.0))
def test_fma_rounds_once_where_c_cancels_the_product(a, b, u):
    # c near -(a * b) leaves the product's rounding error as the value,
    # where rounding twice is furthest off
    c = -(a * b) * (1.0 + u * 2.0 ** -40)
    if math.isfinite(c):
        assert _same(_fma(a, b, c), _fused(a, b, c))


@given(_ANY, _ANY, _ANY)
@example(math.nan, 1.0, 1.0)
@example(math.inf, 0.0, 1.0)                # inf * 0 is NaN
@example(math.inf, 2.0, -math.inf)          # inf - inf is NaN
@example(1.0, 1.0, -math.inf)
@example(1e300, 1e300, -math.inf)           # a * b overflows, not fused
@example(_EDGE, 1.0, math.nan)
@example(-math.inf, -1.0, 5.0)
def test_fma_of_a_nan_or_an_infinity_follows_ieee(a, b, c):
    got = _fma(a, b, c)
    assert _same(got, _fused(a, b, c))
    overflows = math.isfinite(a) and math.isfinite(b) and \
        not math.isfinite(a * b)
    if not all(map(math.isfinite, (a, b, c))) and not overflows:
        # a fused and an unfused kernel agree here, so the array form's
        # 2-term dot gives the same on any kernel
        with np.errstate(all="ignore"):
            dot = float(np.array([c, a]).dot(np.array([1.0, b])))
        assert _same(got, dot)


@given(_ANY, _ANY)
@example(-0.0, -0.0)
@example(_EDGE, -1.7976931348623157e308)
@example(1.0 / _EDGE, 0.0)
@example(0.1, -0.010000000000000002)
def test_fsq_equals_the_exact_rounding(v, c):
    assert _same(_fsq(v, c), _fused(v, v, c))


@given(_FINITE, st.floats(-1.0, 1.0))
def test_fsq_rounds_once_where_c_cancels_the_square(v, u):
    c = -(v * v) * (1.0 + u * 2.0 ** -40)
    if math.isfinite(c):
        assert _same(_fsq(v, c), _fused(v, v, c))


# angles in the gallery's range; ones whose sine lies below the split's
# range (5e-324 to 2^-481), where R[1, 0] is not split and _fma takes
# over; and ones whose sine or cosine is a rounding remainder near 1e-16
_THETA = st.one_of(st.floats(0.1, 2.0 * math.pi - 0.1),
                   st.sampled_from([5e-324, 1e-300, 2.0 ** -481, 1e-140,
                                    math.pi, math.pi / 2.0,
                                    1.5 * math.pi]))


@given(_THETA, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
       st.one_of(_FINITE, _ANY), st.one_of(_FINITE, _ANY))
@example(0.7, 1.0, 0.5, 0.0, 1.0)       # x0 = 0: the path's start
@example(0.7, 1.0, 0.5, -0.0, -0.0)
@example(0.7, 0.0, 0.0, 5e-324, 3.0)    # a subnormal x0
@example(0.7, 0.0, 0.0, 2.0 ** 600, 2.0 ** 600)
@example(0.7, 0.0, 0.0, math.nan, 1.0)
@example(0.7, 0.0, 0.0, 1.0, -math.inf)
@example(1e-300, 3.0, -2.0, 1.5, 2.5)   # R[1, 0] below the split
def test_rotation_tuple_apply_rounds_each_dot_once(theta, bx, by, x0, x1):
    # coordinate j of x R^T + b is fma(x0, R[j, 0], x1 R[j, 1]) + b_j,
    # with x0 split once for both coordinates and R's column at build time
    apply = _build_planar_rotation(theta, bx, by, math.inf)[0].apply
    c, s = math.cos(theta), math.sin(theta)
    got = apply((x0, x1))
    assert type(got) is tuple
    assert _same(got[0], _fused(x0, c, x1 * -s) + bx)
    assert _same(got[1], _fused(x0, s, x1 * c) + by)


def _nudged(v: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


# radii from 2^-600 to 2^600, across the pre-test's window [2^-450, 2^511)
_RADII = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                   st.integers(-600, 600))
_ULPS = st.integers(-4, 4)


@given(_RADII, st.floats(0.0, 2.0 * math.pi), _ULPS, _ULPS,
       st.one_of(st.just((0.0, 0.0)), st.just((-0.0, 0.0)),
                 st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))))
@example(1.0, 0.0, 0, 0, (0.0, 0.0))
@example(2.0 ** -450, 0.5, 1, -1, (0.0, 0.0))   # the window's edges
@example(math.ldexp(0.75, 511), 2.0, -1, 0, (0.0, 0.0))
@example(2.0 ** -520, 1.0, 2, 2, (1.0, -1.0))   # the norm underflows
def test_pre_tested_contains_equals_the_fused_predicate(radius, angle, k0,
                                                        k1, off):
    # a point within a few ulps of the sphere, about a center of zeros or
    # one up to three radii off; the pre-test may only take a point that
    # sqrt(fma(v1, v1, v0 v0)) <= radius takes, so the verdict is that
    # predicate's, or the array form's where that root overflowed or
    # underflowed below 2^-511, as before the pre-test
    center = (off[0] * radius, off[1] * radius) if any(off) else off
    p = (_nudged(center[0] + radius * math.cos(angle), k0),
         _nudged(center[1] + radius * math.sin(angle), k1))
    d = ball(center, radius)
    v0, v1 = p[0] - center[0], p[1] - center[1]
    r = math.sqrt(_fused(v1, v1, v0 * v0))
    if 2.0 ** -511 <= r < math.inf:
        assert d.contains(p) is (r <= radius)
    else:
        assert d.contains(p) is d.contains(np.array(p))


def test_contains_refuses_a_point_the_unfused_sum_would_take():
    # v0 v0 + v1 v1 rounds to radius^2 or below, yet the fused square's
    # root is above the radius: a pre-test with no margin would take it
    radius = 1.7893803484912232
    p = (0.013748755781528944, 1.7893275282298184)
    v0, v1 = p
    assert v0 * v0 + v1 * v1 <= radius * radius
    assert math.sqrt(_fused(v1, v1, v0 * v0)) > radius
    assert ball([0.0, 0.0], radius).contains(p) is False


# tolerances from 2^-450 to 2^450, the pre-test's whole window
_TOLS = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                  st.integers(-449, 450))


@given(_TOLS, st.floats(0.0, 2.0 * math.pi), _ULPS, _ULPS,
       st.one_of(st.just((0.0, 0.0)), st.just((-0.0, 0.0)),
                 st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))))
@example(1.0, 0.0, 1, 0, (0.0, 0.0))
@example(2.0 ** -450, 0.5, 1, 1, (0.0, 0.0))    # the window's edges
@example(2.0 ** 450, 2.0, 4, -4, (1.0, -2.0))
def test_far_steps_only_where_the_fused_distance_is_above_tol(tol, angle,
                                                              k0, k1, off):
    # y within a few ulps of the sphere of radius tol about x, x at the
    # origin or up to three tol off it: where the pre-test calls the pair
    # far, distance, and the fused square's root by exact rationals, are
    # above tol, so the drive steps on as distance would have it
    x = (off[0] * tol, off[1] * tol) if any(off) else off
    y = (_nudged(x[0] + tol * math.cos(angle), k0),
         _nudged(x[1] + tol * math.sin(angle), k1))
    far = _far(tol)
    assert far is not None
    if far(x, y):
        v0, v1 = x[0] - y[0], x[1] - y[1]
        assert math.sqrt(_fused(v1, v1, v0 * v0)) > tol
        assert euclidean(2).distance(x, y) > tol


def test_far_keeps_a_pair_the_unfused_sum_would_step_past():
    # v0 v0 + v1 v1 rounds above tol^2, yet the fused square's root is
    # tol: a pre-test with no margin would skip a converged residual
    tol = 1.6713850252727664
    x, y = (0.0, 0.0), (-1.3810403711435073, -0.9414113850904132)
    v0, v1 = y
    assert v0 * v0 + v1 * v1 > tol * tol
    assert math.sqrt(_fused(v1, v1, v0 * v0)) <= tol
    assert euclidean(2).distance(x, y) <= tol
    assert _far(tol)(x, y) is False


@given(st.floats(0.0, allow_infinity=True, allow_subnormal=True))
@example(2.0 ** -450)
@example(math.nextafter(2.0 ** -450, 0.0))
@example(2.0 ** 450)
@example(math.ldexp(0.75, 512))
@example(2.0 ** 512)
def test_far_has_no_pre_test_outside_its_window(tol):
    # outside about [2^-450, 2^512) tol^2 (1 + 2^-40) is past the floats or
    # below 2^-900, where the absolute rounding of the unfused sum is not
    # covered, so every step takes distance
    lim = tol * tol * (1.0 + 2.0 ** -40)
    assert (_far(tol) is None) is not (2.0 ** -900 <= lim < math.inf)
    if _far(tol) is not None:
        # a pair at distance 2 tol is far unless its square overflows;
        # one at tol / 2 is not
        big = 2.0 * tol
        assert _far(tol)((0.0, 0.0), (big, 0.0)) is (big * big < math.inf)
        assert not _far(tol)((0.0, 0.0), (0.5 * tol, 0.0))


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
