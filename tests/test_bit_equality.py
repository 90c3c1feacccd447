"""The fast paths give the bits of the forms they replace.

* euclidean(1)'s scalar distance and norm against the array norm and the
  row form, over all doubles;
* the Euclidean point forms in dimensions 2 to 5 against frozen copies
  of the written-out arithmetic they declare (the root of a left-to-right
  sum of squares, each operation rounded once), on any doubles and on
  strided views: _euclidean_norm (and against the row forms),
  euclidean(d)'s distance, the ball's point predicates (also in 1-D, and
  about a center of zeros, where they norm p itself) and
  planar-rotation's apply on points and on rows;
* a modulus called on an array against its scalar calls, and the audit's
  rhs against the per-pair products;
* the elementwise gallery maps' point form on Python floats against
  frozen copies of the ufunc bodies it replaced, on points, on rows and
  along 1,000-step orbits, and constant's body c - (x - x) against the
  frozen point c broadcast to the argument's shape, the form it replaced;
* the chunked CSV writers against frozen copies of the row loops they
  replaced;
* the stability batch kernel against a frozen copy of the kernel that
  gathered its noise by index on every step and projected only the rows
  outside, run on frozen copies of the row leaves it called (a box's
  reduction membership and np.clip, the 1-D root of the square), on
  boxes (a halfplane among them), a ball and a zero bound that rows
  land on with either sign;
* box's 1-D membership and its projection against the reduction and
  np.clip forms, and the 1-D .item() point forms against the p[0] forms;
* solve_at_t's 0-d multiplier against a frozen copy that scaled by the
  Python float t, on every gallery map over a grid of t, and trace_path
  on both with the ball predicates above;
* the float drive of the one-coordinate maps (float_points) against the
  array drive of the same map, in solve_fixed_point, orbit_exact and
  solve_at_t, and in orbit_inexact against a frozen copy of its array
  loop: results, error messages and payloads;
* planar-rotation's float form, tuples of two floats through its apply,
  a ball's contains and euclidean(2)'s distance, against the (2,) array
  forms, and its float drive against its array drive (its inner solves
  with drawn parameters, budgets and tolerances too), every outcome with
  its payload, a NonFiniteError among them;
* _ball_noise's one-coordinate form against a frozen copy of its general
  form, signed zeros included.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from hypothesis.extra import numpy as hnp

from fixpoint import continuation
from fixpoint.continuation import (ContinuationPath, LimitCertificate,
                                   PathConfig, PathEntry, limit_path,
                                   path_csv, solve_at_t, trace_path)
from fixpoint.core import (MappingInstance, ball, box, constant_modulus,
                           euclidean, halfline, _apply_rows,
                           _euclidean_norm, _frozen, _non_finite,
                           _refuse_non_finite, _row_norms, _row_norms_safe,
                           nonexpansive_modulus, rational_decay_modulus,
                           verify_contractive)
from fixpoint.errors import (ArgumentError, ConvergenceError, DomainError,
                             DomainExitError, FixpointError, NonFiniteError,
                             NonselfExitError)
from fixpoint.gallery import list_maps, make_map
from fixpoint.picard import (Orbit, _CSV_CHUNK, _ball_noise,
                             _iterate, _perturbed_steps, _start, orbit_csv,
                             orbit_exact, orbit_inexact, solve_fixed_point)
from written_out import same_float, written_norm, written_root

_DOUBLES = st.floats(allow_nan=True, allow_infinity=True,
                     allow_subnormal=True)
_TINY = 2.2250738585072014e-308     # the least normal float


# ---------------------------------------------------------------------------
# euclidean(1)

@given(_DOUBLES, _DOUBLES)
@example(1.5e154, 0.0)          # s * s overflows to inf
@example(1e155, -1e155)         # so does the difference's square
@example(-0.0, 0.0)
@example(0.0, -0.0)
@example(5e-324, 0.0)           # a subnormal whose square underflows to 0
@example(2.2250738585072014e-308, 1e-320)
@example(math.inf, math.inf)    # inf - inf is NaN
@example(-math.inf, 1.0)
@example(math.nan, 1.0)
def test_euclidean_1d_scalar_forms_equal_the_array_forms(a, b):
    # every form is abs of the difference's float; where that is 0 or its
    # square a normal float, that is the root of the square, the
    # d-dimensional formula in one coordinate (Boldo, ENTCS 317, 2015),
    # and elsewhere it neither underflows to 0 nor overflows to inf as
    # that root does
    space = euclidean(1)
    x, y = np.array([a]), np.array([b])
    with np.errstate(all="ignore"):
        rows = space.rowwise_distance(x[None], y[None])
        old, old_norm = written_root(x - y), written_root(x)
    s = a - b
    for got, want, was, v in ((space.distance(x, y), abs(s), old, s),
                              (space.distance(a, b), abs(s), old, s),
                              (float(rows[0]), abs(s), old, s),
                              (space.norm(x), abs(a), old_norm, a),
                              (space.norm(a), abs(a), old_norm, a)):
        assert type(got) is float and same_float(got, want)
        if v == 0.0 or _TINY <= v * v < math.inf:
            assert same_float(got, was)


# ---------------------------------------------------------------------------
# the point forms against the written-out formula, d = 2 to 5

# any doubles, with ordinary magnitudes, the squares that overflow (from
# about 1.3e154) and the subnormals drawn often
_ENTRIES = st.one_of(_DOUBLES, st.floats(-10.0, 10.0),
                     st.floats(1e150, 1e160), st.floats(-1e160, -1e150),
                     st.floats(-1e-300, 1e-300))


@st.composite
def _points(draw, d: int):
    """A point of dimension d with any entries: contiguous, or a strided
    view (every other entry, a column)."""
    base = draw(hnp.arrays(np.float64, 2 * d, elements=_ENTRIES))
    return draw(st.sampled_from(
        [base[:d].copy(), base[::2], base.reshape(d, 2)[:, 1]]))


_DIM_POINTS = st.integers(2, 5).flatmap(
    lambda d: st.tuples(_points(d), _points(d)))


@given(_DIM_POINTS)
@example((np.array([1e154, 1e154]), np.zeros(2)))
@example((np.array([5e-324, -5e-324, 0.0]), np.array([-0.0, 0.0, 1e-320])))
@example((np.array([math.inf, -math.inf]), np.array([math.nan, 1.0])))
def test_norm_and_distance_equal_the_written_out_forms(xy):
    x, y = xy
    space = euclidean(len(x))
    with np.errstate(all="ignore"):
        for v in (x, y, x - y):
            got = _euclidean_norm(v.tolist())
            assert type(got) is float
            assert same_float(got, written_norm(v))
            assert same_float(got, float(_row_norms_safe(v[None])[0]))
            assert same_float(float(_row_norms(v[None])[0]),
                              written_root(v))
        got = space.distance(x, y)
        want = written_norm(x - y)
        assert same_float(space.norm(x), written_norm(x))
        rows = space.rowwise_distance(x[None], y[None])
    assert type(got) is float and same_float(got, want)
    assert same_float(float(rows[0]), want)


def _written_ball(c: np.ndarray, radius: float):
    """Frozen copies of ball's point contains, interior_contains and
    boundary_distance as the written-out norm of p - c, or the own-units
    row form where that norm overflowed or, below 2^-511, underflowed."""
    def norm(p):
        r = written_root(p - c)
        if 2.0 ** -511 <= r < math.inf:
            return r
        return float(_row_norms_safe((p - c)[None])[0])

    def contains(p):
        return norm(p) <= radius

    def interior(p):
        return norm(p) < radius

    def bdist(p):
        return max(0.0, radius - norm(p))

    return contains, interior, bdist


# signed zeros, subnormals, the overflow path's 1e154 to 1e308, NaN and
# the infinities, beside _ENTRIES' ordinary and edge magnitudes
_BALL_ENTRIES = st.one_of(
    _ENTRIES, st.floats(1e154, 1e308), st.floats(-1e308, -1e154),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     math.nan, math.inf, -math.inf]))


@st.composite
def _ball_cases(draw):
    """A point of dimension 1 to 5 (contiguous or a strided view), a
    center of zeros of either sign or any finite center, and a radius."""
    d = draw(st.integers(1, 5))
    base = draw(hnp.arrays(np.float64, 2 * d, elements=_BALL_ENTRIES))
    p = draw(st.sampled_from([base[:d].copy(), base[::2],
                              base.reshape(d, 2)[:, 1]]))
    if draw(st.booleans()):
        c = draw(hnp.arrays(np.float64, d,
                            elements=st.sampled_from([0.0, -0.0])))
    else:
        c = np.nan_to_num(draw(hnp.arrays(np.float64, d, elements=_ENTRIES)),
                          nan=0.0, posinf=1e300, neginf=-1e300)
    return p, c, draw(st.floats(1e-300, 1e308))


@given(_ball_cases(), st.sampled_from([None, 1.0, 2.0]))
@example((np.array([1e200, 0.0]), np.zeros(2), 1e200), None)
# |p - c| summed in order rounds to 3.1080540535840107, the next double
# down from what the reversed order gives
@example((np.array([-0.6, -0.8, 0.7]), np.array([1.6, 0.3, -1.2]), 1.0),
         1.0)
@example((np.array([-0.6, -0.8, 0.7]), np.array([1.6, 0.3, -1.2]), 1.0),
         2.0)
@example((np.array([-0.0, 0.0]), np.array([0.0, -0.0]), 1.0), None)
@example((np.array([1e200, -1e300]), np.zeros(2), 1e300), None)
@example((np.array([math.nan, 0.0]), np.zeros(2), 1.0), None)
@example((np.array([math.inf, -0.0, 5e-324]), np.array([-0.0] * 3), 1.0),
         None)
@example((np.array([0.6, 0.8]), np.zeros(2), 1.0), None)   # on the sphere
# |p|^2 underflows to 0: the own-units norm puts p 2.2e-308 from the center
@example((np.array([2.2250738585072014e-308]), np.zeros(1), 1e-300), None)
def test_ball_point_predicates_equal_the_written_out_forms(case, rel):
    # rel, when given, puts the radius at that multiple of |p - c|, where
    # the last bit of the norm decides membership and shows in the
    # boundary distance; a ball about zeros takes the norm of p itself,
    # the reference that of p - c
    p, c, radius = case
    with np.errstate(all="ignore"):
        r = written_root(p - c)
    if rel is not None and 0.0 < r < 1e300:
        radius = rel * r
    dom = ball(c, radius)
    with np.errstate(all="ignore"):
        got = (dom.contains(p), dom.interior_contains(p),
               dom.boundary_distance(p))
        want = tuple(f(p) for f in _written_ball(c, radius))
    assert got[:2] == want[:2]
    assert type(got[2]) is float and same_float(got[2], want[2])


def _written_rotation(theta: float, bx: float, by: float):
    """Frozen copy of planar-rotation's apply written out coordinate by
    coordinate: x0 R[j, 0] + x1 R[j, 1] + b_j on points and rows."""
    c, s = math.cos(theta), math.sin(theta)

    def apply(x):
        x0, x1 = x[..., 0], x[..., 1]
        return np.stack([x0 * c + x1 * -s + bx, x0 * s + x1 * c + by],
                        axis=-1)
    return apply


@given(st.floats(0.1, 2.0 * math.pi - 0.1), st.floats(-10.0, 10.0),
       st.floats(-10.0, 10.0),
       st.integers(1, 40).flatmap(lambda m: hnp.arrays(
           np.float64, (m, 2), elements=_ENTRIES)))
def test_rotation_apply_equals_the_written_out_form(theta, bx, by, rows):
    apply = make_map("planar-rotation", theta=theta, bx=bx, by=by,
                     radius=1e6).mapping.apply
    want = _written_rotation(theta, bx, by)
    with np.errstate(all="ignore"):
        assert apply(rows).tobytes() == want(rows).tobytes()
        for x in (*rows, np.asfortranarray(rows)[0]):
            assert apply(x).tobytes() == want(x).tobytes()


def test_rotation_apply_equals_the_written_out_form_on_many_rows():
    entry = make_map("planar-rotation")
    want = _written_rotation(**{k: entry.params[k]
                                for k in ("theta", "bx", "by")})
    rng = np.random.default_rng(11)
    for m in (1, 2, 3, 1000, 40_000):
        rows = rng.standard_normal((m, 2)) * 10.0 ** rng.integers(
            -150, 150, (m, 1))
        assert entry.mapping.apply(rows).tobytes() == want(rows).tobytes()


# centers of zeros (either sign) and off the origin, near and far
_CENTERS = st.one_of(
    st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)]),
    st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)))


@given(st.floats(0.1, 2.0 * math.pi - 0.1), st.floats(-10.0, 10.0),
       st.floats(-10.0, 10.0), _CENTERS, st.floats(1e-3, 1e300),
       st.tuples(_ENTRIES, _ENTRIES), st.tuples(_ENTRIES, _ENTRIES),
       st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
@example(math.pi / 4.0, 1.0, 0.0, (3.0, 0.0), 1.0, (0.0, 0.0),
         (math.nan, math.inf), (0.5, 0.0))
@example(math.pi / 4.0, 1.0, 0.0, (0.0, 0.0), 1.0, (1e200, -1e200),
         (-math.inf, 0.0), (1.0, 0.0))
def test_2d_float_forms_equal_the_array_point_forms(theta, bx, by, center,
                                                    radius, p, q, near):
    # planar-rotation's apply, the ball's contains and boundary_distance
    # and euclidean(2)'s distance and norm on tuples of floats against the
    # same calls on (2,) arrays; near is a point within 1.5 radii of the
    # center, where membership turns
    apply = make_map("planar-rotation", theta=theta, bx=bx, by=by,
                     radius=1e6).mapping.apply
    dom = ball(center, radius)
    distance, norm = euclidean(2).distance, euclidean(2).norm
    near = tuple((np.array(center) + radius * np.array(near)).tolist())
    for u in (p, q, near):
        x = np.array(u)
        with np.errstate(all="ignore"):
            want = apply(x).tolist()
            inside = dom.contains(x)
            bd = dom.boundary_distance(x)
            nx = norm(x)
        got = apply(u)
        assert type(got) is tuple
        assert all(map(same_float, got, want))
        assert dom.contains(u) == inside
        assert same_float(dom.boundary_distance(u), bd)
        assert same_float(norm(u), nx)
    with np.errstate(all="ignore"):
        want = distance(np.array(p), np.array(q))
    assert same_float(distance(p, q), want)


# ---------------------------------------------------------------------------
# moduli on arrays

_MODULI = [rational_decay_modulus(1.0), rational_decay_modulus(0.37),
           constant_modulus(0.5), constant_modulus(0.0),
           nonexpansive_modulus()]


@pytest.mark.parametrize("m", _MODULI, ids=lambda m: f"{m.kind}{m.params}")
@given(ts=st.lists(st.floats(min_value=0.0, allow_nan=False,
                             allow_subnormal=True), max_size=40))
def test_modulus_on_an_array_equals_the_scalar_calls(m, ts):
    got = m(np.array(ts, dtype=float))
    assert isinstance(got, np.ndarray) and got.shape == (len(ts),)
    for g, t in zip(got.tolist(), ts):
        v = m(t)
        assert type(v) is float and same_float(g, v)
    assert type(m(np.float64(0.25))) is float


@pytest.mark.parametrize("m", _MODULI, ids=lambda m: f"{m.kind}{m.params}")
def test_modulus_on_an_array_refuses_a_negative_entry(m):
    with pytest.raises(ArgumentError, match="-1e-12"):
        m(np.array([0.5, -1e-12, 2.0]))
    assert m(np.zeros((2, 3))).shape == (2, 3)


@pytest.mark.parametrize("name", list_maps())
def test_audit_rhs_equals_the_per_pair_products(name):
    entry = make_map(name)
    T = entry.mapping
    m, d = 20_000, T.space.dimension
    pairs = entry.sampler(np.random.default_rng(3), 2 * m).reshape(m, 2, d)
    report = verify_contractive(T, pairs, slack=1e-12)
    sep = T.space.rowwise_distance(pairs[:, 0], pairs[:, 1])
    phi = T.declared_modulus
    want = np.array([phi(s) * s for s in sep.tolist()])
    assert report.rhs.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# elementwise gallery maps on Python floats

def _ufunc_body(name: str, params: dict[str, float]):
    """Frozen copy of the elementwise map's apply as its ufunc body."""
    a, c = params.get("a"), params.get("c")
    return {"affine-halfline": lambda x: (x - 1.0) / 2.0,
            "rakotch-decay": lambda x: x / (1.0 + a * x),
            "constant": lambda x: c - (x - x),
            "damped-rational": lambda x: x / (2.0 + x * x)}[name]


# the constant map's values: both zeros, the smallest subnormal, the
# box's bounds, and values outside its default box [-1, 1]
_CONSTANTS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -1.0, 1.0, 2.0,
                                        -10.0]), st.floats(-10.0, 10.0))


def _draw_params(name: str, data) -> dict[str, float]:
    """Drawn parameters of an elementwise map: rakotch-decay's a and
    constant's c, the others take none."""
    if name == "rakotch-decay":
        return {"a": data.draw(st.floats(1e-6, 100.0), label="a")}
    if name == "constant":
        return {"c": data.draw(_CONSTANTS, label="c")}
    return {}


_MAX = 1.7976931348623157e308
# each map's domain as [lo, hi], and the doubles every example maps: the
# boundary, both zeros, subnormals, the smallest normal and the far end
_ELEMENTWISE = {
    "affine-halfline": (-1.0, _MAX, [-1.0, -0.0, 0.0, 5e-324, -5e-324,
                                     2.2250738585072014e-308, 1e308, _MAX,
                                     math.inf]),
    "rakotch-decay": (0.0, _MAX, [0.0, -0.0, 5e-324, 1e-320,
                                  2.2250738585072014e-308, 1e308, _MAX,
                                  math.inf]),
    "constant": (-1.0, 1.0, [-1.0, 1.0, -0.0, 0.0, 5e-324, -5e-324,
                             2.2250738585072014e-308]),
    "damped-rational": (-2.0, 2.0, [-2.0, 2.0, -0.0, 0.0, 5e-324, -5e-324,
                                    1e-320, -2.2250738585072014e-308]),
}


def _domain_doubles(lo: float, hi: float):
    # the whole domain, and its stretch around 0 where subnormals are
    # drawn often
    return st.one_of(st.floats(lo, hi),
                     st.floats(max(lo, -1e-300), min(hi, 1e-300)))


@pytest.mark.parametrize("name", sorted(_ELEMENTWISE))
@given(data=st.data())
def test_elementwise_point_form_equals_the_ufunc_body(name, data):
    lo, hi, special = _ELEMENTWISE[name]
    params = _draw_params(name, data)
    xs = special + data.draw(st.lists(_domain_doubles(lo, hi), max_size=20),
                             label="xs")
    apply = make_map(name, **params).mapping.apply
    want = _ufunc_body(name, params)
    rows = np.array(xs)[:, None]
    with np.errstate(all="ignore"):
        got_rows = apply(rows)
        assert got_rows.tobytes() == want(rows).tobytes()
        for j, v in enumerate(xs):
            # a fresh point and the (1,) view of row j both take the
            # point form
            for x in (np.array([v]), rows[j]):
                y = apply(x)
                assert type(y) is np.ndarray and y.dtype == np.float64
                assert y.shape == (1,) and not np.shares_memory(y, x)
                assert y.tobytes() == want(x).tobytes()
                assert y.tobytes() == got_rows[j].tobytes()


@given(c=_CONSTANTS, lo=st.floats(-1e6, -1e-6), hi=st.floats(1e-6, 1e6),
       data=st.data())
def test_constant_body_equals_the_broadcast_form(c, lo, hi, data):
    # c - (x - x) against the form it replaced, the frozen point c
    # broadcast to the argument's shape, on floats, points and rows of
    # the box
    apply = make_map("constant", c=c, lo=lo, hi=hi).mapping.apply
    xs = [lo, hi, -0.0, 0.0, 5e-324] + data.draw(
        st.lists(_domain_doubles(lo, hi), max_size=20), label="xs")
    rows = np.array(xs)[:, None]
    got = apply(rows)
    assert got.tobytes() == np.broadcast_to([c], rows.shape).tobytes()
    for v, row in zip(xs, rows):
        y = apply(v)
        assert type(y) is float and np.float64(y).tobytes() == \
            np.float64(c).tobytes()
        for x in (np.array([v]), row):
            assert apply(x).tobytes() == np.broadcast_to(
                [c], x.shape).tobytes()


@pytest.mark.parametrize("name,params,x0", [
    ("affine-halfline", {}, -1.0),
    ("affine-halfline", {}, 9.0),
    ("affine-halfline", {}, 1e308),
    ("rakotch-decay", {}, 10.0),
    ("rakotch-decay", {"a": 0.37}, 1e308),
    ("rakotch-decay", {"a": 1e-6}, 3.0),
    ("constant", {"c": -0.0}, 1.0),
    ("constant", {"c": 5e-324, "lo": -1e-6}, -1e-6),
    ("damped-rational", {}, 2.0),
    ("damped-rational", {}, -1e-10),    # reaches the subnormals
])
def test_elementwise_orbits_equal_the_ufunc_body_orbits(name, params, x0):
    entry = make_map(name, **params)
    T = entry.mapping
    frozen = replace(T, apply=_ufunc_body(name, entry.params))
    got, want = orbit_exact(T, [x0], 1000), orbit_exact(frozen, [x0], 1000)
    assert got.points.shape == (1001, 1)
    assert got.points.tobytes() == want.points.tobytes()
    assert got.residuals.tobytes() == want.residuals.tobytes()
    assert got.exited_domain_at == want.exited_domain_at is None


# ---------------------------------------------------------------------------
# CSV writers

def _reference_orbit_csv(orbit: Orbit) -> str:
    """Frozen copy of the row-at-a-time orbit writer."""
    d = orbit.points.shape[1]
    cols = ["i"] + [f"x{j}" for j in range(d)] + ["residual"]
    lines = [",".join(cols)]
    for i, p in enumerate(orbit.points):
        res = "" if i == 0 else repr(float(orbit.residuals[i - 1]))
        lines.append(",".join([str(i)] + [repr(float(c)) for c in p] + [res]))
    return "\n".join(lines) + "\n"


def _reference_path_csv(path: ContinuationPath) -> str:
    """Frozen copy of the row-at-a-time path writer."""
    d = path.entries[0].x.shape[0]
    cols = (["t"] + [f"x{j}" for j in range(d)]
            + ["inner_residual", "step_bound_used", "r_used"])
    lines = [",".join(cols)]
    for e in path.entries:
        lines.append(",".join([repr(float(e.t))]
                              + [repr(float(c)) for c in e.x]
                              + [repr(float(e.inner_residual)),
                                 repr(float(e.step_bound_used)),
                                 repr(float(e.r_used))]))
    if path.terminal is not None:
        x1, cert = path.terminal
        lines.append(",".join(["1.0"] + [repr(float(c)) for c in x1]
                              + [repr(float(cert.residual)),
                                 repr(float(cert.tail_bound)),
                                 "0.0"]))
    return "\n".join(lines) + "\n"


# after the first 13, the points where repr switches layout, then the
# powers of two (their doubles below are spaced irregularly) and the
# subnormals of mantissa below 5000
_SPECIAL = np.concatenate([
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 1e16, 1.5e154,
     1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1, 1.0 / 3.0],
    [1e-5, 9.999999999999999e-05, 1e-4, 1e15, 9999999999999998.0, 1e22,
     1e23],
    np.ldexp(1.0, np.arange(-1074, 1024)),
    np.arange(1, 5000, dtype=np.uint64).view(np.float64)])


def _spread(rng: np.random.Generator, shape) -> np.ndarray:
    """Doubles over the whole exponent range, special values sprinkled
    in."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    flat = a.reshape(-1)
    flat[::17] = np.resize(_SPECIAL, flat[::17].shape)
    return a


def _orbit(points: np.ndarray, residuals: np.ndarray) -> Orbit:
    return Orbit(points=points, residuals=residuals, exited_domain_at=None,
                 perturbation_bound=0.0)


@pytest.mark.parametrize("rows", [2, _CSV_CHUNK, _CSV_CHUNK + 1, 20_000])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_orbit_csv_equals_the_row_loop(d, rows):
    rng = np.random.default_rng(rows + d)
    orbit = _orbit(_spread(rng, (rows, d)), np.abs(_spread(rng, rows - 1)))
    assert "".join(orbit_csv(orbit)) == _reference_orbit_csv(orbit)


@pytest.mark.parametrize("rows", [1, _CSV_CHUNK, _CSV_CHUNK + 1,
                                  2 * _CSV_CHUNK + 5])
def test_orbit_csv_pieces_are_the_head_then_one_per_chunk(rows):
    rng = np.random.default_rng(rows)
    pieces = list(orbit_csv(_orbit(rng.random((rows + 1, 2)),
                                   rng.random(rows))))
    assert len(pieces) == 1 + math.ceil(rows / _CSV_CHUNK)
    # the header and the seed row, then whole chunks of rows, every piece
    # ending its last line
    assert [p.count("\n") for p in pieces] == [
        2, *(min(_CSV_CHUNK, rows - lo) for lo in range(0, rows, _CSV_CHUNK))]
    assert all(p.endswith("\n") for p in pieces)


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 30),
                                        st.integers(1, 3)),
                  elements=_DOUBLES), st.data())
def test_orbit_csv_equals_the_row_loop_on_any_doubles(points, data):
    residuals = data.draw(hnp.arrays(np.float64, len(points) - 1,
                                     elements=_DOUBLES))
    orbit = _orbit(points, residuals)
    assert "".join(orbit_csv(orbit)) == _reference_orbit_csv(orbit)


def test_orbit_csv_equals_the_row_loop_on_computed_orbits():
    decay = make_map("rakotch-decay").mapping
    rotation = make_map("planar-rotation").mapping
    exit_ = orbit_exact(make_map("constant", c=2.0).mapping, [0.5], 10)
    assert exit_.exited_domain_at == 1
    perturbed = orbit_inexact(decay, [1.0], 9000, 1e-3, noise_seed=5)
    assert perturbed.residuals.max() > 0.0
    for orbit in (exit_, perturbed, orbit_exact(decay, [1.0], 8192),
                  orbit_inexact(rotation, [0.5, -1.0], 400, 0.05,
                                noise_seed=9)):
        assert "".join(orbit_csv(orbit)) == _reference_orbit_csv(orbit)


def _path(x: np.ndarray, rest: np.ndarray, terminal: bool
          ) -> ContinuationPath:
    entries = tuple(PathEntry(t=float(r[0]), x=p, inner_residual=float(r[1]),
                              step_bound_used=float(r[2]),
                              r_used=float(r[3]))
                    for p, r in zip(x, rest))
    term = None
    if terminal:
        term = (x[-1] * 0.5, LimitCertificate(
            residual=float(rest[-1, 1]), tail_bound=float(rest[-1, 2]),
            schedule_steps=7, on_boundary=False))
    return ContinuationPath(entries=entries, q=0.9, inner_tol=1e-10,
                            mbound=2.0, terminal=term)


@pytest.mark.parametrize("d,entries,terminal", [
    (1, 1, False), (2, 1, True), (3, 5, False), (1, 5, True),
    (2, _CSV_CHUNK + 1, False),
    (3, _CSV_CHUNK, True),      # the terminal row starts the second chunk
])
def test_path_csv_equals_the_row_loop(d, entries, terminal):
    rng = np.random.default_rng(7 * entries + d)
    path = _path(_spread(rng, (entries, d)), _spread(rng, (entries, 4)),
                 terminal)
    assert "".join(path_csv(path)) == _reference_path_csv(path)


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 20),
                                        st.integers(1, 3)),
                  elements=_DOUBLES), st.data(), st.booleans())
def test_path_csv_equals_the_row_loop_on_any_doubles(x, data, terminal):
    rest = data.draw(hnp.arrays(np.float64, (len(x), 4), elements=_DOUBLES))
    path = _path(x, rest, terminal)
    assert "".join(path_csv(path)) == _reference_path_csv(path)


def test_path_csv_equals_the_row_loop_on_computed_paths():
    rotation = make_map("planar-rotation").mapping
    affine = make_map("affine-halfline").mapping
    for path in (trace_path(rotation, PathConfig(q=0.99, target_t=0.95)),
                 limit_path(affine, PathConfig(), 1e-9)):
        assert "".join(path_csv(path)) == _reference_path_csv(path)


def _nan_bits(bits: int) -> float:
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


# NaNs of both signs and other payloads, all written as nan
_NANS = [math.nan, _nan_bits(0xFFF8000000000000),
         _nan_bits(0x7FF8000000000001), _nan_bits(0x7FF0000000000001)]


def _constant_column(kind: str, m: int) -> np.ndarray:
    """m cells of one kind of (near-)constant column: a near-constant one
    differs from its first cell in its last."""
    col = np.full(m, {"negative-zero": -0.0, "nan": math.nan,
                      "nan-payloads": math.nan, "nonzero": 0.1}.get(kind, 0.0))
    if kind == "one-negative-zero":
        col[-1] = -0.0
    elif kind == "nan-payloads":
        col[:] = np.resize(_NANS, m)[::-1]
    return col


_CONSTANT_KINDS = ["zero", "negative-zero", "one-negative-zero", "nan",
                   "nan-payloads", "nonzero"]


@pytest.mark.parametrize("rows", [1, _CSV_CHUNK, _CSV_CHUNK + 1])
@pytest.mark.parametrize("kind", _CONSTANT_KINDS)
def test_csv_writers_equal_the_row_loops_on_constant_columns(kind, rows):
    # every column but the orbit's x1 and the path's x0 is of one kind;
    # those two hold other doubles
    rng = np.random.default_rng(rows)
    points = np.stack([_constant_column(kind, rows + 1),
                       _spread(rng, rows + 1)], axis=1)
    orbit = _orbit(points, _constant_column(kind, rows))
    assert "".join(orbit_csv(orbit)) == _reference_orbit_csv(orbit)
    rest = np.stack([_constant_column(kind, rows)] * 4, axis=1)
    for terminal in (False, True):
        path = _path(points[1:, ::-1], rest, terminal)
        assert "".join(path_csv(path)) == _reference_path_csv(path)


# cells from a set this small make constant and near-constant columns
# common
_FEW = st.sampled_from([0.0, -0.0, math.nan, 1.5])


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 30),
                                        st.integers(1, 3)), elements=_FEW),
       st.data(), st.booleans())
def test_csv_writers_equal_the_row_loops_on_few_values(points, data,
                                                       terminal):
    residuals = data.draw(hnp.arrays(np.float64, len(points) - 1,
                                     elements=_FEW))
    orbit = _orbit(points, residuals)
    assert "".join(orbit_csv(orbit)) == _reference_orbit_csv(orbit)
    rest = data.draw(hnp.arrays(np.float64, (len(points), 4),
                                elements=_FEW))
    path = _path(points, rest, terminal)
    assert "".join(path_csv(path)) == _reference_path_csv(path)


# ---------------------------------------------------------------------------
# the stability batch kernel

def _reference_perturbed_steps(T, starts, n, noise, anchor, k):
    """Frozen copy of _perturbed_steps as it gathered noise[i, live] and
    tested membership with ~ and .any() on every step."""
    m = len(starts)
    contains = T.domain.contains_rows
    project = T.domain.project
    live = np.arange(m)
    exited = np.zeros(m, dtype=bool)
    worst = np.full(m, -math.inf)
    x = starts
    for i in range(n):
        y = T.apply(x) if i else _apply_rows(T, x)
        cand = y if noise is None else y + noise[i, live]
        out = ~contains(cand)
        if out.any():
            back = np.zeros(len(live), dtype=bool)
            back[out] = contains(y[out])
            if back.any():
                cand[back] = project(cand[back])
            out &= ~back
            if out.any():
                _refuse_non_finite(y[out], x[out])
                exited[live[out]] = True
                live = live[~out]
                cand = cand[~out]
        if i + 1 >= k:
            worst[live] = np.maximum(worst[live],
                                     T.space.rowwise_distance(cand, anchor))
        if not live.size:
            break
        x = cand
    bad = ~exited & ~(worst < math.inf)
    if bad.any():
        raise NonFiniteError("a row reached a NaN or infinite point")
    worst[exited] = math.inf
    return worst


def _reference_leaves(T):
    """T with the row leaves the kernel calls frozen as they were: a box's
    contains_rows as one reduction over every column and its project as
    np.clip, euclidean(1)'s rowwise distance as the root of the square."""
    dom, space = T.domain, T.space
    if dom.kind == "box":
        d = len(dom.params) // 2
        lo, hi = np.array(dom.params[:d]), np.array(dom.params[d:])
        dom = replace(
            dom, project=lambda p: np.clip(p, lo, hi),
            contains_rows=lambda r: ((r >= lo) & (r <= hi)).all(axis=1))
    if space.dimension == 1:
        space = replace(space, rowwise_distance=lambda a, b: np.sqrt(
            ((a - b) * (a - b))[:, 0]))
    return replace(T, domain=dom, space=space)


def _scaled(d: int, lo: float, hi: float, body) -> MappingInstance:
    """A test-local elementwise map on the box [lo, hi]^d."""
    return MappingInstance(apply=body, declared_modulus=constant_modulus(0.5),
                           domain=box([lo] * d, [hi] * d), space=euclidean(d))


def _grow_positive(x):
    return np.where(x > 0.0, 1.5 * x, 0.5 * x)


def _zero_by_sign(x):
    # -0.0 goes to 0.75 and 0.0 to -0.0: a projection that changed the
    # sign of a zero would change the orbit
    return np.where(x >= 0.25, 0.5 * x, np.where(np.signbit(x), 0.75, -0.0))


# name -> (mapping, interval the starts are drawn from); every case is
# anchored at the origin
_KERNEL_CASES = {
    # the anchor 0 sits on the boundary, so perturbed rows are projected
    "rakotch-decay": (make_map("rakotch-decay").mapping, (0.0, 2.0)),
    # self-maps of the disc, whose fixed point (0.99, 0) is near the
    # circle, and of the halfplane y >= 0 through the anchor, a box with
    # infinite sides: perturbed rows are projected onto the circle and
    # onto the line; starts outside the halfplane exit at step 1
    "ball-2d": (MappingInstance(
        apply=lambda x: 0.9 * x * np.array([1.0, -1.0]) + [0.099, 0.0],
        declared_modulus=constant_modulus(0.9),
        domain=ball([0.0, 0.0], 1.0), space=euclidean(2)), (-0.7, 0.7)),
    "halfplane-2d": (MappingInstance(
        apply=lambda x: 0.5 * x, declared_modulus=constant_modulus(0.5),
        domain=box([-math.inf, 0.0], [math.inf, math.inf]),
        space=euclidean(2)), (-1.0, 1.0)),
    # the noise is rounded to a grid that holds both zeros (_NOISE_GRIDS),
    # so perturbed rows land on the zero bound of [0, 1] with either sign,
    # while other rows are pushed below it and the whole batch is projected
    "zero-bound": (_scaled(1, 0.0, 1.0, _zero_by_sign), (0.0, 1.0)),
    # c = 2 lies outside [-1, 1]: every row exits at step 1
    "constant-outside": (make_map("constant", c=2.0).mapping, (-1.0, 1.0)),
    "damped-rational": (make_map("damped-rational").mapping, (-2.0, 2.0)),
    # a positive coordinate grows by 1.5 until its row exits, at a step
    # that depends on the row; rows with none settle at 0
    "scale-1d": (_scaled(1, -1.0, 1.0, _grow_positive), (-1.0, 1.0)),
    "scale-2d": (_scaled(2, -1.0, 1.0, _grow_positive), (-1.0, 1.0)),
    # NaN inside the domain: it fails membership, then the finiteness test
    "nan-image": (_scaled(1, -1.0, 1.0,
                          lambda x: np.where(x > 0.3, math.nan, 0.5 * x)),
                  (-1.0, 1.0)),
    # +inf inside an unbounded domain: refused after the last step
    "inf-image": (_scaled(1, -math.inf, math.inf,
                          lambda x: np.where(x > 0.3, math.inf, 0.5 * x)),
                  (-1.0, 1.0)),
}

# name -> the share of delta a case's noise is rounded to a multiple of
_NOISE_GRIDS = {"zero-bound": 0.5}


def _outcome(kernel, *args):
    """What the kernel returns as bytes, or the class it raises."""
    with np.errstate(all="ignore"):
        try:
            return kernel(*args).tobytes()
        except Exception as exc:        # compared by class only
            return type(exc)


@given(st.sampled_from(sorted(_KERNEL_CASES)), st.integers(1, 40),
       st.integers(1, 60), st.sampled_from([None, 1e-3, 0.05, 0.4]),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_perturbed_steps_equals_the_frozen_kernel(name, m, n, delta, seed,
                                                  data):
    T, (lo, hi) = _KERNEL_CASES[name]
    d = T.space.dimension
    rng = np.random.default_rng(seed)
    starts = rng.uniform(lo, hi, (m, d))
    noise = (None if delta is None
             else rng.uniform(-delta / 2.0, delta / 2.0, (n, m, d)))
    if name in _NOISE_GRIDS and noise is not None:
        # np.round gives -0.0 for a small negative entry
        step = _NOISE_GRIDS[name] * delta
        noise = np.round(noise / step) * step
    k = data.draw(st.integers(1, n), label="k")
    anchor = np.zeros(d)
    got = _outcome(_perturbed_steps, T, starts, n, noise, anchor, k)
    want = _outcome(_reference_perturbed_steps, _reference_leaves(T),
                    starts, n, noise, anchor, k)
    assert got == want


def test_frozen_kernel_cases_reach_every_branch():
    # the cases above project rows, exit some and all rows, and raise
    rng = np.random.default_rng(0)
    starts = rng.uniform(-1.0, 1.0, (40, 1))
    noise = rng.uniform(-0.2, 0.2, (30, 40, 1))
    anchor = np.zeros(1)
    T = _KERNEL_CASES["scale-1d"][0]
    worst = _perturbed_steps(T, starts, 30, None, anchor, 5)
    assert 0 < np.isinf(worst).sum() < 40
    T = _KERNEL_CASES["constant-outside"][0]
    assert np.isinf(_perturbed_steps(T, starts, 30, None, anchor, 1)).all()
    for name in ("nan-image", "inf-image"):
        with pytest.raises(NonFiniteError), np.errstate(all="ignore"):
            _perturbed_steps(_KERNEL_CASES[name][0], starts, 30, noise,
                             anchor, 1)
    # no row of rakotch-decay exits, so a step that projects some rows
    # projects the whole batch in one call
    T, calls = _counting_projections(_KERNEL_CASES["rakotch-decay"][0])
    _perturbed_steps(T, np.abs(starts), 30, noise, anchor, 1)
    assert len(starts) in map(len, calls)
    # starts below the halfplane's face y = 0 exit at step 1, and perturbed
    # rows of the others are pushed below it and projected onto it
    T, calls = _counting_projections(_KERNEL_CASES["halfplane-2d"][0])
    starts = rng.uniform(-1.0, 1.0, (40, 2))
    below = starts[:, 1] < 0.0
    worst = _perturbed_steps(T, starts, 1, None, np.zeros(2), 1)
    assert 0 < below.sum() < 40 and np.array_equal(np.isinf(worst), below)
    noise = rng.uniform(-0.2, 0.2, (30, 40, 2))
    _perturbed_steps(T, np.abs(starts), 30, noise, np.zeros(2), 1)
    assert any((rows[:, 1] < 0.0).any() for rows in calls)


def test_whole_batch_projection_keeps_the_sign_of_a_zero_on_its_bound():
    # noise on a grid of 0.1 holds both zeros; a row at -0.0 next goes to
    # 0.75 and one at 0.0 to -0.0, so worst over the window [n, n], the
    # last point alone, differs from the frozen kernel's wherever a
    # projection changed a sign on the step before
    rng = np.random.default_rng(3)
    starts = rng.uniform(0.0, 1.0, (8, 1))
    noise = np.round(rng.uniform(-0.1, 0.1, (12, 8, 1)) / 0.1) * 0.1
    anchor = np.zeros(1)
    T, calls = _counting_projections(_KERNEL_CASES["zero-bound"][0])
    for n in range(1, 13):
        got = _perturbed_steps(T, starts, n, noise, anchor, n)
        want = _reference_perturbed_steps(_reference_leaves(T), starts, n,
                                          noise, anchor, n)
        assert got.tobytes() == want.tobytes()
    assert any(len(p) == len(starts) and np.signbit(p[p == 0.0]).any()
               for p in calls)


def _counting_projections(T):
    """T with a project that records the rows it gets, and that record."""
    calls = []

    def project(p):
        calls.append(p.copy())
        return T.domain.project(p)

    return replace(T, domain=replace(T.domain, project=project)), calls


def test_perturbed_steps_projects_and_exits_in_one_step():
    # at step 1 the first row's image 0.99 is pushed out and projected
    # back while the second row's image 1.35 exits; the third stays.  The
    # exiting row is parked at the anchor before the batch is projected
    # whole, so its own point 1.40 never reaches project
    T, calls = _counting_projections(_KERNEL_CASES["scale-1d"][0])
    starts = np.array([[0.66], [0.9], [-0.5]])
    noise = np.full((6, 3, 1), 0.05)
    noise[1:, 0] = -0.5
    anchor = np.zeros(1)
    got = _perturbed_steps(T, starts, 6, noise, anchor, 1)
    want = _reference_perturbed_steps(_reference_leaves(T), starts, 6,
                                      noise, anchor, 1)
    assert got[1] == math.inf and np.isfinite(got[[0, 2]]).all()
    assert got.tobytes() == want.tobytes()
    assert len(calls) == 1
    assert calls[0].tolist() == [[1.5 * 0.66 + 0.05], [0.0], [-0.25 + 0.05]]


def _nan_at_anchor(x):
    return np.where(x < -0.5, math.nan, np.where(x > 0.5, 2.0 * x, x / 2.0))


@pytest.mark.parametrize("delta", [None, 1e-3])
def test_rows_parked_where_the_map_is_nan_are_never_refused(delta):
    # every start above 0.5 exits at step 1 and is parked at the anchor
    # -0.75, whose image is NaN: a parked row leaves the domain on every
    # later step, and neither counts as an exit nor is refused for it
    T = _scaled(1, -1.0, 1.0, _nan_at_anchor)
    rng = np.random.default_rng(5)
    starts = rng.uniform(-0.5, 1.0, (20, 1))
    noise = (None if delta is None
             else rng.uniform(-delta, delta, (30, 20, 1)))
    anchor = np.array([-0.75])
    got = _perturbed_steps(T, starts, 30, noise, anchor, 1)
    want = _reference_perturbed_steps(_reference_leaves(T), starts, 30,
                                      noise, anchor, 1)
    assert 0 < np.isinf(got).sum() < len(starts)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# box predicates

_BOUND = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -1.0,
                     math.inf, -math.inf]),
    st.floats(allow_nan=False))


@st.composite
def _boxes(draw):
    """(lo, hi): a 1-D box, a halfline or a 2-D or 3-D box, whose bounds
    take both zeros, subnormals, infinities and the far doubles."""
    d = draw(st.sampled_from([1, 1, 2, 3]))
    if d == 1 and draw(st.booleans()):
        a = draw(_BOUND.filter(lambda v: v < math.inf))
        return [a], [math.inf]
    lo, hi = [], []
    for _ in range(d):
        a, b = draw(_BOUND), draw(_BOUND)
        a, b = min(a, b), max(a, b)
        assume(a < b)
        lo.append(a)
        hi.append(b)
    return lo, hi


def _old_point_forms(lo_f: float, hi_f: float):
    """Frozen copies of the 1-D box's point predicates on p[0]."""
    def bdist(p):
        v = p[0]
        if v < lo_f or v > hi_f:
            return 0.0
        # on numpy scalars a gap past the largest float (1e308 in
        # [-1e308, inf)) is inf with an overflow warning
        with np.errstate(over="ignore"):
            return float(min(v - lo_f, hi_f - v))
    return (lambda p: lo_f <= p[0] <= hi_f,
            lambda p: lo_f < p[0] < hi_f, bdist)


@given(_boxes(), st.sampled_from([1, 2, 7, 64, 100]), st.data())
@example(([-0.0], [1.0]), 1, None)
def test_box_predicates_equal_the_reduction_and_clip_forms(bounds, m, data):
    lo, hi = bounds
    lo_a, hi_a = np.array(lo), np.array(hi)
    dom = box(lo, hi) if len(lo) > 1 or hi[0] < math.inf else halfline(lo[0])
    d = len(lo)
    if data is None:        # the tie np.clip breaks toward the bound
        rows = np.array([[0.0]])
    else:
        entries = st.one_of(_DOUBLES, st.sampled_from(
            [0.0, -0.0, 1e308, -1e308, *lo, *hi]))
        rows = data.draw(hnp.arrays(np.float64, (m, d), elements=entries),
                         label="rows")
    got = dom.contains_rows(rows)
    assert got.dtype == bool and got.shape == (len(rows),)
    assert np.array_equal(got, ((rows >= lo_a) & (rows <= hi_a)).all(axis=1))
    assert got.tolist() == [dom.contains(r) for r in rows]
    # np.clip's bits, but a zero at a zero bound keeps its own sign (np.clip
    # gives it the bound's sign in some of its loops), so a row of the box
    # comes back unchanged
    tie = (rows == 0.0) & ((lo_a == 0.0) | (hi_a == 0.0))
    with np.errstate(invalid="ignore"):
        want = np.where(tie, rows, np.clip(rows, lo_a, hi_a))
    proj = dom.project(rows)
    assert proj.shape == rows.shape and proj.tobytes() == want.tobytes()
    assert proj[got].tobytes() == rows[got].tobytes()
    for r, w in zip(rows, want):
        assert dom.project(r).tobytes() == w.tobytes()
    if d == 1:
        contains, interior, bdist = _old_point_forms(lo[0], hi[0])
        with np.errstate(invalid="ignore"):
            for r in rows:
                assert dom.contains(r) == contains(r)
                assert dom.interior_contains(r) == interior(r)
                got_bd = dom.boundary_distance(r)
                assert type(got_bd) is float
                assert same_float(got_bd, bdist(r))


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 130),
                                        st.just(1)), elements=_DOUBLES),
       st.data())
def test_euclidean_1d_row_form_equals_the_written_out_and_point_forms(rows,
                                                                     data):
    space = euclidean(1)
    other = data.draw(st.one_of(
        hnp.arrays(np.float64, rows.shape, elements=_DOUBLES),
        hnp.arrays(np.float64, (1,), elements=_DOUBLES)), label="other")
    with np.errstate(all="ignore"):
        got = space.rowwise_distance(rows, other)
        v = (rows - other)[:, 0]
        assert got.tobytes() == np.abs(v).tobytes()
        # the root of the square, where v is 0 or its square a normal float
        # (see the scalar forms above)
        sq = v * v
        kept = (v == 0.0) | ((sq >= _TINY) & (sq < math.inf))
        assert got[kept].tobytes() == np.sqrt(sq)[kept].tobytes()
    pairs = zip(rows, other if other.ndim == 2 else [other] * len(rows))
    for g, (x, y) in zip(got.tolist(), pairs):
        assert same_float(g, space.distance(x, y))
        assert same_float(space.distance(x, y),
                          abs(float(x[0]) - float(y[0])))
        assert same_float(space.norm(x), abs(float(x[0])))


# ---------------------------------------------------------------------------
# the continuation inner solve: the centred ball and the 0-d multiplier

def _frozen_solve_at_t(T, t, x_init, inner_tol, max_inner_iter=200_000):
    """Frozen copy of solve_at_t as it scaled each image by t, a Python
    float."""
    apply = T.apply
    run = _iterate(lambda v: t * apply(v), _start(T, x_init, "warm start"),
                   T.domain.contains, max_inner_iter + 1, T.space.distance,
                   inner_tol)
    if run.outside is not None:
        raise DomainExitError("left", t=t, point=_frozen(run.outside),
                              last_inside=_frozen(run.x))
    if run.residual > inner_tol:
        raise ConvergenceError("budget", residual=run.residual)
    return _frozen(run.x), run.residual


def _solve_outcome(solve, *args):
    """A solve's point and residual as bytes, or the class it raises with
    the points or the residual it carries."""
    try:
        x, res = solve(*args)
    except DomainExitError as exc:
        return DomainExitError, exc.point.tobytes(), exc.last_inside.tobytes()
    except ConvergenceError as exc:
        return ConvergenceError, np.float64(exc.residual).tobytes()
    return x.tobytes(), np.float64(res).tobytes()


# every gallery map, the constant one inside its box and outside it
_SOLVE_MAPS = [(name, {}) for name in list_maps()] + [("constant",
                                                       {"c": 0.5})]


@pytest.mark.parametrize("name,params", _SOLVE_MAPS,
                         ids=[f"{n}{'-c0.5' if p else ''}"
                              for n, p in _SOLVE_MAPS])
def test_solve_at_t_equals_the_python_float_multiplier(name, params):
    entry = make_map(name, **params)
    T = entry.mapping
    rng = np.random.default_rng(41)
    starts = [entry.sampler(rng) for _ in range(3)]
    for t in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999):
        for x0 in starts:
            assert _solve_outcome(solve_at_t, T, t, x0, 1e-12, 400) == \
                _solve_outcome(_frozen_solve_at_t, T, t, x0, 1e-12, 400)


def test_solve_at_t_cases_reach_every_outcome():
    # the grid above meets a solved point, an exhausted budget and an exit
    outcomes = set()
    for name, params in _SOLVE_MAPS:
        entry = make_map(name, **params)
        x0 = entry.sampler(np.random.default_rng(41))
        for t in (0.5, 0.75, 0.999):
            got = _solve_outcome(solve_at_t, entry.mapping, t, x0, 1e-12, 400)
            outcomes.add(got[0] if isinstance(got[0], type) else "solved")
    assert outcomes == {"solved", ConvergenceError, DomainExitError}


def _rotation_off_center() -> MappingInstance:
    """planar-rotation on a disk whose center is not the origin (the
    origin stays interior), so trace_path's ball takes p - c."""
    T = make_map("planar-rotation").mapping
    return replace(T, domain=ball([0.25, -0.5], 4.0))


@pytest.mark.parametrize("T", [
    make_map("affine-halfline").mapping,
    make_map("constant", c=0.5).mapping,
    make_map("planar-rotation").mapping,
    make_map("planar-rotation", radius=9.0).mapping,
    make_map("damped-rational").mapping,
    _rotation_off_center(),
], ids=["affine-halfline", "constant", "planar-rotation", "rotation-r9",
        "damped-rational", "rotation-off-center"])
def test_trace_path_entries_equal_the_frozen_inner_solve(T, monkeypatch):
    # the traced path on the frozen solve and, on a disk, the frozen
    # predicates that took the norm of p - c gives every entry's bits
    cfg = PathConfig(q=0.95, inner_tol=1e-12, target_t=0.95)
    got = trace_path(T, cfg)
    if T.domain.kind == "ball":
        c, radius = np.array(T.domain.params[:-1]), T.domain.params[-1]
        contains, interior, bdist = _written_ball(c, radius)
        T = replace(T, domain=replace(T.domain, contains=contains,
                                      interior_contains=interior,
                                      boundary_distance=bdist))
    monkeypatch.setattr(continuation, "solve_at_t", _frozen_solve_at_t)
    want = trace_path(T, cfg)
    assert len(got.entries) == len(want.entries) > 2
    for a, b in zip(got.entries, want.entries):
        assert a.x.tobytes() == b.x.tobytes()
        assert all(same_float(u, v) for u, v in zip(a[2:5], b[2:5]))
        assert a.t == b.t
    assert "".join(path_csv(got)) == "".join(path_csv(want))
    assert same_float(got.mbound, want.mbound)


# ---------------------------------------------------------------------------
# the float drive of the one-coordinate maps

def _bits(v):
    """A drive's result as comparable bits: an array by its shape, bytes
    and write flag, a float by its double's bytes, an orbit field by
    field, a tuple item by item."""
    if isinstance(v, Orbit):
        return tuple(_bits(getattr(v, f)) for f in (
            "points", "residuals", "exited_domain_at", "perturbation_bound"))
    if isinstance(v, tuple):
        return tuple(map(_bits, v))
    if isinstance(v, np.ndarray):
        return v.shape, v.tobytes(), v.flags.writeable
    if isinstance(v, float):
        return np.float64(v).tobytes()
    return v


def _drive(f, *args):
    """What a drive returns, as bits, or the class it raises with its
    message and its payload as bits (a NonselfExitError's partial
    orbit)."""
    try:
        return _bits(f(*args))
    except FixpointError as exc:
        fields = (("orbit",) if isinstance(exc, NonselfExitError)
                  else exc.payload)
        return (type(exc), str(exc),
                *(_bits(getattr(exc, k)) for k in fields))


# a box of each one-coordinate map that its iterates leave (constant's
# when c lies above -1e-300, both zeros among them)
_NARROWED = {"affine-halfline": halfline(-0.5),
             "rakotch-decay": halfline(0.5),
             "constant": box([-1.0], [-1e-300]),
             "damped-rational": box([0.01], [2.0])}


@pytest.mark.parametrize("narrowed", [False, True],
                         ids=["domain", "narrowed"])
@pytest.mark.parametrize("name", sorted(_ELEMENTWISE))
@given(data=st.data())
def test_float_drive_equals_the_array_drive(name, narrowed, data):
    lo, hi, special = _ELEMENTWISE[name]
    T = make_map(name, **_draw_params(name, data)).mapping
    assert T.float_points
    if narrowed:
        T = replace(T, domain=_NARROWED[name])
    arrays = replace(T, float_points=False)
    x0 = data.draw(st.one_of(
        st.sampled_from([*special, lo, hi, -0.0, 1e160, math.inf]),
        _domain_doubles(lo, hi)), label="x0")
    tol = data.draw(st.sampled_from([1e-12, 1e-6, 1e-2]), label="tol")
    t = data.draw(st.floats(0.0, 0.999), label="t")
    for drive, args in ((solve_fixed_point, ([x0], tol, 200)),
                        (orbit_exact, ([x0], 50)),
                        (solve_at_t, (t, [x0], tol, 200))):
        got = _drive(drive, T, *args)
        with np.errstate(all="ignore"):     # 0 * inf on the arrays
            assert got == _drive(drive, arrays, *args), drive.__name__


def test_float_drive_cases_reach_every_outcome():
    # the starts above meet each drive's result and each error payload
    cases = [("affine-halfline", False, math.inf),      # NonFiniteError
             ("damped-rational", False, 1e160),         # DomainError
             ("affine-halfline", False, 1e160),         # overflowed residual
             ("rakotch-decay", False, -0.0),
             ("affine-halfline", True, 4.0),            # exits
             ("damped-rational", True, 1.0)]
    kinds = set()
    for name, narrowed, x0 in cases:
        T = make_map(name).mapping
        if narrowed:
            T = replace(T, domain=_NARROWED[name])
        for drive, args in ((solve_fixed_point, ([x0], 1e-12, 200)),
                            (orbit_exact, ([x0], 50)),
                            (solve_at_t, (0.9, [x0], 1e-12, 200))):
            got = _drive(drive, T, *args)
            kinds.add((drive.__name__, got[0] if isinstance(got[0], type)
                       else "returned"))
    assert kinds == {
        (d, k) for d in ("solve_fixed_point", "orbit_exact", "solve_at_t")
        for k in ("returned", NonFiniteError, DomainError)} | {
        ("solve_fixed_point", NonselfExitError),
        ("solve_fixed_point", ConvergenceError),
        ("solve_at_t", DomainExitError), ("solve_at_t", ConvergenceError)}


@pytest.mark.parametrize("name", sorted(_ELEMENTWISE))
def test_float_drive_steps_on_floats_through_the_leaves(name):
    # apply, contains and distance, the callables a tracer wraps, see
    # every step; only the starts' membership tests see the point array
    seen = []

    def spy(f):
        def leaf(*args):
            seen.extend(type(v) for v in args)
            return f(*args)
        return leaf

    # constant at c = 0.75 settles in one step, the others take more
    T = make_map(name, **({"c": 0.75} if name == "constant" else {})).mapping
    T = replace(T, apply=spy(T.apply),
                domain=replace(T.domain, contains=spy(T.domain.contains)),
                space=replace(T.space, distance=spy(T.space.distance)))
    res = solve_fixed_point(T, [0.5], 1e-6, 10_000)
    orbit_exact(T, [0.5], 10)
    orbit_inexact(T, [0.5], 10, 1e-3, 5)
    solve_at_t(T, 0.5, [0.5], 1e-6)
    assert res.iterations > (0 if name == "constant" else 2)
    assert seen.count(np.ndarray) == 4 and set(seen) == {float, np.ndarray}


# planar-rotation's disk, a disk off the origin, and a disk that orbits
# from most starts leave (they circle the fixed point at about (0.5, 1.2))
_DISKS = {"disk": None, "off-center": ball([0.25, -0.5], 4.0),
          "narrowed": ball([0.0, 0.0], 2.5)}


@pytest.mark.parametrize("disk", sorted(_DISKS))
@given(x0=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       t=st.floats(0.0, 0.999), tol=st.sampled_from([1e-12, 1e-6, 1e-2]))
def test_float_drive_in_two_dimensions_equals_the_array_drive(disk, x0, t,
                                                              tol):
    # planar-rotation on tuples of floats against (2,) arrays, declared
    # contractive (falsely) so that solve_fixed_point runs it, to
    # its budget or out of the disk
    T = replace(make_map("planar-rotation").mapping,
                declared_modulus=constant_modulus(0.5))
    if _DISKS[disk] is not None:
        T = replace(T, domain=_DISKS[disk])
    assert T.float_points
    arrays = replace(T, float_points=False)
    for drive, args in ((solve_fixed_point, (x0, tol, 200)),
                        (orbit_exact, (x0, 50)),
                        (orbit_inexact, (x0, 50, 1e-3, 5)),
                        (solve_at_t, (t, x0, tol, 200))):
        assert _drive(drive, T, *args) == _drive(drive, arrays, *args), \
            drive.__name__


def _doubling() -> MappingInstance:
    """x0 -> 2 x0 on a disk of the largest radius, on tuples and on (2,)
    arrays: from (1, 0) its iterates double, far from converged, until
    they pass the largest float."""
    def apply(x):
        if x.__class__ is tuple:
            return 2.0 * x[0], x[1]
        return x * np.array([2.0, 1.0])
    return MappingInstance(apply=apply,
                           declared_modulus=nonexpansive_modulus(),
                           domain=ball([0.0, 0.0], _MAX), space=euclidean(2),
                           float_points=True)


def test_float_drive_in_two_dimensions_reaches_every_outcome():
    # the drives above meet a result and each error they raise, each
    # payload field by field against the array drive
    T = replace(make_map("planar-rotation").mapping,
                declared_modulus=constant_modulus(0.5))
    narrowed = replace(T, domain=_DISKS["narrowed"])
    fixed = make_map("planar-rotation").known_fixed_point
    kinds = set()
    for drive, U, *args in (
            (solve_at_t, T, 0.5, (0.0, 0.0), 1e-12, 200),
            (solve_at_t, narrowed, 0.99, (2.0, 1.0), 1e-12, 200),
            (solve_at_t, T, 0.999, (0.0, 0.0), 1e-12, 20),
            (solve_at_t, T, 0.9, (0.0, 0.0), 1e-300, 500),
            (solve_at_t, _doubling(), 0.9, (1.0, 0.0), 1e-12, 5000),
            (solve_fixed_point, T, fixed, 1e-9, 200),
            (solve_fixed_point, narrowed, (2.0, 1.0), 1e-9, 200),
            (solve_fixed_point, T, (2.0, 1.0), 1e-9, 200),
            (orbit_exact, narrowed, (3.0, 3.0), 50)):
        assert U.float_points
        got = _drive(drive, U, *args)
        with np.errstate(all="ignore"):     # the doubling's overflow
            assert got == _drive(drive, replace(U, float_points=False),
                                 *args), (drive.__name__, args)
        kinds.add(got[0] if isinstance(got[0], type) else "returned")
    assert kinds == {"returned", DomainExitError, ConvergenceError,
                     NonselfExitError, DomainError, NonFiniteError}


@given(theta=st.floats(0.1, 2.0 * math.pi - 0.1),
       b=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       spare=st.floats(0.0, 3.0), angle=st.floats(0.0, 2.0 * math.pi),
       frac=st.floats(0.0, 1.0), t=st.floats(0.0, 0.999),
       tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-2, 1e-300]),
       budget=st.sampled_from([1, 5, 200, 5000]))
def test_float_drive_inner_solves_in_two_dimensions_equal_the_array_drive(
        theta, b, spare, angle, frac, t, tol, budget):
    # planar-rotation with drawn parameters on a disk from twice its path
    # reach (the least the map takes) to five times, from a warm start
    # anywhere in it: solve_at_t on tuples of floats against (2,) arrays,
    # results and payloads field by field; 1e-300 is never met, the small
    # budgets end in ConvergenceError, and a warm start near the rim can
    # end in DomainExitError (the test above pins one of each outcome)
    smin = abs(math.sin(theta)) if math.cos(theta) > 0.0 else 1.0
    radius = (2.0 + spare) * math.hypot(*b) / smin + 1.0
    T = make_map("planar-rotation", theta=theta, bx=b[0], by=b[1],
                 radius=radius).mapping
    assert T.float_points
    x0 = (radius * frac * math.cos(angle), radius * frac * math.sin(angle))
    args = (t, x0, tol, budget)
    assert _drive(solve_at_t, T, *args) == \
        _drive(solve_at_t, replace(T, float_points=False), *args)


def _frozen_orbit_inexact(T, x0, n: int, delta: float, noise_seed: int
                          ) -> Orbit:
    """Frozen copy of orbit_inexact's loop as it stepped every map on
    (d,) arrays, float_points or not (delta > 0)."""
    d = T.space.dimension
    x = _start(T, x0)
    pts = np.empty((n + 1, d))
    pts[0] = x
    noise = _ball_noise(noise_seed, n, d, delta)
    images = np.empty((n, d))
    contains, project = T.domain.contains, T.domain.project
    for i in range(n):
        y = images[i] = T.apply(x)
        p = y + noise[i]
        inside = contains(p)
        if not inside:
            if contains(y):
                p = project(p)
                inside = contains(p)
            elif not np.all(np.isfinite(y)):
                raise _non_finite(y, x)
        pts[i + 1] = x = p
        if not inside:
            break
    exited = None if inside else i + 1
    m = exited or n
    pts = pts[:m + 1]
    _refuse_non_finite(pts[1:], pts[:-1])
    res = T.space.rowwise_distance(pts[1:], images[:m])
    pts.setflags(write=False)
    res.setflags(write=False)
    return Orbit(points=pts, residuals=res, exited_domain_at=exited,
                 perturbation_bound=delta)


# a one-coordinate map that promises float_points and grows by 5/4: its
# orbits leave [-1, 1], some after a step projected onto a bound
_GROWER = MappingInstance(apply=lambda x: 1.25 * x,
                          declared_modulus=constant_modulus(0.5),
                          domain=box([-1.0], [1.0]), space=euclidean(1),
                          float_points=True)
_INEXACT = {**_ELEMENTWISE, "grower": (-1.0, 1.0, [-1.0, 1.0, -0.0, 0.0,
                                                   5e-324, 0.8])}


def _inexact_map(name: str, data) -> MappingInstance:
    if name == "grower":
        return _GROWER
    return make_map(name, **_draw_params(name, data)).mapping


@pytest.mark.parametrize("name", sorted(_INEXACT))
@given(data=st.data())
def test_float_drive_orbit_inexact_equals_the_frozen_array_loop(name, data):
    lo, hi, special = _INEXACT[name]
    T = _inexact_map(name, data)
    assert T.float_points
    x0 = data.draw(st.one_of(
        st.sampled_from([*special, lo, hi, 1e160, math.inf]),
        _domain_doubles(lo, hi)), label="x0")
    delta = data.draw(st.one_of(st.sampled_from([5e-324, 1e-3, 0.05, 1.0]),
                                st.floats(1e-300, 1e3)), label="delta")
    n = data.draw(st.integers(1, 300), label="n")
    seed = data.draw(st.integers(0, 2 ** 63 - 1), label="seed")
    got = _drive(orbit_inexact, T, [x0], n, delta, seed)
    with np.errstate(all="ignore"):     # overflow on the arrays
        assert got == _drive(_frozen_orbit_inexact, T, [x0], n, delta, seed)


def test_float_drive_orbit_inexact_cases_reach_every_branch():
    decay = make_map("rakotch-decay").mapping
    cases = {
        # near 0 the noise pushes points below the bound, projected onto 0
        "projects": (decay, [1e-4], 2000, 1e-3, 5),
        "exits": (_GROWER, [0.5], 100, 0.05, 13),
        # inf / (1 + inf) is NaN, outside the halfline
        "nan-image": (decay, [math.inf], 10, 1e-3, 5),
    }
    outcomes = {}
    for label, args in cases.items():
        got = _drive(orbit_inexact, *args)
        with np.errstate(all="ignore"):     # inf / inf on the arrays
            assert got == _drive(_frozen_orbit_inexact, *args), label
        outcomes[label] = got
    points = np.frombuffer(outcomes["projects"][0][1])
    assert np.count_nonzero(points == 0.0) > 10
    assert outcomes["projects"][2] is None
    exits = orbit_inexact(*cases["exits"])
    assert exits.exited_domain_at == len(exits) - 1
    assert 1.0 in exits.points      # a step projected onto the bound first
    kind, _, point, last_inside = outcomes["nan-image"]
    assert kind is NonFiniteError
    assert point[0] == last_inside[0] == (1,)


# ---------------------------------------------------------------------------
# the one-coordinate perturbation draw

def _frozen_ball_noise(rng, n: int, d: int, delta: float) -> np.ndarray:
    """Frozen copy of _ball_noise's general form, drawing from rng."""
    dirs = rng.standard_normal((n, d))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    radii = delta * rng.random(n) ** (1.0 / d) * (1.0 - 1e-9)
    return dirs * radii[:, None]


def test_ball_noise_in_one_dimension_equals_the_general_form():
    for seed in range(300):
        for n, delta in ((1, 0.5), (2000, 1e-3), (333, 7.0)):
            got = _ball_noise(seed, n, 1, delta)
            want = _frozen_ball_noise(np.random.default_rng(seed), n, 1,
                                      delta)
            assert got.shape == (n, 1)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 3, 8, 9, 16])
def test_ball_noise_divides_by_the_written_out_norm(d):
    # each direction over the root of its left-to-right sum of squares;
    # np.linalg.norm adds eight or more squares pairwise, in another
    # order, which rounds about a fifth of the rows apart at d = 8
    for seed in range(3):
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((500, d))
        dirs /= np.array([max(written_root(v), 1e-300) for v in dirs])[
            :, None]
        radii = 0.5 * rng.random(500) ** (1.0 / d) * (1.0 - 1e-9)
        want = dirs * radii[:, None]
        assert _ball_noise(seed, 500, d, 0.5).tobytes() == want.tobytes()


class _Draws:
    """A generator that returns the given normals and uniforms."""

    def __init__(self, z, u):
        self.z, self.u = z, u

    def standard_normal(self, shape):
        return np.reshape(np.array(self.z), shape)

    def random(self, n):
        return np.array(self.u)


def test_ball_noise_in_one_dimension_keeps_the_sign_of_a_zero_normal(
        monkeypatch):
    # a normal draw of exactly +-0.0 (rare, but the ziggurat can give it)
    # and a uniform draw of 0.0
    z = [0.0, -0.0, 1.5, -2.0, 0.0, -1e-3]
    u = [0.3, 0.7, 0.0, 0.0, 0.9, 1.0 - 2.0 ** -53]
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _Draws(z, u))
    got = _ball_noise(0, 6, 1, 0.25)
    want = _frozen_ball_noise(_Draws(z, u), 6, 1, 0.25)
    assert got.tobytes() == want.tobytes()
    assert np.signbit(got[:, 0]).tolist() == [False, True] * 3
    assert got[[0, 1, 4], 0].tolist() == [0.0, 0.0, 0.0]
    assert got[5, 0] < -0.24
