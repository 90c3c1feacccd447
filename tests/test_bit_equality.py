"""The fast paths give the bits of the forms they replace.

* euclidean(1)'s scalar distance and norm against the array norm and the
  row form, over all doubles;
* a modulus called on an array against its scalar calls, and the audit's
  rhs against the per-pair products;
* the chunked CSV writers against frozen copies of the row loops they
  replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from fixpoint.continuation import (ContinuationPath, LimitCertificate,
                                   PathConfig, PathEntry, limit_path,
                                   path_csv, trace_path)
from fixpoint.core import (constant_modulus, euclidean, _euclidean_norm,
                           nonexpansive_modulus, rational_decay_modulus,
                           table_modulus, verify_contractive)
from fixpoint.errors import ArgumentError
from fixpoint.gallery import list_maps, make_map
from fixpoint.picard import (Orbit, _CSV_CHUNK, orbit_csv, orbit_exact,
                             orbit_inexact)

_DOUBLES = st.floats(allow_nan=True, allow_infinity=True,
                     allow_subnormal=True)


def _same_float(a: float, b: float) -> bool:
    """a and b are the same double: equal with the same sign, or both
    NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


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
    space = euclidean(1)
    x, y = np.array([a]), np.array([b])
    with np.errstate(all="ignore"):
        want = _euclidean_norm(x - y)
        rows = space.rowwise_distance(x[None], y[None])
        want_norm = _euclidean_norm(x)
    got = space.distance(x, y)
    assert type(got) is float and _same_float(got, want)
    assert _same_float(float(rows[0]), want)
    got_norm = space.norm(x)
    assert type(got_norm) is float and _same_float(got_norm, want_norm)


# ---------------------------------------------------------------------------
# moduli on arrays

_MODULI = [rational_decay_modulus(1.0), rational_decay_modulus(0.37),
           constant_modulus(0.5), nonexpansive_modulus(),
           table_modulus([0.0, 1.0, 2.5], [0.9, 0.5, 0.2])]


@pytest.mark.parametrize("m", _MODULI, ids=lambda m: f"{m.kind}{m.params}")
@given(ts=st.lists(st.floats(min_value=0.0, allow_nan=False,
                             allow_subnormal=True), max_size=40))
def test_modulus_on_an_array_equals_the_scalar_calls(m, ts):
    got = m(np.array(ts, dtype=float))
    assert isinstance(got, np.ndarray) and got.shape == (len(ts),)
    for g, t in zip(got.tolist(), ts):
        v = m(t)
        assert type(v) is float and _same_float(g, v)
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


_SPECIAL = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300,
                     1e16, 1.5e154, 1.7976931348623157e308, math.inf,
                     -math.inf, math.nan, 0.1, 1.0 / 3.0])


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
    assert orbit_csv(orbit) == _reference_orbit_csv(orbit)


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 30),
                                        st.integers(1, 3)),
                  elements=_DOUBLES), st.data())
def test_orbit_csv_equals_the_row_loop_on_any_doubles(points, data):
    residuals = data.draw(hnp.arrays(np.float64, len(points) - 1,
                                     elements=_DOUBLES))
    orbit = _orbit(points, residuals)
    assert orbit_csv(orbit) == _reference_orbit_csv(orbit)


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
        assert orbit_csv(orbit) == _reference_orbit_csv(orbit)


def _path(x: np.ndarray, rest: np.ndarray, terminal: bool
          ) -> ContinuationPath:
    entries = tuple(PathEntry(t=float(r[0]), x=p, inner_residual=float(r[1]),
                              step_bound_used=float(r[2]),
                              r_used=float(r[3]), norm_bound_ok=True)
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
    assert path_csv(path) == _reference_path_csv(path)


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 20),
                                        st.integers(1, 3)),
                  elements=_DOUBLES), st.data(), st.booleans())
def test_path_csv_equals_the_row_loop_on_any_doubles(x, data, terminal):
    rest = data.draw(hnp.arrays(np.float64, (len(x), 4), elements=_DOUBLES))
    path = _path(x, rest, terminal)
    assert path_csv(path) == _reference_path_csv(path)


def test_path_csv_equals_the_row_loop_on_computed_paths():
    rotation = make_map("planar-rotation").mapping
    affine = make_map("affine-halfline").mapping
    for path in (trace_path(rotation, PathConfig(q=0.99, target_t=0.95)),
                 limit_path(affine, PathConfig(), 1e-9)):
        assert path_csv(path) == _reference_path_csv(path)
