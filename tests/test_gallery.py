import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fixpoint.core import (as_point, check_modulus_admissible,
                           verify_contractive)
from fixpoint.errors import ArgumentError, DomainError, UnknownMapError
from fixpoint.gallery import list_maps, make_map, map_summary
from written_out import written_root

ALL_NAMES = ("affine-halfline", "rakotch-decay", "constant",
             "planar-rotation", "damped-rational")
ONE_COORDINATE = tuple(n for n in ALL_NAMES if n != "planar-rotation")


def test_registry_lists_all_maps():
    assert list_maps() == ALL_NAMES


def test_make_map_unknown_name():
    with pytest.raises(UnknownMapError):
        make_map("moebius")


def test_make_map_unknown_parameter():
    with pytest.raises(ArgumentError):
        make_map("rakotch-decay", b=2.0)
    with pytest.raises(ArgumentError):
        make_map("affine-halfline", a=1.0)


def test_make_map_range_validation():
    with pytest.raises(ArgumentError):
        make_map("rakotch-decay", a=0.0)
    with pytest.raises(ArgumentError):
        make_map("rakotch-decay", a=101.0)
    with pytest.raises(ArgumentError):
        make_map("planar-rotation", theta=0.01)


def test_rotation_radius_margin_enforced():
    # theta = pi/4 with unit translation needs radius >= 2 sqrt(2)
    with pytest.raises(ArgumentError):
        make_map("planar-rotation", radius=2.0)
    make_map("planar-rotation", radius=3.0)


@pytest.mark.parametrize("theta,bx,by", [(2.0, 3.0, 4.0), (0.3, 3.0, 4.0),
                                         (1.0, 0.7, -2.3)])
def test_rotation_refuses_a_disk_just_below_twice_the_path_reach(theta, bx,
                                                                 by):
    # the path reach is ||b|| written out, the root of bx^2 + by^2, over
    # the least singular value of I - t R: sin(theta) for cos(theta) > 0,
    # else 1; the margin is taken to the last bit
    smin = abs(math.sin(theta)) if math.cos(theta) > 0.0 else 1.0
    reach = written_root([bx, by]) / smin
    e = make_map("planar-rotation", theta=theta, bx=bx, by=by,
                 radius=2.0 * reach)
    assert e.mapping.domain.params[-1] == 2.0 * reach
    below = math.nextafter(2.0 * reach, 0.0)
    with pytest.raises(ArgumentError, match=f"path reach {reach!r};"):
        make_map("planar-rotation", theta=theta, bx=bx, by=by, radius=below)


def test_constant_box_must_straddle_zero():
    with pytest.raises(ArgumentError):
        make_map("constant", lo=-2.0, hi=-1e-6)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_known_fixed_points_are_fixed(name):
    e = make_map(name)
    if e.known_fixed_point is None:
        return
    T = e.mapping
    img = T.apply(e.known_fixed_point)
    assert T.space.distance(e.known_fixed_point, img) <= 1e-12


@pytest.mark.parametrize("a", [0.5, 1.0, 4.0])
def test_rakotch_decay_pole_point_takes_the_row_form(a):
    # x = -1/a lies outside the domain [0, inf), where 1 + a x is 0: a
    # (1,) point goes through the ufuncs like a row and gives -inf, while
    # the Python float the float drive would pass raises
    apply = make_map("rakotch-decay", a=a).mapping.apply
    pole = -1.0 / a
    with np.errstate(divide="ignore"):
        point = apply(np.array([pole]))
        row = apply(np.array([[pole]]))
    assert point.shape == (1,) and point[0] == -math.inf
    assert point.tobytes() == row[0].tobytes()
    with pytest.raises(ZeroDivisionError):
        apply(pole)


def test_constant_outside_box_has_no_fixed_point():
    assert make_map("constant", c=2.0).known_fixed_point is None
    e = make_map("constant", c=0.25)
    assert e.known_fixed_point is not None
    assert e.known_fixed_point[0] == 0.25


@pytest.mark.parametrize("name", ALL_NAMES)
def test_samplers_land_in_domain(name):
    e = make_map(name)
    rng = np.random.default_rng(47)
    for _ in range(300):
        p = e.sampler(rng)
        assert p.shape == (e.mapping.space.dimension,)
        assert e.mapping.domain.contains(p)


@pytest.mark.parametrize("name", ONE_COORDINATE)
def test_sampler_rows_are_successive_point_draws(name):
    e = make_map(name)
    d = e.mapping.space.dimension
    for seed in (0, 1, 7):
        rows_rng = np.random.default_rng(seed)
        points_rng = np.random.default_rng(seed)
        rows = e.sampler(rows_rng, 2000)
        points = np.array([e.sampler(points_rng) for _ in range(2000)])
        assert rows.shape == (2000, d)
        assert rows.tobytes() == points.tobytes()
        # and the generators are left in the same state
        assert rows_rng.random() == points_rng.random()
    assert e.sampler(np.random.default_rng(0), 0).shape == (0, d)


def _reference_rotation_rows(rng, m):
    """planar-rotation's rows at the default parameters, frozen: one block
    of 2m normals, then one of m uniforms, each normal pair over its
    written-out root times 4 sqrt(u)."""
    v = rng.standard_normal((m, 2))
    u = rng.random(m)
    rows = [p / max(written_root(p), 1e-300) * (4.0 * math.sqrt(w))
            for p, w in zip(v, u.tolist())]
    return np.array(rows).reshape(m, 2)


def _assert_rotation_rows_are_one_block_draw(make, m, buffered=False):
    """planar-rotation's m rows from the generator make() equal the frozen
    block reference, and leave the generator where the reference does."""
    e = make_map("planar-rotation")
    rng, ref_rng = make(), make()
    if buffered:
        # half of a 64-bit word stays buffered for the next uint32 draw
        for g in (rng, ref_rng):
            g.integers(2 ** 32, dtype=np.uint32)
    rows = e.sampler(rng, m)
    ref = _reference_rotation_rows(ref_rng, m)
    assert rows.shape == (m, 2)
    assert rows.tobytes() == ref.tobytes()
    # and the generators are left in the same state; the states hold
    # arrays for some bit generators, pickled alike when equal
    assert pickle.dumps(rng.bit_generator.state) \
        == pickle.dumps(ref_rng.bit_generator.state)
    assert rng.integers(2 ** 32, dtype=np.uint32) \
        == ref_rng.integers(2 ** 32, dtype=np.uint32)
    assert rng.random() == ref_rng.random()
    assert e.mapping.domain.contains_rows(rows).all()


# 40,000 rows at 2026: the draws of the certify benchmark's rotation config
@pytest.mark.parametrize("seed, m", [(0, 2000), (1, 2000), (7, 2000),
                                     (2026, 40_000)])
def test_rotation_rows_are_one_block_draw(seed, m):
    _assert_rotation_rows_are_one_block_draw(
        lambda: np.random.default_rng(seed), m)
    e = make_map("planar-rotation")
    assert e.sampler(np.random.default_rng(seed), 0).shape == (0, 2)


@given(st.integers(0, 2 ** 63 - 1), st.integers(0, 2050), st.booleans())
def test_rotation_rows_equal_the_block_reference(seed, m, buffered):
    _assert_rotation_rows_are_one_block_draw(
        lambda: np.random.default_rng(seed), m, buffered)


@pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.MT19937,
                                    np.random.Philox, np.random.SFC64,
                                    np.random.PCG64DXSM])
@pytest.mark.parametrize("buffered", [False, True])
def test_rotation_rows_are_one_block_draw_on_every_bit_generator(bitgen,
                                                                 buffered):
    for seed in (0, 7):
        _assert_rotation_rows_are_one_block_draw(
            lambda: np.random.Generator(bitgen(seed)), 1025, buffered)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_a_point_draw_is_the_single_row_of_one_row_draw(name):
    e = make_map(name)
    d = e.mapping.space.dimension
    for seed in (0, 1, 7, 2026):
        point_rng, row_rng = (np.random.default_rng(seed) for _ in range(2))
        for _ in range(50):
            p = e.sampler(point_rng)
            row = e.sampler(row_rng, 1)
            assert p.shape == (d,) and row.shape == (1, d)
            assert p.tobytes() == row[0].tobytes()
        assert point_rng.random() == row_rng.random()


def _reference_point_sampler(name):
    """The point samplers as they were written before the row form, one
    draw at a time, frozen at the default parameters."""
    if name == "planar-rotation":
        def draw(rng):
            v = rng.standard_normal(2)
            v /= max(written_root(v), 1e-300)
            return v * (4.0 * math.sqrt(rng.random()))
        return draw
    lo, width = {"affine-halfline": (-1.0, 10.0),
                 "rakotch-decay": (0.0, 10.0), "constant": (-1.0, 2.0),
                 "damped-rational": (-2.0, 4.0)}[name]
    return lambda rng: np.array([lo + width * rng.random()])


@pytest.mark.parametrize("name", ALL_NAMES)
def test_sampler_keeps_the_frozen_point_draws(name):
    e = make_map(name)
    draw = _reference_point_sampler(name)
    # 40,000 rows: the draws of the certify benchmark's rotation config
    for seed, m in ((0, 500), (1, 500), (7, 500), (2026, 40_000)):
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        # planar-rotation's rows are one block draw, not successive point
        # draws (test_rotation_rows_are_one_block_draw): its point draws
        # are the ones frozen here
        rows = (np.array([e.sampler(rng) for _ in range(m)])
                if name == "planar-rotation" else e.sampler(rng, m))
        ref = np.array([draw(ref_rng) for _ in range(m)])
        assert rows.tobytes() == ref.tobytes()
        assert rng.random() == ref_rng.random()


def _reference_verify(T, pairs, slack):
    """verify_contractive as it was written before it was batched, one
    pair at a time, frozen: (lhs, rhs, passed) per pair."""
    d = T.space.dimension
    checks = []
    for x_raw, y_raw in pairs:
        x = as_point(x_raw, d)
        y = as_point(y_raw, d)
        for p in (x, y):
            if not T.domain.contains(p):
                raise DomainError(
                    f"pair point {p!r} lies outside the domain", point=p)
        sep = T.space.distance(x, y)
        lhs = T.space.distance(T.apply(x), T.apply(y))
        rhs = T.declared_modulus(sep) * sep
        checks.append((lhs, rhs, lhs <= rhs + slack))
    return checks


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("seed", (0, 1, 7))
def test_batched_audit_matches_the_per_pair_loop(name, seed):
    e = make_map(name)
    rng = np.random.default_rng(seed)
    pairs = [(e.sampler(rng), e.sampler(rng)) for _ in range(200)]
    rep = verify_contractive(e.mapping, pairs, slack=1e-12)
    ref = _reference_verify(e.mapping, pairs, 1e-12)
    lhs, rhs, passed = (list(col) for col in zip(*ref))
    assert rep.n_pairs == len(ref) == 200
    assert rep.verdicts.tolist() == passed
    assert rep.rhs.tolist() == rhs
    assert rep.lhs.tolist() == lhs
    # the CLI draws the same pairs as rows, which for planar-rotation are
    # one block draw, not successive point draws
    if name in ONE_COORDINATE:
        rows = e.sampler(np.random.default_rng(seed), 400)
        assert rows.reshape(200, 2, -1).tobytes() == \
            np.array(pairs).tobytes()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_declared_moduli_hold_on_sampled_pairs(name):
    e = make_map(name)
    rng = np.random.default_rng(53)
    pairs = [(e.sampler(rng), e.sampler(rng)) for _ in range(200)]
    # rotations are isometries: distances are preserved, not shrunk, and
    # the recomputation costs an ulp either way
    rep = verify_contractive(e.mapping, pairs, slack=1e-12)
    bad = ~rep.verdicts
    assert rep.passed, (rep.x[bad][:3], rep.y[bad][:3], rep.lhs[bad][:3],
                        rep.rhs[bad][:3])


@pytest.mark.parametrize("name", ALL_NAMES)
def test_declared_moduli_admissible_except_sentinel(name):
    e = make_map(name)
    grid = np.concatenate([[0.0], np.geomspace(1e-6, 50.0, 100)])
    rep = check_modulus_admissible(e.mapping.declared_modulus, grid)
    if name == "planar-rotation":
        assert not rep.admissible
        assert len(rep.not_below_one) == 100
    else:
        assert rep.admissible


@pytest.mark.parametrize("name,ts", [
    ("affine-halfline", (0.0, 0.3, 0.9, 0.99)),
    ("rakotch-decay", (0.0, 0.5, 0.9)),
    ("damped-rational", (0.0, 0.5, 0.9)),
    ("planar-rotation", (0.0, 0.5, 0.9)),
    ("constant", (0.0, 0.2, 0.4)),     # t c inside the box only up to 1/2
])
def test_known_paths_satisfy_the_homotopy_equation(name, ts):
    e = make_map(name)
    T = e.mapping
    for t in ts:
        x = e.known_path(t)
        assert T.space.distance(x, t * T.apply(x)) <= 1e-12


def test_rotation_path_stays_within_half_the_disk():
    e = make_map("planar-rotation")
    radius = e.params["radius"]
    for t in np.linspace(0.0, 0.999, 50):
        assert np.linalg.norm(e.known_path(t)) <= radius / 2.0 + 1e-9


def test_map_summaries_mention_parameters():
    s = map_summary("rakotch-decay")
    assert "a = 1.0" in s
    assert "rakotch-decay" in s
    # make_map's refusal, the one place that refuses an unknown name
    with pytest.raises(UnknownMapError, match="^unknown map 'nope'; known: "):
        map_summary("nope")


def test_entries_carry_notes_and_params():
    for name in ALL_NAMES:
        e = make_map(name)
        assert e.notes
        assert e.name == name
    assert make_map("rakotch-decay", a=2.5).params["a"] == 2.5
