"""Benchmark maps with known fixed points and continuation paths.

Five families, each a MappingInstance with a declared modulus that the test
suite audits rather than trusts:

* affine-halfline: T x = (x - 1) / 2 on [-1, inf).  Contraction with
  constant modulus 1/2; the fixed point -1 sits exactly on the boundary and
  the path of x = t T x is x_t = -t / (2 - t).
* rakotch-decay: T x = x / (1 + a x) on [0, inf).  Not a Banach contraction
  on any neighbourhood of 0, but contractive with modulus 1 / (1 + a t);
  since (1 + a x)(1 + a y) >= 1 + a |x - y| for x, y >= 0,
  |T x - T y| <= |x - y| / (1 + a |x - y|).  Fixed point 0.
* constant: T identically c on a box [lo, hi] containing 0 in its interior.
  Modulus 0.  With c outside the box, iteration exits in one step and the
  path x_t = t c pins against the boundary where T x = (c / boundary) x,
  the canonical boundary-condition violation.
* planar-rotation: T x = R x + b, rotation by theta plus translation, on a
  centered disk.  An isometry up to translation, so only nonexpansive; the
  unique fixed point (I - R)^{-1} b and path t (I - t R)^{-1} b are linear
  algebra.  The disk radius must cover the path with margin, which needs
  the smallest singular value of I - t R over t in [0, 1]: sin(theta) when
  cos(theta) > 0, else 1.
* damped-rational: T x = x / (2 + x^2) on [-2, 2].  |T'| <= 1/2, modulus
  1/2, fixed point 0 in the interior, path identically 0.

affine-halfline, rakotch-decay, constant and damped-rational are
one-coordinate: each apply is one body, written in + - * / alone (no **,
no math.*), that maps a Python float, a (1,) point and an (m, 1) array of
rows with the same bits, since Python floats and numpy's float64 ufuncs
round + - * / alike.  constant's body is c - (x - x): x - x is +0.0 for
every finite x, and c - 0.0 is c, a -0.0 included (an infinite or NaN x,
outside every domain, gives NaN).  Each declares float_points, so the
exact Picard drives step it on the float itself; orbit_inexact steps it
on a (1, 1) array of rows, as a one-trial stability run does.  Only a
division by zero differs: a Python float raises ZeroDivisionError where
numpy warns and gives an infinity; that needs a point outside the domain
(rakotch-decay at x = -1/a).  planar-rotation's apply is one body too,
x R^T + b written out coordinate by coordinate, x0 R[j, 0] + x1 R[j, 1]
+ b_j, on the two floats of a tuple; a (2,) point or (m, 2) rows go
through the same body as the tuple of their coordinates, x.T (two floats
or two columns), and are stacked back by np.array(...).T, so all three
get the same bits; planar-rotation also declares float_points, and
the inner solves of the continuation step it on a tuple of two floats,
through the same apply, ball membership and Euclidean distance.

Each map is one _REGISTRY entry (its builder, parameters and notes); the
builder returns only what differs between maps, and make_map does the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (DomainSet, MappingInstance, Modulus, Point, ball, box,
                   constant_modulus, euclidean, halfline, _euclidean_norm,
                   _frozen, _row_norms, nonexpansive_modulus,
                   rational_decay_modulus)
from .errors import ArgumentError, UnknownMapError


@dataclass(frozen=True)
class GalleryEntry:
    """A registered map plus everything a test or experiment needs: the
    instantiated parameters, the closed-form fixed point and path when they
    exist, and a seeded sampler drawing points from the domain.

    sampler(rng, m) draws an (m, dimension) array of points; sampler(rng)
    draws one point, the single row of sampler(rng, 1).  The
    one-coordinate maps' rows equal, bit for bit, m successive point
    draws from the same generator state.  planar-rotation's rows are one
    block draw: 2m normals, then m uniforms."""

    name: str
    mapping: MappingInstance
    params: dict[str, float]
    known_fixed_point: Point | None
    known_path: Callable[[float], Point] | None
    notes: str
    sampler: Callable[..., Point]


def _with_point_form(rows: Callable[[np.random.Generator, int], np.ndarray]
                     ) -> Callable[..., Point]:
    """The sampler for a row form rows(rng, m): with m omitted it draws
    one point as the single row of rows(rng, 1)."""
    def sampler(rng: np.random.Generator, m: int | None = None) -> Point:
        return rows(rng, 1)[0] if m is None else rows(rng, m)
    return sampler


def _interval_rows(lo: float, width: float) -> Callable:
    """Uniform draws from [lo, lo + width) as (m, 1) rows; one
    rng.random(m) gives the same stream as m calls of rng.random()."""
    return lambda rng, m: (lo + width * rng.random(m))[:, None]


@dataclass(frozen=True)
class ParamSpec:
    default: float
    lo: float
    hi: float
    doc: str


# a builder's parts, what differs between maps: the mapping, its closed-form
# fixed point and path, its sampler's row form rows(rng, m).  Evaluated at
# import, so it names no np.random type, which would import numpy.random
_Parts = tuple[MappingInstance, Point | None, Callable[[float], Point],
               Callable[..., np.ndarray]]


def _one_coordinate(body: Callable, modulus: Modulus, domain: DomainSet,
                    fixed: float | None, path: Callable[[float], float],
                    lo: float, width: float) -> _Parts:
    """The parts of a one-coordinate map x -> body(x), body written in
    + - * / alone so that it maps floats, points and rows alike, with fixed
    point fixed (None when the map has none in its domain) and path
    x_t = path(t), its sampler uniform on [lo, lo + width).  domain is a
    box, so the map promises float_points."""
    mapping = MappingInstance(apply=body,
                              declared_modulus=modulus, domain=domain,
                              space=euclidean(1), float_points=True)
    return (mapping, None if fixed is None else _frozen([fixed]),
            lambda t: np.array([path(t)]), _interval_rows(lo, width))


def _build_affine_halfline() -> _Parts:
    return _one_coordinate(lambda x: (x - 1.0) / 2.0, constant_modulus(0.5),
                           halfline(-1.0), -1.0, lambda t: -t / (2.0 - t),
                           -1.0, 10.0)


def _build_rakotch_decay(a: float) -> _Parts:
    return _one_coordinate(lambda x: x / (1.0 + a * x),
                           rational_decay_modulus(a), halfline(0.0), 0.0,
                           lambda t: 0.0, 0.0, 10.0)


def _build_constant(c: float, lo: float, hi: float) -> _Parts:
    return _one_coordinate(lambda x: c - (x - x), constant_modulus(0.0),
                           box([lo], [hi]), c if lo <= c <= hi else None,
                           lambda t: t * c, lo, hi - lo)


def _rotation_min_singular(theta: float) -> float:
    # smallest singular value of I - t R over t in [0, 1]
    c = math.cos(theta)
    return abs(math.sin(theta)) if c > 0.0 else 1.0


def _build_planar_rotation(theta: float, bx: float, by: float,
                           radius: float) -> _Parts:
    smin = _rotation_min_singular(theta)
    path_reach = _euclidean_norm((bx, by)) / smin
    if radius < 2.0 * path_reach:
        raise ArgumentError(
            f"disk radius {radius} is below twice the path reach "
            f"{path_reach}; the traced path needs that margin")
    c, s = math.cos(theta), math.sin(theta)
    R = _frozen([[c, -s], [s, c]])
    b = _frozen([bx, by])
    eye = np.eye(2)
    (r00, r01), (r10, r11) = R.tolist()
    b0, b1 = b.tolist()

    def apply(x: Point | tuple) -> Point | tuple:
        # x R^T + b written out on a tuple's two floats; a point or (m, 2)
        # rows go through it as the tuple of their coordinates, x.T, and
        # are stacked back after
        if x.__class__ is not tuple:
            return np.array(apply(tuple(x.T))).T
        x0, x1 = x
        return x0 * r00 + x1 * r01 + b0, x0 * r10 + x1 * r11 + b1

    def path(t: float) -> Point:
        return np.linalg.solve(eye - t * R, t * b)

    def rows(rng: np.random.Generator, m: int) -> np.ndarray:
        v = rng.standard_normal((m, 2))
        u = rng.random(m)
        v /= np.maximum(_row_norms(v), 1e-300)[:, None]
        return v * (radius * np.sqrt(u))[:, None]

    mapping = MappingInstance(
        apply=apply, declared_modulus=nonexpansive_modulus(),
        domain=ball([0.0, 0.0], radius), space=euclidean(2),
        float_points=True)
    return mapping, _frozen(np.linalg.solve(eye - R, b)), path, rows


def _build_damped_rational() -> _Parts:
    return _one_coordinate(lambda x: x / (2.0 + x * x), constant_modulus(0.5),
                           box([-2.0], [2.0]), 0.0, lambda t: 0.0, -2.0, 4.0)


_TWO_PI = 2.0 * math.pi

# name -> (builder, parameters, notes): everything make_map needs for a map
_REGISTRY: dict[str, tuple[Callable[..., _Parts], dict[str, ParamSpec],
                           str]] = {
    "affine-halfline": (_build_affine_halfline, {}, "fixed point -1 on the "
                        "boundary; path x_t = -t/(2-t)"),
    "rakotch-decay": (_build_rakotch_decay, {
        "a": ParamSpec(1.0, 1e-6, 100.0, "decay rate in x / (1 + a x)"),
    }, "contractive only in the Rakotch sense; fixed point 0 with no "
       "contraction ratio near it"),
    "constant": (_build_constant, {
        "c": ParamSpec(2.0, -10.0, 10.0, "the constant value"),
        "lo": ParamSpec(-1.0, -1e6, -1e-6, "box lower bound (< 0)"),
        "hi": ParamSpec(1.0, 1e-6, 1e6, "box upper bound (> 0)"),
    }, "modulus 0; with c outside the box the path x_t = t c pins against "
       "the boundary (known_path is only a solution while t c stays "
       "inside)"),
    "planar-rotation": (_build_planar_rotation, {
        "theta": ParamSpec(math.pi / 4.0, 0.1, _TWO_PI - 0.1,
                           "rotation angle"),
        "bx": ParamSpec(1.0, -10.0, 10.0, "translation, first coordinate"),
        "by": ParamSpec(0.0, -10.0, 10.0, "translation, second coordinate"),
        "radius": ParamSpec(4.0, 1e-6, 1e6, "disk radius; must be at least "
                            "twice the path reach"),
    }, "isometry plus translation: nonexpansive, never contractive; fixed "
       "point and path by linear solve"),
    "damped-rational": (_build_damped_rational, {}, "|T'| <= 1/2 on the "
                        "box; interior fixed point 0, path identically 0"),
}


def list_maps() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def map_summary(name: str) -> str:
    """One paragraph per map for the CLI listing."""
    lines = [f"{name}: {make_map(name).notes}"]
    for key, spec in _REGISTRY[name][1].items():
        lines.append(f"  {key} = {spec.default!r}  "
                     f"(range [{spec.lo!r}, {spec.hi!r}]: {spec.doc})")
    return "\n".join(lines)


def make_map(name: str, **params: float) -> GalleryEntry:
    """Instantiate a gallery map by name.

    Unknown names raise UnknownMapError; unknown parameter keys and values
    outside their documented ranges raise ArgumentError.
    """
    if name not in _REGISTRY:
        known = ", ".join(_REGISTRY)
        raise UnknownMapError(f"unknown map {name!r}; known: {known}")
    builder, schema, notes = _REGISTRY[name]
    unknown = set(params) - set(schema)
    if unknown:
        raise ArgumentError(
            f"map {name!r} takes no parameter(s) {sorted(unknown)}; "
            f"schema: {sorted(schema)}")
    merged = {}
    for key, spec in schema.items():
        val = float(params.get(key, spec.default))
        if not spec.lo <= val <= spec.hi:
            raise ArgumentError(
                f"{name}.{key} = {val} outside [{spec.lo}, {spec.hi}]")
        merged[key] = val
    mapping, fixed_point, path, rows = builder(**merged)
    return GalleryEntry(name=name, mapping=mapping, params=merged,
                        known_fixed_point=fixed_point, known_path=path,
                        notes=notes, sampler=_with_point_form(rows))
