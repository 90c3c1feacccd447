"""Metric backends, contraction moduli, domains, and mapping instances.

Conventions
-----------
Points are 1-D float64 numpy arrays of shape ``(dimension,)``.  A modulus is
a function phi on [0, inf); a mapping T is contractive with modulus phi when

    dist(T x, T y) <= phi(dist(x, y)) * dist(x, y)

for all x, y in its domain.  A modulus is *admissible* (Rakotch's condition)
when it is non-increasing and phi(t) < 1 for every t > 0.  The constant
function 1 is kept as an explicit ``nonexpansive`` sentinel: such maps only
promise dist(T x, T y) <= dist(x, y), and every routine that needs genuine
contraction refuses them rather than silently looping.

All container types are frozen dataclasses, their array fields are marked
read-only, and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, DomainError

Point = np.ndarray


def as_point(x, dimension: int | None = None) -> Point:
    """Coerce scalars / sequences to a float64 point array.

    Raises ArgumentError if the result is not 1-D of the expected dimension.
    """
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ArgumentError(f"point must be 1-D, got shape {p.shape}")
    if dimension is not None and p.shape[0] != dimension:
        raise ArgumentError(
            f"point has dimension {p.shape[0]}, expected {dimension}")
    return p


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class Space:
    """R^dimension under a norm; distance(x, y) is norm(x - y).

    rowwise_distance maps two (m, dimension) arrays (or one array and a
    broadcastable single point) to the m distances between corresponding
    rows, each equal bit for bit to distance on that pair of rows; batch
    routines use it to avoid Python-level loops.
    """

    dimension: int
    distance: Callable[[Point, Point], float]
    rowwise_distance: Callable[[np.ndarray, np.ndarray], np.ndarray]
    norm: Callable[[Point], float]

    def __post_init__(self):
        if self.dimension < 1:
            raise ArgumentError("dimension must be >= 1")


def _euclidean_norm(v: Point) -> float:
    # v @ v then sqrt is measurably faster than np.linalg.norm on small vectors
    return math.sqrt(float(v @ v))


def _row_dot(rows: np.ndarray, v: Point) -> np.ndarray:
    """rows[j] @ v for every row of an (m, d) array.

    A stacked matmul gives the same float as the 1-D ``v @ row`` on every
    row; ``rows @ v``, np.sum(rows * v, 1) and einsum round differently
    and differ in the last bit on a sizeable share of rows once d >= 2.
    """
    return (rows[:, None, :] @ v[:, None])[:, 0, 0]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, equal bit for bit to _euclidean_norm."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _normed_space(dimension: int, norm: Callable[[Point], float],
                  row_norms: Callable[[np.ndarray], np.ndarray]) -> Space:
    """The space of a point norm and its row form, which must agree bit
    for bit on every row."""
    return Space(dimension=dimension,
                 distance=lambda x, y: norm(x - y),
                 rowwise_distance=lambda a, b: row_norms(a - b),
                 norm=norm)


def euclidean(dimension: int) -> Space:
    """Euclidean space of the given dimension."""
    return _normed_space(dimension, _euclidean_norm, _row_norms)


def max_norm(dimension: int) -> Space:
    """R^dimension under the max (sup) norm."""
    return _normed_space(dimension,
                         lambda v: float(np.max(np.abs(v))),
                         lambda rows: np.max(np.abs(rows), axis=1))


# ---------------------------------------------------------------------------
# moduli


@dataclass(frozen=True)
class Modulus:
    """A contraction modulus with its admissibility flag.

    kind is one of ``constant``, ``rational-decay``, ``piecewise-table``,
    ``nonexpansive``.  ``rakotch`` records whether the modulus satisfies
    phi(t) < 1 for all t > 0 (monotonicity is the constructor's obligation
    for the closed-form kinds; tables are checked separately by
    :func:`check_modulus_admissible`).
    """

    kind: str
    params: tuple[float, ...]
    rakotch: bool
    _fn: Callable[[float], float] = field(repr=False, compare=False)

    def __call__(self, t: float) -> float:
        if t < 0.0:
            raise ArgumentError(f"modulus argument must be >= 0, got {t}")
        return self._fn(t)


def constant_modulus(c: float) -> Modulus:
    """phi identically c, with 0 <= c <= 1.  Rakotch iff c < 1."""
    if not 0.0 <= c <= 1.0:
        raise ArgumentError(f"constant modulus must lie in [0, 1], got {c}")
    return Modulus(kind="constant", params=(c,), rakotch=c < 1.0,
                   _fn=lambda t: c)


def rational_decay_modulus(a: float = 1.0) -> Modulus:
    """phi(t) = 1 / (1 + a t) with a > 0.

    Non-increasing, phi(0) = 1, and phi(t) < 1 for t > 0, so admissible.
    """
    if not a > 0.0:
        raise ArgumentError(f"decay rate must be > 0, got {a}")
    return Modulus(kind="rational-decay", params=(a,), rakotch=True,
                   _fn=lambda t: 1.0 / (1.0 + a * t))


def table_modulus(knots: Sequence[float], values: Sequence[float]) -> Modulus:
    """Right-continuous step function: phi(t) = values[j] for
    t in [knots[j], knots[j+1]), constant at values[-1] beyond the last knot.

    knots must start at 0 and increase strictly; values must lie in [0, 1].
    The constructor does not require the table to be non-increasing; run
    :func:`check_modulus_admissible` to audit that.  The rakotch flag is set
    only when every plateau sits strictly below 1, since a step function
    takes each value on an interval of positive length.
    """
    kn = np.asarray(knots, dtype=float)
    va = np.asarray(values, dtype=float)
    if kn.ndim != 1 or va.ndim != 1 or kn.shape != va.shape or kn.size == 0:
        raise ArgumentError("knots and values must be equal-length 1-D")
    if kn[0] != 0.0:
        raise ArgumentError("first knot must be 0")
    if np.any(np.diff(kn) <= 0.0):
        raise ArgumentError("knots must increase strictly")
    if np.any(va < 0.0) or np.any(va > 1.0):
        raise ArgumentError("table values must lie in [0, 1]")
    kn = _frozen(kn)
    va = _frozen(va)

    def fn(t: float) -> float:
        j = int(np.searchsorted(kn, t, side="right")) - 1
        return float(va[j])

    return Modulus(kind="piecewise-table",
                   params=tuple(kn) + tuple(va),
                   rakotch=bool(np.all(va < 1.0)),
                   _fn=fn)


def nonexpansive_modulus() -> Modulus:
    """The sentinel phi identically 1: no contraction promised."""
    return Modulus(kind="nonexpansive", params=(), rakotch=False,
                   _fn=lambda t: 1.0)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Grid audit of a modulus.  Both violation lists empty iff the modulus
    looked admissible on the supplied grid."""

    grid: tuple[float, ...]
    monotonicity_violations: tuple[tuple[float, float], ...]
    not_below_one: tuple[float, ...]

    @property
    def admissible(self) -> bool:
        return not self.monotonicity_violations and not self.not_below_one


def check_modulus_admissible(m: Modulus,
                             grid: Sequence[float]) -> AdmissibilityReport:
    """Audit non-increase and phi(t) < 1 (t > 0) on a finite grid.

    Parameters
    ----------
    m : modulus to audit.
    grid : non-empty, sorted ascending, all entries >= 0.

    Returns an AdmissibilityReport listing adjacent grid pairs (s, t) with
    phi(s) < phi(t), and grid points t > 0 with phi(t) >= 1.  A pass is only
    as strong as the grid; the report keeps the grid for that reason.
    """
    g = [float(t) for t in grid]
    if not g:
        raise ArgumentError("grid must be non-empty")
    if any(t < 0.0 for t in g):
        raise ArgumentError("grid entries must be >= 0")
    if any(b < a for a, b in zip(g, g[1:])):
        raise ArgumentError("grid must be sorted ascending")
    vals = [m(t) for t in g]
    mono = tuple((a, b) for (a, b), (va, vb)
                 in zip(zip(g, g[1:]), zip(vals, vals[1:])) if vb > va)
    above = tuple(t for t, v in zip(g, vals) if t > 0.0 and v >= 1.0)
    return AdmissibilityReport(grid=tuple(g),
                               monotonicity_violations=mono,
                               not_below_one=above)


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class DomainSet:
    """A closed subset of the ambient space with membership predicates.

    boundary_distance returns the distance from an inside point to the
    complement; it is 0 on the boundary and for points outside.  project
    is the metric projection onto the set (all shipped kinds are convex,
    so projection is nonexpansive); given an (m, dimension) array it
    projects every row, each as the point alone.  nearest_boundary returns
    a closest boundary point, used to audit the boundary condition when a
    path crowds the edge of its domain; it raises ArgumentError where the
    set has no finite boundary.

    contains_rows is contains applied to every row of an (m, dimension)
    array at once, a bool array of length m.  It gives exactly what
    contains gives row by row, so batched experiments reproduce the
    one-point ones.
    """

    kind: str
    params: tuple[float, ...]
    contains: Callable[[Point], bool]
    interior_contains: Callable[[Point], bool]
    boundary_distance: Callable[[Point], float]
    contains_rows: Callable[[np.ndarray], np.ndarray]
    project: Callable[[np.ndarray], np.ndarray]
    nearest_boundary: Callable[[Point], Point]


def box(lo, hi) -> DomainSet:
    """Axis-aligned closed box [lo_1, hi_1] x ... x [lo_d, hi_d].

    Entries of lo may be -inf and entries of hi +inf; a fully infinite box
    is the whole space (empty boundary, infinite boundary distance).
    """
    lo_a = _frozen(np.atleast_1d(np.asarray(lo, dtype=float)))
    hi_a = _frozen(np.atleast_1d(np.asarray(hi, dtype=float)))
    if lo_a.shape != hi_a.shape or lo_a.ndim != 1:
        raise ArgumentError("box bounds must be 1-D of equal length")
    if np.any(lo_a >= hi_a):
        raise ArgumentError("box needs lo < hi in every coordinate")

    if lo_a.size == 1:
        # scalar fast path: perturbed-orbit experiments spend most of their
        # time in these membership calls
        lo_f, hi_f = float(lo_a[0]), float(hi_a[0])

        def contains(p: Point) -> bool:
            return lo_f <= p[0] <= hi_f

        def interior(p: Point) -> bool:
            return lo_f < p[0] < hi_f

        def bdist(p: Point) -> float:
            v = p[0]
            if v < lo_f or v > hi_f:
                return 0.0
            return float(min(v - lo_f, hi_f - v))
    else:
        def contains(p: Point) -> bool:
            return bool(np.all(p >= lo_a) and np.all(p <= hi_a))

        def interior(p: Point) -> bool:
            return bool(np.all(p > lo_a) and np.all(p < hi_a))

        def bdist(p: Point) -> float:
            if not contains(p):
                return 0.0
            return float(min(np.min(p - lo_a), np.min(hi_a - p)))

    def contains_rows(rows: np.ndarray) -> np.ndarray:
        return ((rows >= lo_a) & (rows <= hi_a)).all(axis=1)

    def project(p: np.ndarray) -> np.ndarray:
        return np.clip(p, lo_a, hi_a)

    def nearest_boundary(p: Point) -> Point:
        gaps_lo = p - lo_a
        gaps_hi = hi_a - p
        if not np.all(np.isfinite(np.minimum(gaps_lo, gaps_hi))):
            raise ArgumentError("box has no finite boundary face here")
        out = np.array(p)
        i = int(np.argmin(np.minimum(gaps_lo, gaps_hi)))
        out[i] = lo_a[i] if gaps_lo[i] <= gaps_hi[i] else hi_a[i]
        return out

    return DomainSet(kind="box", params=tuple(lo_a) + tuple(hi_a),
                     contains=contains, interior_contains=interior,
                     boundary_distance=bdist, contains_rows=contains_rows,
                     project=project, nearest_boundary=nearest_boundary)


def halfline(a: float) -> DomainSet:
    """The closed ray [a, inf) in one dimension."""
    return box([a], [math.inf])


def ball(center, radius: float) -> DomainSet:
    """Closed Euclidean ball of the given center and radius > 0."""
    c = _frozen(np.atleast_1d(np.asarray(center, dtype=float)))
    if not radius > 0.0:
        raise ArgumentError(f"ball radius must be > 0, got {radius}")

    def contains(p: Point) -> bool:
        return _euclidean_norm(p - c) <= radius

    def interior(p: Point) -> bool:
        return _euclidean_norm(p - c) < radius

    def bdist(p: Point) -> float:
        return max(0.0, radius - _euclidean_norm(p - c))

    def contains_rows(rows: np.ndarray) -> np.ndarray:
        return _row_norms(rows - c) <= radius

    def project(p: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(p)
        v = rows - c
        r = _row_norms(v)
        far = r > radius
        out = np.array(rows)
        # pull a hair inside the sphere so membership survives rounding
        out[far] = c + v[far] * ((radius / r[far]) * (1.0 - 1e-12))[:, None]
        return out.reshape(np.shape(p))

    def nearest_boundary(p: Point) -> Point:
        r = _euclidean_norm(p - c)
        if r == 0.0:
            out = np.array(c)
            out[0] += radius
            return out
        return c + (p - c) * (radius / r)

    return DomainSet(kind="ball", params=tuple(c) + (radius,),
                     contains=contains, interior_contains=interior,
                     boundary_distance=bdist, contains_rows=contains_rows,
                     project=project, nearest_boundary=nearest_boundary)


def halfspace(normal, offset: float) -> DomainSet:
    """Closed halfspace {x : <normal, x> <= offset} with normal != 0."""
    nv = _frozen(np.atleast_1d(np.asarray(normal, dtype=float)))
    nn = _euclidean_norm(nv)
    if nn == 0.0:
        raise ArgumentError("halfspace normal must be nonzero")

    def contains(p: Point) -> bool:
        return float(nv @ p) <= offset

    def interior(p: Point) -> bool:
        return float(nv @ p) < offset

    def bdist(p: Point) -> float:
        return max(0.0, (offset - float(nv @ p)) / nn)

    def contains_rows(rows: np.ndarray) -> np.ndarray:
        return _row_dot(rows, nv) <= offset

    def project(p: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(p)
        s = _row_dot(rows, nv)
        over = s > offset
        out = np.array(rows)
        # overshoot by 1e-12 relative so membership survives rounding
        out[over] = rows[over] - nv * (
            (s[over] - offset) * (1.0 + 1e-12) / (nn * nn))[:, None]
        return out.reshape(np.shape(p))

    def nearest_boundary(p: Point) -> Point:
        s = float(nv @ p)
        return p - nv * ((s - offset) / (nn * nn))

    return DomainSet(kind="halfspace", params=tuple(nv) + (offset,),
                     contains=contains, interior_contains=interior,
                     boundary_distance=bdist, contains_rows=contains_rows,
                     project=project, nearest_boundary=nearest_boundary)


# ---------------------------------------------------------------------------
# mappings


@dataclass(frozen=True)
class MappingInstance:
    """A self- or nonself-mapping bundled with its declared modulus, its
    domain, and the space whose metric all guarantees refer to.

    apply maps a point of shape (dimension,) to its image.  Given an
    (m, dimension) array it must return the (m, dimension) array of the
    images of its rows, each what apply gives for that row alone: the
    stability experiment steps all its trials as one such array and
    refuses an apply that does not map row by row.  Elementwise maps give
    the same bits either way; an affine map is written ``x @ A.T + b``
    rather than ``A @ x + b``, and its batched rows may differ from the
    single-row images in the last bits.

    The declared modulus is a claim, not a certificate; audit it with
    :func:`verify_contractive` on the pairs you care about.
    """

    apply: Callable[[Point], Point]
    declared_modulus: Modulus
    domain: DomainSet
    space: Space


@dataclass(frozen=True)
class PairCheck:
    x: Point
    y: Point
    lhs: float   # dist(T x, T y)
    rhs: float   # phi(dist(x, y)) * dist(x, y)
    passed: bool


@dataclass(frozen=True)
class ContractivityReport:
    """Outcome of auditing the declared modulus on finitely many pairs.

    A pass certifies nothing beyond the listed pairs; n_pairs and slack are
    recorded so the report says exactly what was checked.
    """

    checks: tuple[PairCheck, ...]
    slack: float

    @property
    def n_pairs(self) -> int:
        return len(self.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_contractive(T: MappingInstance,
                       pairs: Sequence[tuple[Point, Point]],
                       slack: float = 0.0) -> ContractivityReport:
    """Check dist(T x, T y) <= phi(dist(x, y)) * dist(x, y) + slack on the
    given pairs.

    Every point must lie in T's domain; the first offender is reported by
    value in a DomainError.  slack >= 0 absorbs roundoff when an exact
    inequality is expected to be tight.
    """
    if slack < 0.0:
        raise ArgumentError(f"slack must be >= 0, got {slack}")
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
        checks.append(PairCheck(x=_frozen(x), y=_frozen(y), lhs=lhs, rhs=rhs,
                                passed=lhs <= rhs + slack))
    return ContractivityReport(checks=tuple(checks), slack=slack)
