"""Metric backends, contraction moduli, domains, and mapping instances.

Conventions
-----------
Points are 1-D float64 numpy arrays of shape ``(dimension,)``.  A mapping
that sets ``float_points`` (the gallery's one-coordinate maps and
planar-rotation) also takes a point in its float form, the coordinate's
Python float in one dimension or the tuple of both coordinates' floats in
two (_float_form), in apply, domain.contains, space.distance and
space.norm, and the exact drives step such a map on that form; every
point they return or raise is still an array.
A modulus is a function phi on [0, inf); a mapping T is contractive with
modulus phi when

    dist(T x, T y) <= phi(dist(x, y)) * dist(x, y)

for all x, y in its domain.  A modulus is *admissible* (Rakotch's condition)
when it is non-increasing and phi(t) < 1 for every t > 0.  The constant
function 1 is kept as an explicit ``nonexpansive`` sentinel: such maps only
promise dist(T x, T y) <= dist(x, y), and every routine that needs genuine
contraction refuses them rather than silently looping.

All container types are frozen dataclasses, their array fields are marked
read-only, and every operation is pure.

Arithmetic: every float the library reports comes from binary64 + - * /
and sqrt, each rounded once, with sums added left to right and nothing
fused; no norm, distance or gallery map goes through BLAS.  Python floats
and numpy's float64 ufuncs round these operations alike, so a point, its
float form and a row of an (m, d) array get the same bits, on any CPU and
any OpenBLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, DomainError, NonFiniteError

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


def _frozen(a) -> np.ndarray:
    """A read-only float64 copy of a, a Python float as a (1,) point."""
    out = np.array(a, dtype=float, ndmin=1)
    out.setflags(write=False)
    return out


def _float_form(x: Point) -> float | tuple[float, float]:
    """The float form of a point of a float_points map (see
    MappingInstance): its coordinate's Python float in one dimension, the
    tuple of its two coordinates' floats in two."""
    return x.item() if x.shape[0] == 1 else tuple(x.tolist())


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class Space:
    """R^dimension under a norm; distance(x, y) is norm(x - y).

    kind names the norm, "euclidean" or "max" for the spaces euclidean
    and max_norm build; a euclidean space's forms take the float form of
    a point (see MappingInstance.float_points).
    rowwise_distance maps two (m, dimension) arrays (or one array and a
    broadcastable single point) to the m distances between corresponding
    rows, in a new array; batch routines use it to avoid Python-level
    loops.  Each distance equals distance on that pair of rows bit for bit.
    """

    kind: str
    dimension: int
    distance: Callable[[Point, Point], float]
    rowwise_distance: Callable[[np.ndarray, np.ndarray], np.ndarray]
    norm: Callable[[Point], float]

    def __post_init__(self):
        if self.dimension < 1:
            raise ArgumentError("dimension must be >= 1")


# a Euclidean norm below 2^-511 comes from a squared norm below the normal
# floats, which kept too few of its bits to be compared
_NORM_LO = 2.0 ** -511

# a / b, with no warning where it overflows or underflows
_quotient = np.errstate(over="ignore", under="ignore")(np.divide)

# a - b, inf past the largest float with no overflow warning; the decorator
# form of errstate costs about half as much per call as the with-block
_difference = np.errstate(over="ignore")(np.subtract)


def _euclidean_norm(v: Sequence[float]) -> float:
    """The Euclidean norm of the floats v (a point's .tolist(), or its
    float form): the root of the sum of their squares, added left to
    right.  Where that root is below _NORM_LO or inf, the square having
    underflowed or overflowed, a finite nonzero v is normed again over the
    power of two at its largest magnitude (exact, every entry then below 2
    and the largest at least 1) and scaled back, as _own_units renorms a
    row.  So the norm is inf only past the largest float or for a v that
    is not finite, and 0 only for zeros; _row_norms_safe gives every row
    the same bits."""
    s = 0.0
    for a in v:
        s += a * a
    r = math.sqrt(s)
    # zeros, the residual of a converged solve among them, need no renorm
    if _NORM_LO <= r < math.inf or not any(v) \
            or not all(map(math.isfinite, v)):
        return r
    unit = math.ldexp(1.0, math.frexp(max(map(abs, v)))[1] - 1)
    return _euclidean_norm([a / unit for a in v]) * unit


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The root of the left-to-right sum of squares of every row of an
    (m, d) array, column by column, as _euclidean_norm takes it before any
    renorm; a squared norm that overflows gives inf and one that underflows
    a subnormal or 0, with no warning."""
    with np.errstate(over="ignore", under="ignore"):
        acc = rows[:, 0] * rows[:, 0]
        for j in range(1, rows.shape[1]):
            acc += rows[:, j] * rows[:, j]
    return np.sqrt(acc)


def _own_units(rows: np.ndarray, c: Point | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, r, unit) for an (m, d) array rows and a finite point c (the
    origin when None): v * unit is rows - c, r is _row_norms(v) and unit
    is 1 or a power of two, with no warning.  A finite row is taken in
    its own units where its difference overflowed (it and c divided by
    the power of two at their largest magnitude: exact but for entries
    below the normal floats, and every entry of v below 4) or where that
    difference is nonzero and its norm below _NORM_LO or inf (divided as
    _euclidean_norm renorms a point); no row needs both."""
    v = rows if c is None else _difference(rows, c)
    r = _row_norms(v)
    unit = np.ones(len(r))
    off = ~((r >= _NORM_LO) & (r < math.inf))
    if off.any():
        off = np.flatnonzero(off)
        off = off[np.isfinite(rows[off]).all(axis=1) & v[off].any(axis=1)]
        top = np.abs(v[off]).max(axis=1)
        over = np.flatnonzero(top == math.inf)      # rows - c overflowed
        if over.size:
            top[over] = np.maximum(np.abs(rows[off[over]]).max(axis=1),
                                   np.abs(c).max())
        scale = np.ldexp(1.0, np.frexp(top)[1] - 1)[:, None]
        w = _quotient(v[off], scale)
        if over.size:
            w[over] = (_quotient(rows[off[over]], scale[over])
                       - _quotient(c, scale[over]))
        v = np.array(v) if v is rows else v
        v[off] = w
        unit[off] = scale[:, 0]
        r[off] = _row_norms(w)
    return v, r, unit


def _row_norms_safe(rows: np.ndarray) -> np.ndarray:
    """_euclidean_norm of every row of an (m, d) array, bit for bit: the
    r * unit of _own_units(rows), with no warning."""
    _, r, unit = _own_units(rows)
    with np.errstate(over="ignore", under="ignore"):
        return r * unit


def _normed_space(kind: str, dimension: int,
                  norm: Callable[[Point], float],
                  row_norms: Callable[[np.ndarray], np.ndarray],
                  distance: Callable[[Point, Point], float] | None = None
                  ) -> Space:
    """The space of a point norm and its row form, which must agree bit
    for bit on every row; distance, when given, must equal norm(x - y)
    bit for bit.  A difference past the largest float is inf, with no
    warning, as the point forms of euclidean(d) give it."""
    return Space(kind=kind, dimension=dimension,
                 distance=distance or (lambda x, y: norm(_difference(x, y))),
                 rowwise_distance=lambda a, b: row_norms(_difference(a, b)),
                 norm=norm)


def euclidean(dimension: int) -> Space:
    """Euclidean space of the given dimension.

    In one dimension distance and norm are the abs of the Python floats
    that .item() reads, and both also take a point given as that float
    (see MappingInstance.float_points); the row form is np.abs of the
    rows' one column.  abs(s) is also sqrt(s * s) rounded wherever s * s
    is a normal float (Boldo, "Stupid is as stupid does: taking the square
    root of the square of a floating-point number", ENTCS 317, 2015), and
    unlike it neither underflows to 0 nor overflows to inf.
    In higher dimensions every form is _euclidean_norm of the difference:
    the root of its left-to-right sum of squares, taken in its own units
    where the square underflowed or overflowed, so a distance is 0 only
    between equal points and inf only past the largest float.  In two
    dimensions norm and distance also take points given as tuples of
    floats (see MappingInstance.float_points); distance writes the sum out
    on them, the hottest leaf of the inner solves.
    """
    if dimension != 1:
        def norm(v: Point | tuple) -> float:
            return _euclidean_norm(v if v.__class__ is tuple else v.tolist())

        def distance(x: Point | tuple, y: Point | tuple) -> float:
            if x.__class__ is tuple:
                (x0, x1), (y0, y1) = x, y
                v0, v1 = x0 - y0, x1 - y1
                r = math.sqrt(v0 * v0 + v1 * v1)
                if _NORM_LO <= r < math.inf:
                    return r
                return _euclidean_norm((v0, v1))
            return _euclidean_norm([a - b for a, b
                                    in zip(x.tolist(), y.tolist())])

        return _normed_space("euclidean", dimension, norm, _row_norms_safe,
                             distance)

    def norm(v: Point | float) -> float:
        return abs(v if v.__class__ is float else v.item())

    def distance(x: Point | float, y: Point | float) -> float:
        return abs((x if x.__class__ is float else x.item())
                   - (y if y.__class__ is float else y.item()))

    def row_norms(rows: np.ndarray) -> np.ndarray:
        return np.abs(rows[:, 0])

    return _normed_space("euclidean", 1, norm, row_norms, distance)


def max_norm(dimension: int) -> Space:
    """R^dimension under the max (sup) norm."""
    return _normed_space("max", dimension,
                         lambda v: float(np.max(np.abs(v))),
                         lambda rows: np.max(np.abs(rows), axis=1))


# ---------------------------------------------------------------------------
# moduli


@dataclass(frozen=True)
class Modulus:
    """A contraction modulus with its admissibility flag.

    kind is one of ``constant``, ``rational-decay``, ``nonexpansive``.
    ``rakotch`` records whether the modulus satisfies phi(t) < 1 for all
    t > 0 (monotonicity is the constructor's obligation; audit a modulus
    built by hand with :func:`check_modulus_admissible`).

    Called on a number t it returns the Python float phi(t); called on a
    numpy array it returns the array of phi at every entry, each equal bit
    for bit to the scalar call, since one body written in float operations
    numpy rounds as Python does serves both.

    gap(t) is 1 - phi(t) for a number t, in a closed form per kind: the
    subtraction 1.0 - phi(t) cancels where phi(t) is near 1, which for
    rational-decay at small t loses most of the digits of the gap.

    Both refuse a negative or NaN argument with ArgumentError; +inf is
    taken (the rational-decay gap is 1 there).
    """

    kind: str
    params: tuple[float, ...]
    rakotch: bool
    _fn: Callable = field(repr=False, compare=False)
    _gap: Callable = field(repr=False, compare=False)

    def __call__(self, t):
        if not isinstance(t, np.ndarray) or t.ndim == 0:
            if not t >= 0.0:
                raise ArgumentError(f"modulus argument must be >= 0, got {t}")
            return float(self._fn(t))
        t = t.astype(float, copy=False)
        bad = ~(t >= 0.0)
        if bad.any():
            raise ArgumentError("modulus argument must be >= 0, got "
                                f"{t[bad][0]}")
        with np.errstate(over="ignore"):    # inf, as on a Python float
            v = self._fn(t)
        return v if np.shape(v) == t.shape else np.full(t.shape, v)

    def gap(self, t) -> float:
        """1 - phi(t) as a Python float, for a number t >= 0."""
        if not t >= 0.0:
            raise ArgumentError(f"modulus argument must be >= 0, got {t}")
        return float(self._gap(t))


def constant_modulus(c: float) -> Modulus:
    """phi identically c, with 0 <= c <= 1.  Rakotch iff c < 1."""
    if not 0.0 <= c <= 1.0:
        raise ArgumentError(f"constant modulus must lie in [0, 1], got {c}")
    return Modulus(kind="constant", params=(c,), rakotch=c < 1.0,
                   _fn=lambda t: c, _gap=lambda t: 1.0 - c)


def rational_decay_modulus(a: float = 1.0) -> Modulus:
    """phi(t) = 1 / (1 + a t) with a > 0.

    Non-increasing, phi(0) = 1, and phi(t) < 1 for t > 0, so admissible.
    Its gap a t / (1 + a t) is within 2 ulp of the exact value (three
    roundings, none of them a cancellation), and 1 once a t overflows.
    """
    if not a > 0.0:
        raise ArgumentError(f"decay rate must be > 0, got {a}")

    def gap(t):
        s = a * t
        return 1.0 if s == math.inf else s / (1.0 + s)

    return Modulus(kind="rational-decay", params=(a,), rakotch=True,
                   _fn=lambda t: 1.0 / (1.0 + a * t), _gap=gap)


def nonexpansive_modulus() -> Modulus:
    """The sentinel phi identically 1: no contraction promised."""
    return Modulus(kind="nonexpansive", params=(), rakotch=False,
                   _fn=lambda t: 1.0, _gap=lambda t: 0.0)


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
    grid : 1-D, non-empty, sorted ascending, all entries >= 0.

    Returns an AdmissibilityReport listing adjacent grid pairs (s, t) with
    phi(s) < phi(t), and grid points t > 0 with phi(t) >= 1, as Python
    floats.  A pass is only as strong as the grid; the report keeps it.
    """
    g = np.array(grid, dtype=float)
    if g.ndim != 1 or not g.size:
        raise ArgumentError(
            f"grid must be 1-D and non-empty, got shape {g.shape}")
    if not (g >= 0.0).all():
        raise ArgumentError("grid entries must be >= 0")
    if (g[1:] < g[:-1]).any():
        raise ArgumentError("grid must be sorted ascending")
    vals = m(g)
    up = np.flatnonzero(vals[1:] > vals[:-1])
    mono = tuple(zip(g[up].tolist(), g[up + 1].tolist()))
    above = tuple(g[(g > 0.0) & (vals >= 1.0)].tolist())
    return AdmissibilityReport(tuple(g.tolist()), mono, above)


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class DomainSet:
    """A closed subset of the ambient space with membership predicates.

    dimension is that of the points; a MappingInstance refuses a domain
    whose dimension is not its space's.

    boundary_distance returns the distance from an inside point to the
    complement; it is 0 on the boundary and for points outside.  project
    is the metric projection onto the set (all shipped kinds are convex,
    so projection is nonexpansive); given an (m, dimension) array it
    projects every row, each as the point alone.  It returns a new array
    and does not write into its argument, and a point or row that
    contains accepts comes back unchanged, bit for bit (a signed zero
    keeps its sign): on every step where a perturbed point is outside,
    the stability experiment projects its whole batch, exited rows parked
    at the fixed point, so a custom domain must keep both.  The shipped
    kinds keep the second by moving only the points that contains_rows
    refuses: box compares coordinates with its bounds, and every form of
    ball compares the one rounded ||p - c|| with its radius.
    nearest_boundary returns a closest boundary point, used to audit the
    boundary condition when a path crowds the edge of its domain; it
    raises ArgumentError where the set has no finite boundary.

    contains_rows is contains applied to every row of an (m, dimension)
    array at once, a bool array of length m.  It gives exactly what
    contains gives row by row, so batched experiments reproduce the
    one-point ones.
    """

    kind: str
    params: tuple[float, ...]
    dimension: int
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

    In one dimension contains and boundary_distance compare the Python
    float that .item() reads (contains also takes a point given as that
    float, see MappingInstance.float_points), and contains_rows
    compares the rows' one column, both against the bounds as Python
    floats; interior_contains, run once per path, has one form for
    every dimension.  project is np.minimum(hi, np.maximum(lo, p)): the
    bits of np.clip(p, lo, hi), NaN included, without its Python wrapper,
    except that a coordinate that is a zero at a zero bound of the other
    sign keeps its own sign, so a point of the box comes back unchanged;
    np.clip gives it the bound's sign in some of its loops (a single
    point among them) and not in others.  The order of the arguments
    matters: np.maximum(p, lo) turns a -0.0 at a 0 bound into 0.0.

    Where every hi is +inf, the halfline forms are chosen when the box is
    built: project is its np.maximum alone, and in one dimension (a
    halfline) contains and contains_rows compare against lo only, which
    NaN fails already.
    """
    lo_a = _frozen(np.atleast_1d(np.asarray(lo, dtype=float)))
    hi_a = _frozen(np.atleast_1d(np.asarray(hi, dtype=float)))
    if lo_a.shape != hi_a.shape or lo_a.ndim != 1:
        raise ArgumentError("box bounds must be 1-D of equal length")
    for name, bound in (("lo", lo_a), ("hi", hi_a)):
        if np.isnan(bound).any():
            raise ArgumentError(f"box {name} must not be NaN, got {bound}")
    if np.any(lo_a >= hi_a):
        raise ArgumentError("box needs lo < hi in every coordinate")
    lo_h, hi_h = lo_a * 0.5, hi_a * 0.5

    if lo_a.size == 1:
        # 1-D point forms on the coordinate's float: contains also takes a
        # Python float, for the float drive of float_points maps
        lo_f, hi_f = float(lo_a[0]), float(hi_a[0])

        if hi_f == math.inf:
            # a halfline tests lo alone, 58.0 ns a call, not 70.7 (timeit,
            # 2-vCPU VM): v <= inf holds for every float v but NaN, ±0.0
            # and ±inf included, and lo_f <= v refuses NaN already
            def contains(p: Point | float) -> bool:
                return lo_f <= (p if p.__class__ is float else p.item())

            def contains_rows(rows: np.ndarray) -> np.ndarray:
                return rows[:, 0] >= lo_f
        else:
            def contains(p: Point | float) -> bool:
                return lo_f <= (p if p.__class__ is float
                                else p.item()) <= hi_f

            def contains_rows(rows: np.ndarray) -> np.ndarray:
                v = rows[:, 0]
                return (v >= lo_f) & (v <= hi_f)

        def bdist(p: Point) -> float:
            v = p.item()
            if lo_f <= v <= hi_f:      # NaN fails
                # an infinite v lies at an infinite bound of its own sign,
                # which is no face, so its gaps are inf; the NaN of
                # inf - inf is one of them, and min keeps it only when it
                # comes first (v = lo_f = -inf)
                g = min(v - lo_f, hi_f - v)
                return g if g == g else math.inf
            return 0.0
    else:
        def contains(p: Point) -> bool:
            return bool(np.all(p >= lo_a) and np.all(p <= hi_a))

        def bdist(p: Point) -> float:
            if not contains(p):
                return 0.0
            # a gap past the largest float is inf, and so is the gap of an
            # infinite coordinate at an infinite bound of its own sign, no
            # face: np.fmin turns its inf - inf, a NaN that np.min would
            # keep, into inf; neither warns
            with np.errstate(over="ignore", invalid="ignore"):
                return float(min(np.fmin(p - lo_a, math.inf).min(),
                                 np.fmin(hi_a - p, math.inf).min()))

        def contains_rows(rows: np.ndarray) -> np.ndarray:
            return ((rows >= lo_a) & (rows <= hi_a)).all(axis=1)

    def interior(p: Point) -> bool:
        return bool(np.all(p > lo_a) and np.all(p < hi_a))

    if (hi_a == math.inf).all():
        # np.minimum(inf, q) is q, NaN and signed zeros included
        def project(p: np.ndarray) -> np.ndarray:
            return np.maximum(lo_a, p)
    else:
        def project(p: np.ndarray) -> np.ndarray:
            return np.minimum(hi_a, np.maximum(lo_a, p))

    def nearest_boundary(p: Point) -> Point:
        # the gaps in half units, where p - lo cannot overflow; halving is
        # exact, so they order as the gaps do but among subnormal entries.
        # A coordinate with both bounds infinite has no face, so its gap
        # is inf; NaN (p not finite) comes out of argmin first
        half = p * 0.5
        gaps_lo = half - lo_h
        gaps_hi = hi_h - half
        gaps = np.minimum(gaps_lo, gaps_hi)
        i = int(np.argmin(gaps))
        if not gaps[i] < math.inf:
            raise ArgumentError("box has no finite boundary face here")
        out = np.array(p)
        out[i] = lo_a[i] if gaps_lo[i] <= gaps_hi[i] else hi_a[i]
        return out

    return DomainSet(kind="box", params=tuple(lo_a) + tuple(hi_a),
                     dimension=lo_a.size,
                     contains=contains, interior_contains=interior,
                     boundary_distance=bdist, contains_rows=contains_rows,
                     project=project, nearest_boundary=nearest_boundary)


def halfline(a: float) -> DomainSet:
    """The closed ray [a, inf) in one dimension."""
    return box([a], [math.inf])


def ball(center, radius: float) -> DomainSet:
    """Closed Euclidean ball of the given center and radius > 0.

    Every form decides on one value, ||p - c|| as euclidean(d)'s distance
    and rowwise_distance from the center round it, with the same bits:
    contains, contains_rows, interior_contains, boundary_distance and
    project's test for a point outside.  So project returns every member
    unchanged.  In two dimensions contains and boundary_distance also
    take a point given as a tuple of floats (see
    MappingInstance.float_points); contains writes the norm out on them.

    project (a hair inside the sphere) and nearest_boundary take p to
    c + v (radius / r), for v = p - c and its norm r in their own units
    (_own_units); where radius / r is not a normal float, as for a point
    far outside a tiny ball or near the center of a large one, they take
    the direction first, c + (v / r) radius, with no warning.
    """
    c = _frozen(np.atleast_1d(np.asarray(center, dtype=float)))
    if not np.isfinite(c).all():
        raise ArgumentError(f"ball center must be finite, got {c}")
    if not radius > 0.0:
        raise ArgumentError(f"ball radius must be > 0, got {radius}")
    centred = not c.any()
    c_floats = tuple(c.tolist())
    space = euclidean(c.size)
    distance, rowwise_distance = space.distance, space.rowwise_distance

    if centred:
        # p - c is p but for the signs of zeros, whose squares are the same
        norm = space.norm
    else:
        def norm(p: Point | tuple) -> float:
            return distance(p, c_floats if p.__class__ is tuple else c)

    def contains(p: Point | tuple) -> bool:
        if p.__class__ is tuple:
            # the hottest leaf of the inner solves, written out on the
            # floats as euclidean(2)'s distance writes it
            v0, v1 = p
            if not centred:
                c0, c1 = c_floats
                v0, v1 = v0 - c0, v1 - c1
            r = math.sqrt(v0 * v0 + v1 * v1)
            if _NORM_LO <= r < math.inf:
                return r <= radius
        return norm(p) <= radius

    def interior(p: Point) -> bool:
        return norm(p) < radius

    def bdist(p: Point | tuple) -> float:
        return max(0.0, radius - norm(p))

    def contains_rows(rows: np.ndarray) -> np.ndarray:
        return rowwise_distance(rows, c) <= radius

    @np.errstate(over="ignore", under="ignore")
    def on_sphere(v: np.ndarray, r: np.ndarray, shrink: float) -> np.ndarray:
        """c + v (radius / r) shrink for rows v of norms r > 0 in any
        units, or c + (v / r) (radius shrink) where radius / r is not a
        normal float (from 2^-1022 on)."""
        s = radius / r
        odd = ~((s >= 2.0 ** -1022) & (s < math.inf))
        s[odd] = 0.0
        out = v * (s * shrink)[:, None]
        out[odd] = v[odd] / r[odd, None] * (radius * shrink)
        return c + out

    def project(p: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(p)
        out = np.array(rows)
        # NaN rows are not outside, and come back unchanged
        far = np.flatnonzero(rowwise_distance(rows, c) > radius)
        v, r, _ = _own_units(rows[far], c)
        # pull a hair inside the sphere so membership survives rounding;
        # where c + v s still rounds outside (a center far from the origin
        # against the radius) pull 16 times further, at worst to c itself
        shave = 1e-12
        while far.size:
            out[far] = on_sphere(v, r, 1.0 - shave)
            still = rowwise_distance(out[far], c) > radius
            far, v, r = far[still], v[still], r[still]
            shave = min(16.0 * shave, 1.0)
        return out.reshape(np.shape(p))

    def nearest_boundary(p: Point) -> Point:
        v, r, _ = _own_units(np.atleast_2d(p), c)
        if r[0] == 0.0:
            out = np.array(c)
            out[0] += radius
            return out
        return on_sphere(v, r, 1.0)[0]

    return DomainSet(kind="ball", params=tuple(c) + (radius,),
                     dimension=c.size,
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
    stability experiment steps all its trials as one such array,
    orbit_inexact its one orbit as a (1, dimension) array,
    verify_contractive maps all its pair points as one, and all three
    refuse an apply that does not map row by row.  Elementwise maps give
    the same bits either way.  An affine map is written on rows, x A^T + b
    rather than A x + b; taken as a matrix product, its batched rows may
    differ from the single-row images in the last bits.

    float_points is the promise of a map that apply, domain.contains,
    space.distance and space.norm also take a point in its float form
    (_float_form): in one dimension the coordinate's Python float, apply
    then returning the image's float; in two dimensions the tuple of the
    coordinates' floats, apply then returning the image's tuple.
    solve_fixed_point, orbit_exact and solve_at_t then step the map on
    the float form, through those callables; the path drives take ||T x||
    on it, and a path point's domain.boundary_distance on its array; what
    they return or raise holds point arrays, with the bits of the array
    steps; orbit_inexact steps every map on rows.  The gallery's
    one-coordinate maps (gallery._one_coordinate) and planar-rotation
    promise it.  It is refused with ArgumentError on any domain but a
    one-coordinate box (a halfline among them) or a two-coordinate ball,
    and in any space but a euclidean one, the ones whose point forms take
    the float form; so a tuple point is always a euclidean(2) point.

    The declared modulus is a claim, not a certificate; audit it with
    :func:`verify_contractive` on the pairs you care about.
    """

    apply: Callable[[Point], Point]
    declared_modulus: Modulus
    domain: DomainSet
    space: Space
    float_points: bool = False

    def __post_init__(self):
        if self.domain.dimension != self.space.dimension:
            raise ArgumentError(
                f"the {self.domain.kind} domain has dimension "
                f"{self.domain.dimension} but the space has dimension "
                f"{self.space.dimension}")
        d = self.domain
        if self.float_points and (d.kind, d.dimension) not in (
                ("box", 1), ("ball", 2)):
            raise ArgumentError(
                f"float_points needs a one-coordinate box or a "
                f"two-coordinate ball; the {d.kind} domain has dimension "
                f"{d.dimension}")
        if self.float_points and self.space.kind != "euclidean":
            raise ArgumentError(
                f"float_points needs a euclidean space; the "
                f"{self.space.kind} space's forms take no float form")


# a batched apply is checked against single-row applies on this many of
# its first rows: enough to catch a matrix product of the wrong side
# (R x rather than x R^T), which garbles every row, for the cost of a
# few point applies however many rows are stepped
_ROWWISE_HEAD = 8

_NOT_ROWWISE = ("apply does not map an (m, d) array row by row, so the "
                "rows cannot be mapped together; see MappingInstance")


def _apply_rows(T: MappingInstance, rows: np.ndarray) -> np.ndarray:
    """T.apply on the (m, d) array rows, refused with ArgumentError unless
    it maps them row by row: the images must have the rows' shape, and the
    first _ROWWISE_HEAD of them must equal single-row applies up to
    roundoff (1e-9 relative, since a batched matrix product rounds
    differently).  An apply that numpy cannot broadcast over the rows is
    refused the same way: on a ValueError of the batched apply the head's
    rows are applied one by one, and ArgumentError is raised when they all
    succeed.  Any other failure of the map, a LinAlgError or an error of a
    single-row apply included, surfaces unchanged."""
    head = rows[:_ROWWISE_HEAD]
    try:
        images = T.apply(rows)
    except ValueError as exc:
        if isinstance(exc, np.linalg.LinAlgError):
            raise
        for r in head:
            T.apply(r)
        raise ArgumentError(_NOT_ROWWISE) from exc
    try:
        single = np.array([T.apply(r) for r in head]).reshape(head.shape)
    except ValueError as exc:   # single-row images of the wrong shape
        raise ArgumentError(_NOT_ROWWISE) from exc
    atol = 1e-9 * np.max(np.abs(head), axis=1, keepdims=True)
    if np.shape(images) != rows.shape or not np.all(
            np.isclose(images[:len(head)], single, rtol=1e-9, atol=atol,
                       equal_nan=True)):
        raise ArgumentError(_NOT_ROWWISE)
    return images


def _non_finite(y, x) -> NonFiniteError:
    """The error for a point x (a Python float on the float drive) that
    the map sent to the non-finite y; both are reported as points."""
    y, x = _frozen(y), _frozen(x)
    return NonFiniteError(f"the map sent {x!r} to the non-finite {y!r}",
                          point=y, last_inside=x)


def _refuse_non_finite(images: np.ndarray, sources: np.ndarray) -> None:
    """Raise NonFiniteError for the first row j of the (m, d) images of
    sources with a NaN or an inf, sought only once the whole array fails."""
    finite = np.isfinite(images)
    if not finite.all():
        j = int(finite.all(axis=1).argmin())
        raise _non_finite(images[j], sources[j])


@dataclass(frozen=True)
class ContractivityReport:
    """Outcome of auditing the declared modulus on finitely many pairs.

    Row j of the read-only arrays x, y (m, dimension) is pair j; lhs[j] is
    dist(T x_j, T y_j), rhs[j] is phi(dist(x_j, y_j)) * dist(x_j, y_j) and
    verdicts[j] is lhs[j] <= rhs[j] + slack.  A pass certifies nothing
    beyond the listed pairs; n_pairs and slack are recorded so the report
    says exactly what was checked.
    """

    x: np.ndarray
    y: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    verdicts: np.ndarray
    slack: float

    @property
    def n_pairs(self) -> int:
        return len(self.verdicts)

    @property
    def passed(self) -> bool:
        return bool(self.verdicts.all())


def verify_contractive(T: MappingInstance, pairs,
                       slack: float = 0.0) -> ContractivityReport:
    """Check dist(T x, T y) <= phi(dist(x, y)) * dist(x, y) + slack on the
    given pairs.

    pairs is anything np.asarray turns into an (m, 2, dimension) array,
    such as a list of (x, y) tuples; pair j is (pairs[j][0], pairs[j][1]).
    In dimension 1 an (m, 2) array of scalar pairs is also taken.  Another
    shape raises ArgumentError, and so does a NaN or infinite pair point,
    or a pair whose separation is past the largest float, where
    phi(t) t has no finite value.  Every point must lie in T's domain;
    the first offender in the order x_0, y_0, x_1, y_1, ... is reported
    by value in a DomainError.
    A finite slack >= 0 absorbs roundoff when an exact inequality is
    expected to be tight; an infinite one would pass any map, and is
    refused.

    All 2m points go through one T.apply, so apply must map an
    (m, dimension) array row by row (see MappingInstance; checked on the
    first rows, else ArgumentError), and a NaN or infinite image raises
    NonFiniteError.  For an elementwise map, planar-rotation's written-out
    product among them, every value equals the one-pair-at-a-time check
    bit for bit.  For an affine map taken as the matrix product x A^T + b
    the batched images, hence lhs, may differ from the single-point ones
    in the last bits; rhs never does.
    """
    if not 0.0 <= slack < math.inf:
        raise ArgumentError(f"slack must be finite and >= 0, got {slack}")
    d = T.space.dimension
    try:
        xy = np.asarray(pairs, dtype=float)
    except ValueError as exc:
        raise ArgumentError(f"pairs must form an (m, 2, {d}) array: "
                            f"{exc}") from exc
    if xy.size == 0:
        xy = xy.reshape(0, 2, d)
    elif d == 1 and xy.ndim == 2 and xy.shape[1] == 2:
        xy = xy[..., None]      # scalar pairs (x, y)
    if xy.ndim != 3 or xy.shape[1:] != (2, d):
        raise ArgumentError(f"pairs must form an (m, 2, {d}) array, got "
                            f"shape {xy.shape}")
    pts = xy.reshape(-1, d)     # x_0, y_0, x_1, y_1, ...
    finite = np.isfinite(pts)
    if not finite.all():
        raise ArgumentError(f"pair point {pts[finite.all(axis=1).argmin()]!r}"
                            " is not finite")
    inside = T.domain.contains_rows(pts)
    if not inside.all():
        p = _frozen(pts[inside.argmin()])
        raise DomainError(f"pair point {p!r} lies outside the domain",
                          point=p)
    # with no pairs the map is never called, so a point-only apply works
    images = _apply_rows(T, pts) if len(pts) else pts
    _refuse_non_finite(images, pts)
    images = images.reshape(-1, 2, d)
    sep = T.space.rowwise_distance(xy[:, 0], xy[:, 1])
    # phi(inf) * inf is no bound: NaN for a decaying phi, inf for another
    finite = np.isfinite(sep)
    if not finite.all():
        j = int(finite.argmin())
        raise ArgumentError(f"pair ({_frozen(xy[j, 0])!r}, "
                            f"{_frozen(xy[j, 1])!r}) is farther apart than "
                            "the largest float")
    lhs = T.space.rowwise_distance(images[:, 0], images[:, 1])
    rhs = T.declared_modulus(sep) * sep
    verdicts = lhs <= rhs + slack
    for fresh in (lhs, rhs, verdicts):
        fresh.setflags(write=False)
    return ContractivityReport(_frozen(xy[:, 0]), _frozen(xy[:, 1]), lhs,
                               rhs, verdicts, slack)
