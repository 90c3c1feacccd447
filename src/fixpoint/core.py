"""Metric backends, contraction moduli, domains, and mapping instances.

Conventions
-----------
Points are 1-D float64 numpy arrays of shape ``(dimension,)``.  A mapping
that sets ``float_points`` (the gallery's one-coordinate maps and
planar-rotation) also takes a point in its float form, the coordinate's
Python float in one dimension or the tuple of both coordinates' floats in
two (_float_form), in apply, domain.contains, domain.boundary_distance,
space.distance and space.norm (and, in one dimension, domain.project),
and the drives step such a map on that form; every point they return or
raise is still an array.
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


# Veltkamp's splitting constant 2^27 + 1, and the squares of the magnitudes
# between which the products of the halves of two split floats are exact,
# 2^-480 and 2^480: no split overflows, and no product loses a bit below
# the subnormals
_SPLITTER = 134217729.0
_SPLIT_LO2 = 2.0 ** -960
_SPLIT_HI2 = 2.0 ** 960


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c on Python floats, rounded once as a fused multiply-add
    rounds it (math.fma comes only with Python 3.13).

    This is the 2-term dot product of the float forms: the OpenBLAS kernels
    that numpy ships with FMA round x.dot(x) for a (2,) point as
    fma(x1, x1, x0 * x0), and coordinate j of x.dot(R^T) as
    fma(x0, R[j, 0], x1 * R[j, 1]).  Veltkamp's split writes a = ah + al
    and b = bh + bl in halves of at most 26 bits, whose four products are
    exact, so they add up to a * b exactly (Dekker's two-product, Numer.
    Math. 18, 1971, folds them into p + e; math.fsum needs no fold), and
    fsum rounds their sum with c once.  Where a or b is zero, NaN,
    infinite or of magnitude outside (2^-480, 2^480), where the split is
    not exact or fsum would give +0.0 for a -0.0 due, a zero, NaN or
    infinite product is exact in float arithmetic, so a * b + c rounds
    once; a finite a and b leave a NaN or infinite c as it is; otherwise
    the exact rational value is rounded, to an infinity of its sign past
    the largest float.
    """
    # a square is the cheaper test of a magnitude: abs is a call; both
    # bounds are exact squares, so rounding cannot move a square across
    if _SPLIT_LO2 < a * a < _SPLIT_HI2 and _SPLIT_LO2 < b * b < _SPLIT_HI2:
        s = _SPLITTER * a
        ah = s - (s - a)
        s = _SPLITTER * b
        bh = s - (s - b)
        al, bl = a - ah, b - bh
        # |a * b| < 2^960 lies far below half an ulp of the largest float,
        # 2^970, so fsum cannot overflow
        return math.fsum((ah * bh, ah * bl, al * bh, al * bl, c))
    if not (math.isfinite(a) and math.isfinite(b)) or not a or not b:
        return a * b + c
    if not math.isfinite(c):
        return c
    # imported here, not at the top: fractions pulls in decimal, which
    # every process would otherwise load for a case this rare
    from fractions import Fraction

    v = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _halves(v: float) -> tuple[float, float] | None:
    """Veltkamp's halves (h, l) of v, h + l == v, as _fma splits v: for a
    factor that never changes, split once at build time and use the
    halves as _fma's exact products do (see gallery's planar-rotation).
    None where _fma would not split v."""
    if not _SPLIT_LO2 < v * v < _SPLIT_HI2:
        return None
    s = _SPLITTER * v
    h = s - (s - v)
    return h, v - h


def _fsq(v: float, c: float) -> float:
    """_fma(v, v, c), bit for bit, with v split once: the exact pieces of
    v * v are h h, h l, h l and l l."""
    if _SPLIT_LO2 < v * v < _SPLIT_HI2:
        s = _SPLITTER * v
        h = s - (s - v)
        l = v - h
        hl = h * l
        return math.fsum((h * h, hl, hl, l * l, c))
    return _fma(v, v, c)


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class Space:
    """R^dimension under a norm; distance(x, y) is norm(x - y).

    rowwise_distance maps two (m, dimension) arrays (or one array and a
    broadcastable single point) to the m distances between corresponding
    rows; batch routines use it to avoid Python-level loops.  Each
    distance equals distance on that pair of rows bit for bit when the
    rows have a positive stride, as every array the library passes does;
    on a view with a negative stride the last bit can differ.
    """

    dimension: int
    distance: Callable[[Point, Point], float]
    rowwise_distance: Callable[[np.ndarray, np.ndarray], np.ndarray]
    norm: Callable[[Point], float]

    def __post_init__(self):
        if self.dimension < 1:
            raise ArgumentError("dimension must be >= 1")


def _euclidean_norm(v: Point) -> float:
    # ndarray.dot reaches the same BLAS ddot as v @ v, so the bits are the
    # same, at about half the dispatch cost of the matmul ufunc on a point;
    # a view with a negative stride gets the bits of its contiguous copy,
    # which the matmul ufunc's own loop for it did not give
    return math.sqrt(v.dot(v))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, equal bit for bit to _euclidean_norm
    on rows with a positive stride (a negative one sends the stacked
    matmul to its own loop, which rounds differently); the library only
    passes it fresh arrays."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


# a Euclidean norm below 2^-511 comes from a squared norm below the normal
# floats, which kept too few of its bits to be compared
_NORM_LO = 2.0 ** -511


def _own_units(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_row_norms(rows) for an (m, d) array, with each finite row whose
    squared norm overflowed, or underflowed (a nonzero row whose norm is
    below _NORM_LO), normed again in its own units, divided by the power
    of two at its largest magnitude (exact, and it leaves every entry
    below 2 in magnitude and the largest at least 1); and the unit of
    every row, 1 or that power.  The overflow it handles raises no
    warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = _row_norms(rows)
    unit = np.ones(len(r))
    off = ~((r >= _NORM_LO) & (r < math.inf))
    if off.any():
        big = np.flatnonzero(off)
        rest = rows[big]
        big = big[np.isfinite(rest).all(axis=1) & rest.any(axis=1)]
        top = np.abs(rows[big]).max(axis=1)
        scale = np.ldexp(1.0, np.frexp(top)[1] - 1)
        unit[big] = scale
        r[big] = _row_norms(rows[big] / scale[:, None])
    return r, unit


def _row_norms_safe(rows: np.ndarray) -> np.ndarray:
    """_row_norms, but a finite row whose squared norm overflowed or
    underflowed is normed in its own units (see _own_units) and scaled
    back, so the norm is inf only past the largest float or for a row
    that is not finite, and 0 only for a row of zeros."""
    r, unit = _own_units(rows)
    with np.errstate(over="ignore"):
        return r * unit


def _normed_space(dimension: int, norm: Callable[[Point], float],
                  row_norms: Callable[[np.ndarray], np.ndarray],
                  distance: Callable[[Point, Point], float] | None = None
                  ) -> Space:
    """The space of a point norm and its row form, which must agree bit
    for bit on every row; distance, when given, must equal norm(x - y)
    bit for bit."""
    return Space(dimension=dimension,
                 distance=distance or (lambda x, y: norm(x - y)),
                 rowwise_distance=lambda a, b: row_norms(a - b),
                 norm=norm)


def euclidean(dimension: int) -> Space:
    """Euclidean space of the given dimension.

    In one dimension distance and norm work on the Python floats that
    .item() reads, and both also take a point given as that float
    (see MappingInstance.float_points): s * s then sqrt is the same IEEE
    product and root as v @ v then sqrt on a 1-element array, so they
    equal the array form bit for bit at a fraction of its cost (the space
    counterpart of box's 1-D fast path).  The row form is the same square
    and root on the rows' one column, half the cost of _row_norms' stacked
    matmul, whose 1 x 1 product is that square.
    In higher dimensions distance is _euclidean_norm written out on
    x - y, which saves the call through norm on the hottest leaf.  In two
    dimensions norm and distance also take points given as tuples of
    floats (see MappingInstance.float_points), whose squared norm is the
    fused dot product that the default OpenBLAS kernel gives on the
    array, _fsq(v1, v0 * v0): _fma(v1, v1, v0 * v0) with v1 split once.
    """
    if dimension != 1:
        def norm(v: Point | tuple) -> float:
            if v.__class__ is tuple:
                v0, v1 = v
                return math.sqrt(_fsq(v1, v0 * v0))
            return _euclidean_norm(v)

        def distance(x: Point | tuple, y: Point | tuple) -> float:
            if x.__class__ is tuple:
                (x0, x1), (y0, y1) = x, y
                v0, v1 = x0 - y0, x1 - y1
                return math.sqrt(_fsq(v1, v0 * v0))
            v = x - y
            return math.sqrt(v.dot(v))

        return _normed_space(dimension, norm, _row_norms, distance)

    def norm(v: Point | float) -> float:
        s = v if v.__class__ is float else v.item()
        return math.sqrt(s * s)

    def distance(x: Point | float, y: Point | float) -> float:
        s = ((x if x.__class__ is float else x.item())
             - (y if y.__class__ is float else y.item()))
        return math.sqrt(s * s)

    def row_norms(rows: np.ndarray) -> np.ndarray:
        v = rows[:, 0]
        return np.sqrt(v * v)

    return _normed_space(1, norm, row_norms, distance)


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
    grid : non-empty, sorted ascending, all entries >= 0.

    Returns an AdmissibilityReport listing adjacent grid pairs (s, t) with
    phi(s) < phi(t), and grid points t > 0 with phi(t) >= 1.  A pass is only
    as strong as the grid; the report keeps the grid for that reason.
    """
    g = [float(t) for t in grid]
    if not g:
        raise ArgumentError("grid must be non-empty")
    if not all(t >= 0.0 for t in g):
        raise ArgumentError("grid entries must be >= 0")
    if any(b < a for a, b in zip(g, g[1:])):
        raise ArgumentError("grid must be sorted ascending")
    vals = m(np.array(g)).tolist()
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
    at the fixed point, so a custom domain must keep both.
    nearest_boundary returns a closest boundary point, used to audit the
    boundary condition when a path crowds the edge of its domain; it
    raises ArgumentError where the set has no finite boundary.

    contains_rows is contains applied to every row of an (m, dimension)
    array at once, a bool array of length m.  On rows with a positive
    stride, which is what the library passes, it gives exactly what
    contains gives row by row, so batched experiments reproduce the
    one-point ones; on a view with a negative stride a norm, and so a
    verdict at the boundary, can differ in the last bit.
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

    In one dimension the point predicates compare the Python float that
    .item() reads (contains and boundary_distance also take a point given
    as that float, see MappingInstance.float_points), and contains_rows
    compares the rows' one column, both against the bounds as Python
    floats (below an infinite hi only against lo, which NaN fails
    already).  project is
    np.minimum(hi, np.maximum(lo, p)): the bits of np.clip(p, lo, hi), NaN
    included, without its Python wrapper, except that a coordinate that
    is a zero at a zero bound of the other sign keeps its own sign, so a
    point of the box comes back unchanged; np.clip gives it the bound's
    sign in some of its loops (a single point among them) and not in
    others.  The order of the arguments matters: np.maximum(p, lo) turns
    a -0.0 at a 0 bound into 0.0.
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

        def contains(p: Point | float) -> bool:
            return lo_f <= (p if p.__class__ is float else p.item()) <= hi_f

        def interior(p: Point) -> bool:
            return lo_f < p.item() < hi_f

        def bdist(p: Point | float) -> float:
            v = p if p.__class__ is float else p.item()
            if v < lo_f or v > hi_f:
                return 0.0
            return min(v - lo_f, hi_f - v)

        def contains_rows(rows: np.ndarray) -> np.ndarray:
            v = rows[:, 0]
            if hi_f == math.inf:    # NaN fails v >= lo_f already
                return v >= lo_f
            return (v >= lo_f) & (v <= hi_f)
    else:
        def contains(p: Point) -> bool:
            return bool(np.all(p >= lo_a) and np.all(p <= hi_a))

        def interior(p: Point) -> bool:
            return bool(np.all(p > lo_a) and np.all(p < hi_a))

        def bdist(p: Point) -> float:
            if not contains(p):
                return 0.0
            # a gap past the largest float is inf, with no warning
            with np.errstate(over="ignore"):
                return float(min(np.min(p - lo_a), np.min(hi_a - p)))

        def contains_rows(rows: np.ndarray) -> np.ndarray:
            return ((rows >= lo_a) & (rows <= hi_a)).all(axis=1)

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


def _offsets(rows: np.ndarray, c: Point) -> tuple[np.ndarray, np.ndarray]:
    """rows - c for an (m, d) array and a finite point c, with each finite
    row whose difference overflowed taken in its own units: the row and c
    divided by the power of two at the larger of their largest magnitudes,
    which is exact but for entries it takes below the normal floats and
    leaves every entry of the difference below 4 in magnitude; and the
    unit of every row, 1 or that power.  The overflow
    it handles raises no warning."""
    with np.errstate(over="ignore"):
        v = rows - c
    unit = np.ones(len(v))
    if not np.isfinite(v).all():
        big = np.flatnonzero(~np.isfinite(v).all(axis=1)
                             & np.isfinite(rows).all(axis=1))
        top = np.maximum(np.abs(rows[big]).max(axis=1), np.abs(c).max())
        scale = np.ldexp(1.0, np.frexp(top)[1] - 1)[:, None]
        unit[big] = scale[:, 0]
        v[big] = rows[big] / scale - c / scale
    return v, unit


def ball(center, radius: float) -> DomainSet:
    """Closed Euclidean ball of the given center and radius > 0.

    About a center of zeros (the usual setting: continuation needs 0
    interior) the point predicates take the norm of p itself rather than
    of p - c.  That keeps the bits: x - 0.0 is x for every float, signed
    zeros, NaN and infinities included, and where the center holds a -0.0
    the difference only turns a -0.0 coordinate into +0.0, whose square is
    the same.

    In two dimensions contains and boundary_distance also take a point
    given as a tuple of floats (see MappingInstance.float_points): they
    subtract the center coordinate by coordinate and square the norm by
    the fused dot product _fsq(v1, v0 * v0), as the default OpenBLAS
    kernel does for the array; only a norm that overflowed or underflowed
    (below _NORM_LO) goes to the array form.  The array point forms take
    p - c, and its norm, in the point's own units where either overflowed
    or the squared norm underflowed (_offsets, _own_units), with no
    warning, so a point outside a ball of radius below 2^-511 is not
    taken in.

    The tuple contains first tries the unfused sum s = v0 v0 + v1 v1
    against lim = radius^2 (1 - 2^-40), set at construction, and takes
    the point at once when s <= lim.  That verdict is the exact path's:
    each of the three roundings in s is off by at most 2^-53 of its
    value, or 2^-1075 below the normal floats, so the exact v0^2 + v1^2
    is at most s (1 + 2^-51) + 2^-1073; the fused square rounds v0 v0 and
    the sum, so it is at most the exact sum times (1 + 2^-51), plus
    2^-1073; and lim is radius^2 (1 - 2^-40) rounded up at most twice.
    Together the fused square is at most radius^2 (1 - 2^-40 + 2^-48) <
    radius^2, so its rounded root is at most radius (a root below
    _NORM_LO, which goes to the array form, is far inside).  lim is -1,
    which no s passes, unless it is finite and at least 2^-900, so the
    absolute 2^-1073 is far below the margin, and tiny and huge radii
    always take the exact path.
    """
    c = _frozen(np.atleast_1d(np.asarray(center, dtype=float)))
    if np.isnan(c).any():
        raise ArgumentError(f"ball center must not be NaN, got {c}")
    if not radius > 0.0:
        raise ArgumentError(f"ball radius must be > 0, got {radius}")
    centred = not c.any()
    c_floats = tuple(c.tolist())
    lim = radius * radius * (1.0 - 2.0 ** -40)
    if not 2.0 ** -900 <= lim < math.inf:
        lim = -1.0

    def in_units(p: Point) -> tuple[Point, float, float]:
        """p - c, its norm, and the unit both are taken in: that of p - c
        where it overflowed, else that of its squared norm."""
        v, unit = _offsets(p[None], c)
        r, u = _own_units(v)
        return v[0] / u[0], float(r[0]), float(unit[0] * u[0])

    def norm(p: Point) -> float:
        """||p - c|| of a point array: one dot product unless it, or the
        difference, overflowed, or its square underflowed; inf only past
        the largest float."""
        with np.errstate(over="ignore"):
            r = _euclidean_norm(p if centred else p - c)
        if _NORM_LO <= r < math.inf:
            return r
        _, r, unit = in_units(p)
        return r * unit

    def tuple_norm(p: tuple) -> float:
        """||p - c|| of a point given as a tuple of floats: the root of
        the fused dot product, or norm's where that overflowed or
        underflowed."""
        v0, v1 = p
        if not centred:
            c0, c1 = c_floats
            v0, v1 = v0 - c0, v1 - c1
        r = math.sqrt(_fsq(v1, v0 * v0))
        return r if _NORM_LO <= r < math.inf else norm(np.array(p))

    def contains(p: Point | tuple) -> bool:
        if p.__class__ is tuple:
            # the hottest leaf of the inner solves: the pre-test, written
            # out on the floats
            v0, v1 = p
            if not centred:
                c0, c1 = c_floats
                v0, v1 = v0 - c0, v1 - c1
            return v0 * v0 + v1 * v1 <= lim or tuple_norm(p) <= radius
        return norm(p) <= radius

    def interior(p: Point) -> bool:
        return norm(p) < radius

    def bdist(p: Point | tuple) -> float:
        return max(0.0, radius - (tuple_norm(p) if p.__class__ is tuple
                                  else norm(p)))

    def contains_rows(rows: np.ndarray) -> np.ndarray:
        v, unit = _offsets(rows, c)
        return _row_norms_safe(v) <= radius / unit

    def project(p: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(p)
        # c + v radius / r is the same point for v and r in any units, so
        # a row whose offset from the center, or its squared norm,
        # overflowed is taken in its own units, against the radius in
        # those units
        v, unit = _offsets(rows, c)
        r, u = _own_units(v)
        v /= u[:, None]
        unit *= u
        out = np.array(rows)
        far = np.flatnonzero(r > radius / unit)
        # pull a hair inside the sphere so membership survives rounding;
        # where c + v s still rounds outside (a center far from the origin
        # against the radius) pull 16 times further, at worst to c itself
        shave = 1e-12
        while far.size:
            out[far] = c + v[far] * ((radius / r[far]) * (1.0 - shave))[:, None]
            far = far[_row_norms_safe(out[far] - c) > radius]
            shave = min(16.0 * shave, 1.0)
        return out.reshape(np.shape(p))

    def nearest_boundary(p: Point) -> Point:
        with np.errstate(over="ignore"):
            v = p - c
            r = _euclidean_norm(v)
        unit = 1.0
        if not _NORM_LO <= r < math.inf:
            v, r, unit = in_units(p)
        if r == 0.0:
            out = np.array(c)
            out[0] += radius
            return out
        s = radius / r
        # p - c in its own units, or p nearer c than radius / 2^1024
        if unit != 1.0 or s == math.inf:
            return c + v / r * radius
        return c + v * s

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
    verify_contractive maps all its pair points as one, and both refuse
    an apply that does not map row by row.  Elementwise maps give the
    same bits either way.  An affine map is written
    ``x @ A.T + b`` rather than ``A @ x + b``, and its batched rows may
    differ from the single-row images in the last bits.

    float_points is the promise of a map that apply, domain.contains,
    domain.boundary_distance, space.distance and space.norm also take a
    point in its float form (_float_form): in one dimension the
    coordinate's Python float, which domain.project takes too, apply then
    returning the image's float and project the projected (1,) point; in
    two dimensions the tuple of the coordinates' floats, apply then
    returning the image's tuple, its 2-term dots rounded once as _fma
    rounds them.  solve_fixed_point, orbit_exact and solve_at_t then step
    the map on the float form, through those callables, and so does
    orbit_inexact in one dimension; the path drives take ||T x|| on it,
    and trace_path each path point's boundary distance; what they return
    or raise holds point arrays, with the bits of the array steps
    (in two dimensions, where the OpenBLAS kernel fuses a 2-term dot as
    the default one does).  The gallery's one-coordinate maps
    (gallery._one_coordinate) and planar-rotation promise it.  It is
    refused with ArgumentError on any domain but a one-coordinate box (a
    halfline among them) or a two-coordinate ball, the ones whose point
    forms take the float form.

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


# a batched apply is checked against single-row applies on this many of
# its first rows: enough to catch a matrix product of the wrong side
# (R @ x rather than x @ R.T), which garbles every row, for the cost of a
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
    refused the same way: a ValueError of the batched apply becomes
    ArgumentError when the head's single-row applies succeed.  Any other
    failure of the map, a LinAlgError included, surfaces unchanged."""
    head = rows[:_ROWWISE_HEAD]
    try:
        images = T.apply(rows)
    except ValueError as exc:
        if (isinstance(exc, np.linalg.LinAlgError)
                or not _applies_pointwise(T, head)):
            raise
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


def _applies_pointwise(T: MappingInstance, points: np.ndarray) -> bool:
    """Whether T.apply runs without raising on each point alone."""
    try:
        for p in points:
            T.apply(p)
    except Exception:
        return False
    return True


def _non_finite(y, x) -> NonFiniteError:
    """The error for a point x (a Python float on the float drive) that
    the map sent to the non-finite y; both are reported as points."""
    y, x = _frozen(y), _frozen(x)
    return NonFiniteError(f"the map sent {x!r} to the non-finite {y!r}",
                          point=y, last_inside=x)


def _refuse_non_finite(images: np.ndarray, sources: np.ndarray) -> None:
    """Raise NonFiniteError for the first row of the (m, d) array images
    that holds a NaN or an infinity; row j is the image of sources[j]."""
    bad = ~np.isfinite(images).all(axis=1)
    if bad.any():
        j = int(bad.argmax())
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
    shape raises ArgumentError, and so does a NaN or infinite pair
    point.  Every point must lie in T's domain; the first offender in the
    order x_0, y_0, x_1, y_1, ... is reported by value in a DomainError.
    slack >= 0 absorbs roundoff when an exact inequality is expected to be
    tight.

    All 2m points go through one T.apply, so apply must map an
    (m, dimension) array row by row (see MappingInstance; checked on the
    first rows, else ArgumentError), and a NaN or infinite image raises
    NonFiniteError.  For an elementwise map every value equals the
    one-pair-at-a-time check bit for bit.  For an affine map such as
    ``x @ A.T + b`` the batched images, hence lhs, may differ from the
    single-point ones in the last bits (planar-rotation: about 29% of
    20,000 sampled pairs, by 1.2e-14 relative at most); rhs never does.
    """
    if not slack >= 0.0:
        raise ArgumentError(f"slack must be >= 0, got {slack}")
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
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise ArgumentError(
            f"pair point {pts[finite.argmin()]!r} is not finite")
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
    lhs = T.space.rowwise_distance(images[:, 0], images[:, 1])
    rhs = T.declared_modulus(sep) * sep
    verdicts = lhs <= rhs + slack
    verdicts.setflags(write=False)
    return ContractivityReport(x=_frozen(xy[:, 0]), y=_frozen(xy[:, 1]),
                               lhs=_frozen(lhs), rhs=_frozen(rhs),
                               verdicts=verdicts, slack=slack)
