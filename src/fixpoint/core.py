"""Metric backends, contraction moduli, domains, and mapping instances.

Conventions
-----------
Points are 1-D float64 numpy arrays of shape ``(dimension,)``.  A mapping
that sets ``float_points`` (the gallery's one-coordinate maps) also takes
its single coordinate as a Python float in apply, domain.contains and
space.distance, and the exact Picard drives step such a map on floats;
every point they return or raise is still a ``(1,)`` array.  A modulus is
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


def _row_dot(rows: np.ndarray, v: Point) -> np.ndarray:
    """rows[j] @ v for every row of an (m, d) array.

    A stacked matmul gives the same float as the 1-D ``v.dot(row)`` on
    every row with a positive stride (see _row_norms); ``rows @ v``,
    np.sum(rows * v, 1) and einsum round differently and differ in the
    last bit on a sizeable share of rows once d >= 2.
    """
    return (rows[:, None, :] @ v[:, None])[:, 0, 0]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, equal bit for bit to _euclidean_norm
    on rows with a positive stride (a negative one sends the stacked
    matmul to its own loop, which rounds differently); the library only
    passes it fresh arrays."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _overflowed(rows: np.ndarray, prods: np.ndarray):
    """The finite rows of an (m, d) array whose squared norm or dot
    product prods overflowed (to an infinity, or to NaN as inf - inf),
    and for each the power of two at its largest magnitude: dividing the
    row by it is exact and leaves every entry below 2 in magnitude."""
    big = np.flatnonzero(~np.isfinite(prods))
    big = big[np.isfinite(rows[big]).all(axis=1)]
    top = np.abs(rows[big]).max(axis=1)
    return big, np.ldexp(1.0, np.frexp(top)[1] - 1)


def _own_units(f, rows: np.ndarray, *args) -> tuple[np.ndarray, np.ndarray]:
    """f(rows, *args), a squared norm or dot product per row of an (m, d)
    array, with each finite row whose value overflowed taken again in its
    own units (see _overflowed), and the unit of every row: 1, or the
    power of two the retaken row was divided by.  The overflow it handles
    raises no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = f(rows, *args)
    unit = np.ones(len(s))
    if not np.isfinite(s).all():
        big, scale = _overflowed(rows, s)
        unit[big] = scale
        s[big] = f(rows[big] / scale[:, None], *args)
    return s, unit


def _row_norms_safe(rows: np.ndarray) -> np.ndarray:
    """_row_norms, but a finite row whose squared norm overflowed is
    normed in its own units (see _own_units) and scaled back, so the
    norm is inf only past the largest float or for a row that is not
    finite."""
    r, unit = _own_units(_row_norms, rows)
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
    .item() reads, and distance also takes a point given as that float
    (see MappingInstance.float_points): s * s then sqrt is the same IEEE
    product and root as v @ v then sqrt on a 1-element array, so they
    equal the array form bit for bit at a fraction of its cost (the space
    counterpart of box's 1-D fast path).  The row form is the same square
    and root on the rows' one column, half the cost of _row_norms' stacked
    matmul, whose 1 x 1 product is that square.
    In higher dimensions distance is _euclidean_norm written out on
    x - y, which saves the call through norm on the hottest leaf.
    """
    if dimension != 1:
        def distance(x: Point, y: Point) -> float:
            v = x - y
            return math.sqrt(v.dot(v))

        return _normed_space(dimension, _euclidean_norm, _row_norms,
                             distance)

    def norm(v: Point) -> float:
        s = v.item()
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

    kind is one of ``constant``, ``rational-decay``, ``piecewise-table``,
    ``nonexpansive``.  ``rakotch`` records whether the modulus satisfies
    phi(t) < 1 for all t > 0 (monotonicity is the constructor's obligation
    for the closed-form kinds; tables are checked separately by
    :func:`check_modulus_admissible`).

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
    if not np.all(np.diff(kn) > 0.0):
        raise ArgumentError("knots must increase strictly")
    if not np.all((va >= 0.0) & (va <= 1.0)):
        raise ArgumentError("table values must lie in [0, 1]")
    kn = _frozen(kn)
    va = _frozen(va)

    def phi(t):
        return va[np.searchsorted(kn, t, side="right") - 1]

    return Modulus(kind="piecewise-table",
                   params=tuple(kn) + tuple(va),
                   rakotch=bool(np.all(va < 1.0)),
                   _fn=phi, _gap=lambda t: 1.0 - phi(t))


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
    keeps its sign): the stability experiment projects a whole batch at
    once when every row is inside or is to be projected, so a custom
    domain must keep both.  nearest_boundary returns
    a closest boundary point, used to audit the boundary condition when a
    path crowds the edge of its domain; it raises ArgumentError where the
    set has no finite boundary.

    contains_rows is contains applied to every row of an (m, dimension)
    array at once, a bool array of length m.  On rows with a positive
    stride, which is what the library passes, it gives exactly what
    contains gives row by row, so batched experiments reproduce the
    one-point ones; on a view with a negative stride a norm or dot
    product, and so a verdict at the boundary, can differ in the last
    bit.
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
    .item() reads (contains also takes a point given as that float, see
    MappingInstance.float_points), and contains_rows compares the rows'
    one column, both against the bounds as Python floats (below an
    infinite hi only against lo, which NaN fails already).  project is
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

    if lo_a.size == 1:
        # scalar fast path: perturbed-orbit experiments spend most of their
        # time in these membership calls
        lo_f, hi_f = float(lo_a[0]), float(hi_a[0])

        def contains(p: Point | float) -> bool:
            return lo_f <= (p if p.__class__ is float else p.item()) <= hi_f

        def interior(p: Point) -> bool:
            return lo_f < p.item() < hi_f

        def bdist(p: Point) -> float:
            v = p.item()
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
            return float(min(np.min(p - lo_a), np.min(hi_a - p)))

        def contains_rows(rows: np.ndarray) -> np.ndarray:
            return ((rows >= lo_a) & (rows <= hi_a)).all(axis=1)

    def project(p: np.ndarray) -> np.ndarray:
        return np.minimum(hi_a, np.maximum(lo_a, p))

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
                     dimension=lo_a.size,
                     contains=contains, interior_contains=interior,
                     boundary_distance=bdist, contains_rows=contains_rows,
                     project=project, nearest_boundary=nearest_boundary)


def halfline(a: float) -> DomainSet:
    """The closed ray [a, inf) in one dimension."""
    return box([a], [math.inf])


def ball(center, radius: float) -> DomainSet:
    """Closed Euclidean ball of the given center and radius > 0.

    About a center of zeros (the usual setting: continuation needs 0
    interior) the point predicates take the norm of p itself rather than
    of p - c.  That keeps the bits: x - 0.0 is x for every float, signed
    zeros, NaN and infinities included, and where the center holds a -0.0
    the difference only turns a -0.0 coordinate into +0.0, whose square is
    the same.
    """
    c = _frozen(np.atleast_1d(np.asarray(center, dtype=float)))
    if np.isnan(c).any():
        raise ArgumentError(f"ball center must not be NaN, got {c}")
    if not radius > 0.0:
        raise ArgumentError(f"ball radius must be > 0, got {radius}")
    centred = not c.any()

    # the finite case is one norm and one comparison; only a norm that
    # overflowed is taken again, in the units of p - c (_row_norms_safe)
    def far_norm(p: Point) -> float:
        return float(_row_norms_safe((p - c)[None])[0])

    def contains(p: Point) -> bool:
        # _euclidean_norm written out: the hottest leaf of the inner solves
        v = p if centred else p - c
        r = math.sqrt(v.dot(v))
        return r <= radius or r == math.inf and far_norm(p) <= radius

    def interior(p: Point) -> bool:
        r = _euclidean_norm(p if centred else p - c)
        return r < radius or r == math.inf and far_norm(p) < radius

    def bdist(p: Point) -> float:
        r = _euclidean_norm(p if centred else p - c)
        return max(0.0, radius - (r if r < math.inf else far_norm(p)))

    def contains_rows(rows: np.ndarray) -> np.ndarray:
        return _row_norms_safe(rows - c) <= radius

    def project(p: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(p)
        # c + v radius / r is the same point for v and r in any units, so
        # a row whose squared norm overflowed is taken in its own units,
        # against the radius in those units
        v = rows - c
        r, unit = _own_units(_row_norms, v)
        v /= unit[:, None]
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
        r = _euclidean_norm(p - c)
        if r == math.inf:
            r = far_norm(p)
        if r == 0.0:
            out = np.array(c)
            out[0] += radius
            return out
        s = radius / r
        if s == math.inf:       # p is nearer c than radius / 2^1024
            return c + (p - c) / r * radius
        return c + (p - c) * s

    return DomainSet(kind="ball", params=tuple(c) + (radius,),
                     dimension=c.size,
                     contains=contains, interior_contains=interior,
                     boundary_distance=bdist, contains_rows=contains_rows,
                     project=project, nearest_boundary=nearest_boundary)


def halfspace(normal, offset: float) -> DomainSet:
    """Closed halfspace {x : <normal, x> <= offset} with normal != 0."""
    nv = _frozen(np.atleast_1d(np.asarray(normal, dtype=float)))
    if np.isnan(nv).any():
        raise ArgumentError(f"halfspace normal must not be NaN, got {nv}")
    if math.isnan(offset):
        raise ArgumentError("halfspace offset must not be NaN")
    params = tuple(nv) + (offset,)
    # the same set, with the normal and the offset divided by the power of
    # two at the normal's largest magnitude (exact while the quotients stay
    # normal floats): it keeps the normal's square and the push of a
    # projection clear of overflow and underflow whatever the normal's
    # scale, and changes no result where neither happened.  Not where the
    # offset would overflow: that boundary lies at the edge of the floats,
    # and beyond them when offset / |normal| overflows too
    top = float(np.abs(nv).max())
    unit = math.ldexp(1.0, math.frexp(top)[1] - 1) if 0.0 < top < math.inf \
        else 1.0
    nn = _euclidean_norm(nv / unit)     # |normal| in units: no underflow
    if nn == 0.0:
        raise ArgumentError("halfspace normal must be nonzero")
    if math.isfinite(offset / unit) or not math.isfinite(offset):
        nv, offset = _frozen(nv / unit), offset / unit
    elif math.isinf(offset / nn / unit):
        raise ArgumentError(
            f"halfspace boundary lies beyond the largest float: offset "
            f"{offset} / |normal| {nn * unit} overflows")
    else:
        # |normal| itself: scaling back by a power of two is exact above
        # the subnormals, and the square that underflows for a tiny
        # normal is never taken
        nn *= unit
    # relative rounding bound of a dot product with nv
    dot_eps = nv.size * float(np.finfo(float).eps)

    def toward(rows: np.ndarray, gaps: np.ndarray) -> np.ndarray:
        """rows - nv gap / |nv|^2 for every row of the (m, d) array rows
        and its entry of gaps: the row moved across a gap of dot product
        along the normal.  Where gap / |nv|^2 overflows (an unscaled
        normal far below 1 against a boundary near the largest float) the
        row and the move, the distance gap / |nv| along the unit normal,
        are taken at half size and the result doubled, which overflows
        only when the moved row itself passes the largest float; so is a
        row where |nv|^2 underflowed to 0 (f is then infinite, or NaN at a
        zero gap)."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f = gaps / (nn * nn)
            out = rows - nv * f[:, None]
            big = ~np.isfinite(f) & np.isfinite(gaps)
            if big.any():
                out[big] = 2.0 * (rows[big] / 2.0 - (nv / nn)
                                  * (gaps[big] / 2.0 / nn)[:, None])
        return out

    def dots(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """<nv, row> for every row of an (m, d) array and the unit it is
        taken in (see _own_units), to be held against offset / unit."""
        return _own_units(_row_dot, rows, nv)

    def dot(p: Point) -> tuple[float, float, float]:
        """<nv, p>, the offset and the unit both are taken in (see dots);
        one dot product unless it overflowed."""
        s = float(nv.dot(p))
        if -math.inf < s < math.inf:
            return s, offset, 1.0
        s, unit = dots(p[None])
        return float(s[0]), offset / float(unit[0]), float(unit[0])

    def contains(p: Point) -> bool:
        s, off, _ = dot(p)
        return s <= off

    def interior(p: Point) -> bool:
        s, off, _ = dot(p)
        return s < off

    def bdist(p: Point) -> float:
        s, off, unit = dot(p)
        return max(0.0, (off - s) / nn * unit)

    def contains_rows(rows: np.ndarray) -> np.ndarray:
        s, unit = dots(rows)
        return s <= offset / unit

    def project(p: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(p)
        s, unit = dots(rows)
        out = np.array(rows)
        # a row whose dot product overflowed is projected in its own units,
        # against the offset in those units (any other unit is 1)
        rows = rows / unit[:, None]
        off = offset / unit
        over = hit = np.flatnonzero(s > off)
        # overshoot by 1e-12 relative so membership survives rounding
        push = (s[over] - off[over]) * (1.0 + 1e-12)
        while over.size:
            out[over] = toward(rows[over], push)
            s_out = _row_dot(out[over], nv)
            still = s_out > off[over]
            over = over[still]
            # the dot product's rounding or an underflow outweighed the
            # overshoot (a point far out along the plane, a tiny gap):
            # push at least twice as far, plus what is left and the
            # rounding bound
            push = (2.0 * push[still] + (s_out[still] - off[over])
                    + dot_eps * (np.abs(out[over]) @ np.abs(nv)))
        out[hit] *= unit[hit, None]
        return out.reshape(np.shape(p))

    def nearest_boundary(p: Point) -> Point:
        s, off, unit = dot(p)
        return toward((p / unit)[None], np.array([s - off]))[0] * unit

    return DomainSet(kind="halfspace", params=params, dimension=nv.size,
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
    same bits either way.  One written in + - * / alone may map a
    one-coordinate point on its Python float, which rounds as the float64
    ufuncs do (see gallery._elementwise).  An affine map is written
    ``x @ A.T + b`` rather than ``A @ x + b``, and its batched rows may
    differ from the single-row images in the last bits.

    float_points is the promise of a one-coordinate map that apply,
    domain.contains and space.distance also take the coordinate as a
    Python float, apply then returning the image's float.
    solve_fixed_point, orbit_exact and solve_at_t then step the map on
    floats, through those three callables, with the bits of its array
    steps; what they return or raise holds (1,) points.  The gallery's
    elementwise maps promise it (gallery._one_coordinate), on a box and
    euclidean(1), whose 1-D forms take the float.

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
