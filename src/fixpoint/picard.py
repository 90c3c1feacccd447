"""Exact and perturbed Picard orbits, with the explicit stability bounds.

The quantitative content lives in four closed-form bounds for a mapping with
admissible modulus phi:

* settling_index: after k steps an orbit started within radius c0 of a point
  whose displacement under T is d0, with k the least integer above
  (2 c0 + d0) / (eps (1 - phi(eps))), every later iterate is within eps of
  the limit behaviour the bound was derived for.
* coupling_index: two orbits started within c0 of each other are within eps
  of each other from the least integer above 4 c0 / ((1 - phi(eps)) eps).
* cluster_tolerance: delta (1 - phi(delta)) / 8, the resolution at which
  near-fixed points of a delta-accurate surrogate cluster.
* stability_constants: for a target accuracy eps on a seed ball of radius M
  around a fixed point, a perturbation budget delta and a settling time k
  such that every delta-perturbed orbit is eps-close to the fixed point from
  step k on.  Safety factors of 1/2 on delta and the interim quantities at
  1/8 rather than the sharp 1/4 keep the guarantee strict under roundoff.

All bounds refuse non-contractive moduli (phi >= 1 at the probed argument)
by raising NonRakotchError instead of returning an unusable integer, and
an index whose bound is no finite float by raising ArgumentError.  Every
argument guard here is written so that NaN fails it (not tol > 0.0).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (Modulus, MappingInstance, Point, as_point, _apply_rows,
                   _euclidean_norm, _float_form, _frozen, _non_finite,
                   _refuse_non_finite, _row_norms)
from .csvcells import _rows_text
from .errors import (ArgumentError, ConvergenceError, DomainError,
                     NonFiniteError, NonRakotchError, NonselfExitError)

# Bounds that are exact integers in real arithmetic can land a few ulps low
# in binary; values this close to an integer are treated as that integer.
_INT_SNAP = 1e-9


def _least_int_greater(v: float) -> int:
    nearest = round(v)
    if abs(v - nearest) <= _INT_SNAP * max(1.0, abs(v)):
        return int(nearest) + 1
    return math.floor(v) + 1


def _index(bound: str, num: float, den: float, add: float = 0.0) -> int:
    """_least_int_greater(num / den + add) for the index bound, refused
    with ArgumentError when the quotient is no finite float (den
    underflowed to 0, or the quotient overflowed): no integer index can
    be certified from it."""
    v = num / den + add if den > 0.0 else math.inf
    if not v < math.inf:
        raise ArgumentError(f"{bound} = {num!r} / {den!r} exceeds the "
                            "largest float")
    return _least_int_greater(v)


def _count(v, least: int, name: str) -> int:
    """The count or seed v as an int, refused with ArgumentError naming it
    unless operator.index takes it (a Python or numpy integer, not a
    float) and it is at least least."""
    try:
        i = operator.index(v)
    except TypeError:
        raise ArgumentError(f"{name} must be an integer, got {v!r}") from None
    if i < least:
        raise ArgumentError(f"{name} must be >= {least}, got {v}")
    return i


def _one_minus_phi(m: Modulus, t: float, what: str) -> float:
    gap = m.gap(t)
    if not gap > 0.0:
        raise NonRakotchError(
            f"{what} needs phi({t}) < 1, got {m(t)} (kind={m.kind})")
    return gap


# ---------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class Orbit:
    """A stored orbit x_0, x_1, ..., one row per point.

    residuals[i] = dist(x_{i+1}, T x_i); identically zero for an exact
    orbit, bounded by perturbation_bound for a perturbed one as long as the
    orbit stayed inside its domain.  exited_domain_at is the index of the
    first point outside the domain (the orbit stops there), or None.
    """

    points: np.ndarray
    residuals: np.ndarray
    exited_domain_at: int | None
    perturbation_bound: float

    def __len__(self) -> int:
        return self.points.shape[0]


def _start(T: MappingInstance, x0, what: str = "start") -> Point:
    """x0 as a point of T's space, refused with DomainError when it lies
    outside T's domain."""
    x = as_point(x0, T.space.dimension)
    if not T.domain.contains(x):
        raise DomainError(f"{what} {x!r} lies outside the domain", point=x)
    return x


class _Run(NamedTuple):
    x: Point                # the last point inside the domain
    steps: int              # applies of step that led to x
    residual: float         # dist(x, step x) when dist was given, else inf
    outside: Point | None   # the image of x outside the domain, if any


def _iterate(step, x: Point | float | tuple, contains, n: int, dist=None,
             tol: float = 0.0,
             out: np.ndarray | memoryview | None = None) -> _Run:
    """The exact Picard kernel: x <- step(x), at most n applies, from x
    inside the domain.  x is a point, or its float form when step,
    contains and dist all take one (see MappingInstance.float_points).
    With dist it stops before stepping once dist(x, step x) <= tol; it
    stops at the first image outside the domain.  out, if given, gets the
    image of apply i in row i + 1: an (n + 1, dimension) array, or, on a
    one-coordinate float drive, a flat buffer of n + 1 floats that stores
    each image's float as it is (orbit_exact passes a memoryview of its
    points' one column).  A non-finite image raises NonFiniteError when
    its residual is not finite or when it lies outside (NaN fails every
    membership test); a residual that overflows between finite points
    only means not converged."""
    inf = r = math.inf
    for i in range(n):
        y = step(x)
        if dist is not None:
            r = dist(x, y)
            if r <= tol:
                return _Run(x, i, r, None)
            # a distance is not below inf only when it is inf or NaN
            if not r < inf and not np.all(np.isfinite(y)):
                raise _non_finite(y, x)
        if out is not None:
            out[i + 1] = y
        if not contains(y):
            if not np.all(np.isfinite(y)):
                raise _non_finite(y, x)
            return _Run(x, i, r, y)
        x = y
    return _Run(x, n, r, None)


def _ball_noise(noise_seed: int, n: int, d: int, delta: float) -> np.ndarray:
    """The n perturbations of one orbit, drawn uniformly from the delta-ball
    by a generator seeded with noise_seed: an (n, d) array."""
    rng = np.random.default_rng(noise_seed)
    if d == 1:
        # z / |z| is the sign of z, exactly, for every normal draw (z * z
        # cannot underflow), so the radii take z's sign, and a zero z
        # gives the zero of its own sign as the general form below does
        z = rng.standard_normal(n)
        radii = delta * rng.random(n) * (1.0 - 1e-9)
        radii[z == 0.0] = 0.0
        return np.copysign(radii, z)[:, None]
    dirs = rng.standard_normal((n, d))
    dirs /= np.maximum(_row_norms(dirs), 1e-300)[:, None]
    # shave 1e-9 off the radii so projection roundoff cannot push a
    # recorded residual past delta
    radii = delta * rng.random(n) ** (1.0 / d) * (1.0 - 1e-9)
    return dirs * radii[:, None]


def _orbit(T: MappingInstance, pts: np.ndarray, images: np.ndarray | None,
           exited: int | None, delta: float) -> Orbit:
    """The Orbit of the fresh buffer pts up to its exit, refused with
    NonFiniteError at a NaN or infinite point, its residuals taken against
    images (zero without them); read-only in place, no copy."""
    m = exited or len(pts) - 1
    pts = pts[:m + 1]
    _refuse_non_finite(pts[1:], pts[:-1])
    res = (np.zeros(m) if images is None
           else T.space.rowwise_distance(pts[1:], images[:m]))
    pts.setflags(write=False)
    res.setflags(write=False)
    return Orbit(points=pts, residuals=res, exited_domain_at=exited,
                 perturbation_bound=delta)


def orbit_exact(T: MappingInstance, x0, n: int) -> Orbit:
    """Iterate x_{i+1} = T x_i for up to n steps.

    Stops early if an iterate leaves the domain; that iterate is kept as the
    last row and flagged in exited_domain_at.  x0 itself must be inside.
    Raises NonFiniteError if T gives a NaN or infinite image, inside the
    domain or not.  A map that declares float_points is stepped on its
    float form, with the bits of the array steps.
    """
    n = _count(n, 1, "orbit length")
    d = T.space.dimension
    x = _start(T, x0)
    pts = np.empty((n + 1, d))
    pts[0] = x
    floats = T.float_points
    # a float stored through the buffer protocol skips numpy's item
    # assignment, 46.5 ns a store, not 55.8 (timeit, 2-vCPU VM), and
    # writes the same 8 bytes
    run = _iterate(T.apply, _float_form(x) if floats else x,
                   T.domain.contains, n,
                   out=pts[:, 0].data if floats and d == 1 else pts)
    return _orbit(T, pts, None,
                  None if run.outside is None else run.steps + 1, 0.0)


def orbit_inexact(T: MappingInstance, x0, n: int, delta: float,
                  noise_seed: int) -> Orbit:
    """Perturbed orbit: x_{i+1} = T x_i + e_i with ||e_i|| <= delta.

    The e_i are drawn uniformly from the delta-ball (seeded, reproducible).
    If T x_i is inside the domain but the perturbed point is not, it is
    projected back in; since the shipped domains are convex the projection
    is nonexpansive and the recorded residual stays <= delta.  If T x_i
    itself leaves the domain the exit is genuine: the perturbed point is
    recorded as-is and the orbit stops there when it is outside.
    delta = 0 reproduces orbit_exact bit for bit; a delta that is not
    finite and >= 0, or a negative noise_seed, raises ArgumentError.
    Raises NonFiniteError if T gives a NaN or infinite image.  The orbit
    is a one-row run of the stability kernel, so an apply that does not
    map rows (see MappingInstance) is refused with ArgumentError.
    """
    n = _count(n, 1, "orbit length")
    if not 0.0 <= delta < math.inf:
        raise ArgumentError(
            f"perturbation bound must be finite and >= 0, got {delta}")
    noise_seed = _count(noise_seed, 0, "noise_seed")
    d = T.space.dimension
    x = _start(T, x0)
    noise = (_ball_noise(noise_seed, n, d, delta)[:, None] if delta > 0.0
             else None)
    images = np.empty((n, d))
    # rows past an exit stay NaN, outside every domain, so the first row
    # the domain refuses is the exit
    pts = np.full((n + 1, d), math.nan)
    pts[0] = x
    # an empty window: the anchor x only picks the test order
    worst = _perturbed_steps(T, x[None], n, noise, x, n + 1, (images, pts))
    exited = (1 + int(T.domain.contains_rows(pts[1:]).argmin())
              if worst[0] == math.inf else None)
    return _orbit(T, pts, images, exited, delta)


# floats of window points gathered before their distances are taken in one
# call: larger blocks save few calls and raise the peak through the fold's
# temporaries
_WINDOW_FLOATS = 4096


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _perturbed_steps(T: MappingInstance, starts: np.ndarray, n: int,
                     noise: np.ndarray | None, anchor: Point, k: int,
                     record: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> np.ndarray:
    """Step every row of the (m, d) array starts through
    x_{i+1} = T x_i + noise[i, row] for up to n steps (noise None means
    exact steps) and return each row's max of dist(x_i, anchor) over
    i in [k, n] (k >= 1, -inf when k = n + 1 leaves it empty), inf for
    a row that left the domain, all with no floating-point warning.

    record, for one row only, is a pair of buffers (images, points):
    step i writes T x_i to images[i] and x_{i+1} to points[i + 1], at
    an exit the perturbed point itself, on which the run stops.

    All rows share one apply per step; the first is checked to map row by
    row (core._apply_rows).  A perturbed point outside the domain is
    projected back in when T x_i itself is inside; otherwise the exit is
    genuine and the row fails, unless T x_i is NaN or infinite, which
    raises NonFiniteError.  So does a row that never exited but whose max
    is not finite, after the last step.

    An exited row is parked at the anchor, a point of the domain, and its
    later steps are thrown away: it is never refused and never exits
    again.  So the batch keeps its shape, and a step on which a perturbed
    point is outside projects it whole in one call, since project returns
    a point of the domain unchanged (see DomainSet); an exiting row's own
    point is replaced by the anchor first, so it is never projected.

    The test order is chosen once.  With the anchor on the boundary of
    the domain, where the noise pushes some perturbed point outside on
    most steps, the images are tested first: when all are inside no row
    can exit, and one projection places the batch.  Otherwise the
    perturbed points are tested first, and a step on which all are
    inside neither tests the images nor projects.  The window's points
    are copied into a block of at most _WINDOW_FLOATS floats (one step at
    least) and their distances taken once per block; every row's
    distance is the one it has alone, and max is exact, so the worst
    distances are those of a running max, NaN included.
    """
    m, d = starts.shape
    contains = T.domain.contains_rows
    project = T.domain.project
    distances = T.space.rowwise_distance
    images_first = T.domain.boundary_distance(anchor) == 0.0
    exited = np.zeros(m, dtype=bool)
    worst = np.full(m, -math.inf)
    block = np.empty((max(1, _WINDOW_FLOATS // (m * d)), m, d))
    filled = 0

    def fold(worst: np.ndarray, rows: np.ndarray) -> np.ndarray:
        dist = distances(rows.reshape(-1, d), anchor)
        return np.maximum(worst, dist.reshape(len(rows), m).max(axis=0))

    x = starts
    for i in range(n):
        y = T.apply(x) if i else _apply_rows(T, x)
        cand = y if noise is None else y + noise[i]
        stay = contains(y if images_first else cand)
        # count_nonzero is a third of the cost of the reduction inside.all()
        if np.count_nonzero(stay) < stay.size:
            # a row stays when its perturbed point or its image is inside
            stay = stay | contains(cand if images_first else y)
            if np.count_nonzero(stay) < stay.size:
                out = ~stay & ~exited
                _refuse_non_finite(y[out], x[out])
                exited |= out
                if exited.all():
                    if record is not None:
                        record[0][i], record[1][i + 1] = y, cand
                    break
                cand = np.where(out[:, None], anchor, cand)
            cand = project(cand)
        elif images_first:
            cand = project(cand)
        if record is not None:
            record[0][i], record[1][i + 1] = y, cand
        if i + 1 >= k:
            block[filled] = cand
            filled += 1
            if filled == len(block):
                worst = fold(worst, block)
                filled = 0
        x = cand
    if filled:
        worst = fold(worst, block[:filled])
    # +inf passes the membership test of an unbounded domain, so a row can
    # get there without exiting; NaN or +inf, not the -inf of an empty
    # window, marks it
    bad = ~exited & ~(worst < math.inf)
    if bad.any():
        j = int(bad.argmax())
        raise NonFiniteError(
            f"the orbit of row {j}, started at {starts[j]!r}, reached a NaN "
            "or infinite point inside the domain")
    worst[exited] = math.inf
    return worst


class FixedPointResult(NamedTuple):
    point: Point
    iterations: int
    residual: float


def solve_fixed_point(T: MappingInstance, x0, tol: float,
                      max_iter: int = 100_000) -> FixedPointResult:
    """Run exact Picard iteration until dist(x, T x) <= tol.

    The residual is checked before stepping, so a start that already meets
    the tolerance returns with 0 iterations.  Raises NonRakotchError for a
    mapping whose declared modulus is not admissible (plain iteration has no
    convergence guarantee there), NonselfExitError (carrying the partial
    orbit) if an iterate escapes the domain first, NonFiniteError if T
    gives a NaN or infinite image, and ConvergenceError after max_iter
    steps.  A residual that overflows between two finite iterates (a
    start near 1e160) is only not converged yet.  A map that declares
    float_points is stepped on its float form; the point returned, and
    every point an error carries, is still a point array.
    """
    if not tol > 0.0:
        raise ArgumentError(f"tolerance must be > 0, got {tol}")
    max_iter = _count(max_iter, 1, "max_iter")
    if not T.declared_modulus.rakotch:
        raise NonRakotchError(
            "declared modulus is not admissible; plain iteration is not "
            "guaranteed to converge")
    x = _start(T, x0)
    run = _iterate(T.apply, _float_form(x) if T.float_points else x,
                   T.domain.contains, max_iter + 1, T.space.distance, tol)
    if run.outside is not None:
        k = run.steps + 1
        raise NonselfExitError(
            f"iterate {k} left the domain before reaching tolerance {tol}",
            orbit=orbit_exact(T, x, k))
    if run.residual > tol:
        raise ConvergenceError(
            f"no residual <= {tol} within {max_iter} iterations "
            f"(last residual {run.residual})", residual=run.residual)
    return FixedPointResult(point=_frozen(run.x), iterations=run.steps,
                            residual=run.residual)


# ---------------------------------------------------------------------------
# closed-form bounds


def settling_index(epsilon: float, m: Modulus, radius: float,
                   anchor_displacement: float) -> int:
    """Least k with k > (2 radius + displacement) / (eps (1 - phi(eps))),
    for an orbit started within radius of an anchor point whose
    displacement under the map is anchor_displacement."""
    if not epsilon > 0.0:
        raise ArgumentError(f"epsilon must be > 0, got {epsilon}")
    if not (radius >= 0.0 and anchor_displacement >= 0.0):
        raise ArgumentError("seed bounds must be >= 0")
    gap = _one_minus_phi(m, epsilon, "settling index")
    return _index("settling index bound (2 radius + displacement) / "
                  "(eps (1 - phi(eps)))",
                  2.0 * radius + anchor_displacement, epsilon * gap)


def coupling_index(epsilon: float, m: Modulus, radius: float) -> int:
    """Least k with k > 4 radius / ((1 - phi(eps)) eps): from step k two
    orbits launched within radius of each other stay eps-close."""
    if not epsilon > 0.0:
        raise ArgumentError(f"epsilon must be > 0, got {epsilon}")
    if not radius >= 0.0:
        raise ArgumentError(f"radius must be >= 0, got {radius}")
    gap = _one_minus_phi(m, epsilon, "coupling index")
    return _index("coupling index bound 4 radius / ((1 - phi(eps)) eps)",
                  4.0 * radius, gap * epsilon)


def cluster_tolerance(delta: float, m: Modulus) -> float:
    """delta (1 - phi(delta)) / 8: points delta-fixed under a delta-accurate
    surrogate of T cluster within this resolution."""
    if not delta > 0.0:
        raise ArgumentError(f"delta must be > 0, got {delta}")
    gap = _one_minus_phi(m, delta, "cluster tolerance")
    return delta * gap / 8.0


@dataclass(frozen=True)
class StabilityConstants:
    """Perturbation budget delta and settling time k for accuracy epsilon on
    seeds within M of the fixed point.  delta0 and delta1 are the interim
    quantities delta is floored against; kept for reporting."""

    M: float
    epsilon: float
    delta0: float
    delta1: float
    delta: float
    k: int


def stability_constants(M: float, epsilon: float,
                        m: Modulus) -> StabilityConstants:
    """Explicit (delta, k) certificate for perturbed iteration near a fixed
    point.

    Guarantee shape: any orbit with steps x_{i+1} = T x_i + e_i,
    ||e_i|| <= delta, started within M of the fixed point, satisfies
    dist(x_i, fixed point) <= epsilon for every i >= k.

        delta0 = M (1 - phi(M/2)) / 8
        delta1 = eps (1 - phi(eps/2)) / 8
        delta  = min(delta0, delta1, eps (1 - phi(eps)) / 4) / 2
        k      = least integer > 4 (M + 1) / ((1 - phi(eps)) eps) + 4

    Requires finite 0 < epsilon <= M and an admissible modulus with
    phi < 1 at M/2, eps/2, and eps.
    """
    if not (math.isfinite(M) and M > 0.0):
        raise ArgumentError(f"seed radius M must be finite and > 0, got {M}")
    if not (math.isfinite(epsilon) and 0.0 < epsilon <= M):
        raise ArgumentError(
            f"target accuracy must be finite with 0 < epsilon <= M, got "
            f"{epsilon}")
    if not m.rakotch:
        raise NonRakotchError("stability constants need an admissible "
                              f"modulus, got kind={m.kind}")
    gap_M2 = _one_minus_phi(m, M / 2.0, "stability constants")
    gap_e2 = _one_minus_phi(m, epsilon / 2.0, "stability constants")
    gap_e = _one_minus_phi(m, epsilon, "stability constants")
    delta0 = M * gap_M2 / 8.0
    delta1 = epsilon * gap_e2 / 8.0
    delta = 0.5 * min(delta0, delta1, epsilon * gap_e / 4.0)
    k = _index("settling time bound 4 (M + 1) / ((1 - phi(eps)) eps)",
               4.0 * (M + 1.0), gap_e * epsilon, 4.0)
    return StabilityConstants(M=M, epsilon=epsilon, delta0=delta0,
                              delta1=delta1, delta=delta, k=k)


# ---------------------------------------------------------------------------
# batch experiment


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    x0: Point
    worst: float      # max over i in [k, n] of dist(x_i, fixed point)
    passed: bool


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a batch of perturbed orbits against one (delta, k)
    certificate.  constants_violated flags a delta_override larger than the
    certified budget; pass rates under a violated budget say nothing about
    the certificate."""

    constants: StabilityConstants
    delta_used: float
    constants_violated: bool
    n: int
    trials: tuple[TrialRecord, ...]

    @property
    def pass_count(self) -> int:
        return sum(1 for t in self.trials if t.passed)

    @property
    def all_passed(self) -> bool:
        return self.pass_count == len(self.trials)

    @property
    def worst_margin(self) -> float:
        """max over trials of (worst distance - epsilon); <= 0 iff all pass."""
        return max(t.worst - self.constants.epsilon for t in self.trials)


def run_stability_experiment(T: MappingInstance, xbar, M: float,
                             epsilon: float, trials: int, n: int,
                             seed: int,
                             delta_override: float | None = None
                             ) -> StabilityReport:
    """Launch seeded perturbed orbits around a fixed point and test the
    (delta, k) certificate from stability_constants.

    xbar must be fixed to within 1e-10.  Starts are drawn uniformly from the
    M-ball around xbar (projected into the domain when they land outside).
    n must be >= k so the settled window [k, n] is non-empty.  Per-trial
    noise seeds derive from the master seed, so reports reproduce exactly.

    delta_override substitutes a different perturbation budget, e.g. to
    demonstrate failure beyond the certified delta; the report flags when
    the override exceeds the certificate.

    The trials are stepped together as one (trials, d) array, one apply of
    T per step, so T.apply must map such an array row by row (see
    MappingInstance), a single trial included; an apply that does not is
    refused with ArgumentError.  No orbit is stored: the window's points
    pass through a block of at most 4096 floats, and with xbar on the
    boundary of the domain the images are tested before the perturbed
    points (see _perturbed_steps).  The noise of every trial is drawn up
    front: n * trials * d floats (1.6 MB for 100 trials of 2000 steps in
    one dimension), none when the budget is 0.
    """
    trials = _count(trials, 1, "trials")
    n = _count(n, 1, "orbit length")
    seed = _count(seed, 0, "seed")
    d = T.space.dimension
    xb = _start(T, xbar, "fixed point")
    # an exited trial is parked at xbar, so its image must be finite
    image = T.apply(xb)
    if not np.all(np.isfinite(image)):
        raise _non_finite(image, xb)
    drift = T.space.distance(xb, image)
    if not drift <= 1e-10:
        raise ArgumentError(
            f"xbar moves by {drift} under T; not fixed to 1e-10")
    consts = stability_constants(M, epsilon, T.declared_modulus)
    if not n >= consts.k:
        raise ArgumentError(
            f"orbit length n={n} is below the settling index k={consts.k}")
    delta_used = consts.delta if delta_override is None else delta_override
    if not 0.0 <= delta_used < math.inf:
        raise ArgumentError(
            f"delta_override must be finite and >= 0, got {delta_used}")
    violated = delta_override is not None and delta_override > consts.delta

    # drawn trial by trial: the master generator interleaves each start's
    # direction, its radius and its noise seed, so one batched draw would
    # move every start and noise seed
    rng = np.random.default_rng(seed)
    starts = np.empty((trials, d))
    noise = np.empty((n, trials, d)) if delta_used > 0.0 else None
    for trial in range(trials):
        direction = rng.standard_normal(d)
        nrm = _euclidean_norm(direction.tolist())
        if nrm < 1e-300:
            direction = np.zeros(d)
            direction[0] = 1.0
            nrm = 1.0
        x0 = xb + direction * (M * rng.random() ** (1.0 / d) / nrm)
        if not T.domain.contains(x0):
            x0 = T.domain.project(x0)
        if not T.domain.contains(x0):
            raise DomainError(
                f"drawn start {x0!r} could not be placed in the domain",
                point=x0)
        starts[trial] = x0
        noise_seed = int(rng.integers(0, 2 ** 63))
        if noise is not None:
            noise[:, trial] = _ball_noise(noise_seed, n, d, delta_used)
    worst = _perturbed_steps(T, starts, n, noise, xb, consts.k).tolist()
    records = tuple(TrialRecord(trial=j, x0=_frozen(starts[j]), worst=w,
                                passed=w <= epsilon)
                    for j, w in enumerate(worst))
    return StabilityReport(constants=consts, delta_used=delta_used,
                           constants_violated=violated, n=n, trials=records)


# ---------------------------------------------------------------------------
# serialization


# rows of a CSV report formatted at a time: each chunk's text and the
# kernel's arrays for it are all a writer holds
_CSV_CHUNK = 2048


def _csv_text(header: list[str], lead: list[np.ndarray | range | None],
              columns: list[np.ndarray | range]) -> Iterator[str]:
    """CSV text in pieces: the header line with the lead row, then one
    piece per _CSV_CHUNK rows of the equal-length columns.  A column is a
    1-D float array, whose cells are written with repr's bytes, a range,
    written as str writes its ints, or (in the one-row lead) None, written
    empty; so equal runs give byte-equal files.  Every piece ends in a
    newline.

    csvcells._rows_text formats each piece's cells together in numpy,
    held to repr cell by cell by the tests; written a piece at a time, the
    text never grows with the number of rows.
    """
    yield ",".join(header) + "\n" + (_rows_text(lead) if lead else "")
    for lo in range(0, len(columns[0]), _CSV_CHUNK):
        yield _rows_text([c[lo:lo + _CSV_CHUNK] for c in columns])


def _record_text(fields, sep: str = "\n") -> str:
    """key=value record text of the ordered (key, value) pairs fields,
    joined by sep and ended by a newline: a numpy array is written as its
    coordinates' float reprs joined by ';', any other value with str (the
    repr, for a Python float), so equal runs give byte-equal reports."""
    return sep.join(
        f"{k}={';'.join(repr(float(c)) for c in v)}"
        if isinstance(v, np.ndarray) else f"{k}={v}"
        for k, v in fields) + "\n"


def orbit_csv(orbit: Orbit) -> Iterator[str]:
    """Orbit as CSV pieces: index, coordinates, residual (empty on the
    seed row).  Joined, the pieces are the file's text; written one at a
    time, they hold one chunk of rows whatever the orbit's length.

    Floats are written with repr's bytes, computed for a whole chunk at
    once (see _csv_text), so equal runs give byte-equal files.
    """
    pts = orbit.points
    d = pts.shape[1]
    return _csv_text(["i", *(f"x{j}" for j in range(d)), "residual"],
                     [range(1), *pts[:1].T, None],
                     [range(1, len(pts)), *pts[1:].T, orbit.residuals])


def stability_report_text(report: StabilityReport) -> str:
    """Stability report as key=value record lines, one trial per line."""
    c = report.constants
    head = _record_text([
        ("M", c.M), ("epsilon", c.epsilon), ("delta0", c.delta0),
        ("delta1", c.delta1), ("delta", c.delta), ("k", c.k),
        ("delta_used", report.delta_used),
        ("constants_violated", report.constants_violated), ("n", report.n),
        ("trials", len(report.trials)), ("pass_count", report.pass_count),
        ("worst_margin", report.worst_margin)])
    return head + "".join(
        _record_text([("trial", t.trial), ("x0", t.x0), ("k", c.k),
                      ("delta", report.delta_used), ("worst", t.worst),
                      ("pass", t.passed)], sep=" ")
        for t in report.trials)
