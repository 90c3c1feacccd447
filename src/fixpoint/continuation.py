"""Homotopy continuation for x = t T x on a star-shaped domain.

The scaled maps t T (0 <= t < 1) of a nonexpansive T are Banach contractions
with ratio t, so each x_t = t T x_t is found by plain inner iteration.  The
path t -> x_t is continued with an explicit step rule: from a solved
parameter t0, any step below

    min( r (1 - q) / (1 + ||T x_{t0}||),  q - t0 )        (0 <= t0 < q < 1)

keeps the closed ball of radius r around x_{t0} invariant under the next
scaled map, so the warm-started inner solve cannot leave it.  The tracer
halves this bound for safety and chooses r inside the domain, which keeps
the whole path interior.

Two a-priori norm bounds accompany the path: ||x_t|| <= ||T 0|| / (1 - q)
for t <= q, and, when T is contractive with admissible modulus phi,
||x_t|| <= max(1, ||T 0|| / (1 - phi(1))) uniformly in t.  Parameter
separation controls point separation through the Lipschitz-type bound
|t_a - t_b| M / (1 - q) with M a bound on ||T x_t|| over the stretch.

The only obstruction to continuing all the way is the boundary condition:
T x = lam x with lam > 1 at a boundary point x.  check_leray_schauder tests
it; the tracer raises LsViolationError when the path is pinned against such
a point, and StallError when steps collapse without a detected violation.
limit_path pushes t -> 1 along a geometric schedule for contractive T and
certifies the limit as a fixed point of T itself, possibly on the boundary.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (MappingInstance, Modulus, Point, as_point, _float_form,
                   _frozen, _non_finite)
from .errors import (ArgumentError, ConvergenceError, DomainError,
                     DomainExitError, LsViolationError, NonRakotchError,
                     StallError)
from .picard import _count, _csv_text, _iterate, _one_minus_phi, _start

# a path step this small with no boundary-condition violation is a stall
_STALL_STEP = 1e-14


@dataclass(frozen=True)
class PathConfig:
    """Tracer configuration.

    q < 1 caps the parameter range with guaranteed norm bounds; for a map
    without admissible modulus tracing stops at q even if target_t is
    larger.  target_t = 0 is allowed and gives the single-entry path (0, 0).
    target_t = 1 is refused here: the limit t -> 1 is limit_path's job.
    """

    q: float = 0.9
    inner_tol: float = 1e-10
    max_inner_iter: int = 200_000
    target_t: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ArgumentError(f"q must lie in (0, 1), got {self.q}")
        if not self.inner_tol > 0.0:
            raise ArgumentError(
                f"inner_tol must be > 0, got {self.inner_tol}")
        _count(self.max_inner_iter, 1, "max_inner_iter")
        if not 0.0 <= self.target_t < 1.0:
            raise ArgumentError(
                f"target_t must lie in [0, 1), got {self.target_t}; "
                "use limit_path for the limit t -> 1")


class PathEntry(NamedTuple):
    t: float
    x: np.ndarray
    inner_residual: float
    step_bound_used: float    # the accepted step that led to this entry
    r_used: float             # invariant-ball radius backing that step


@dataclass(frozen=True)
class LimitCertificate:
    """Evidence attached to a limit point x1: its residual ||x1 - T x1||,
    the tail bound that stopped the schedule, the number of schedule steps,
    and whether x1 sits within final_tol of the boundary."""

    residual: float
    tail_bound: float
    schedule_steps: int
    on_boundary: bool


@dataclass(frozen=True)
class ContinuationPath:
    """A traced path: entries in increasing t, plus the q and inner_tol it
    was run with, the ||T x_t|| bound observed (trace_path) or derived
    (limit_path), and, for limit runs, the terminal fixed point with its
    certificate."""

    entries: tuple[PathEntry, ...]
    q: float
    inner_tol: float
    mbound: float
    terminal: tuple[np.ndarray, LimitCertificate] | None = None

    @property
    def final(self) -> PathEntry:
        return self.entries[-1]


def solve_at_t(T: MappingInstance, t: float, x_init, inner_tol: float,
               max_inner_iter: int = 200_000) -> tuple[Point, float]:
    """Solve x = t T x by inner iteration from x_init.

    Returns (solution, final residual) with residual = ||x - t T x||.  The
    residual is evaluated before stepping, so a warm start that already
    meets inner_tol is returned untouched.  Raises DomainExitError if an
    iterate leaves the closed domain, NonFiniteError if t T gives a NaN or
    infinite image, and ConvergenceError on budget exhaustion.

    A map that declares float_points is stepped on its float form (a
    Python float, or a tuple of two in two dimensions).  Every image, a
    float, a tuple's coordinates or a float64 point (the Point contract),
    is scaled by t as one Python float, the same IEEE float64 product in
    each form; the solution, and every point an error carries, is a point
    array.
    """
    if not 0.0 <= t < 1.0:
        raise ArgumentError(f"t must lie in [0, 1), got {t}")
    if not inner_tol > 0.0:
        raise ArgumentError(f"inner_tol must be > 0, got {inner_tol}")
    max_inner_iter = _count(max_inner_iter, 1, "max_inner_iter")
    apply = T.apply
    x = _start(T, x_init, "warm start")
    if T.float_points:
        x = _float_form(x)
    tt = float(t)
    if x.__class__ is tuple:
        def step(v: tuple) -> tuple:
            y0, y1 = apply(v)
            return tt * y0, tt * y1
    else:
        step = lambda v: tt * apply(v)
    run = _iterate(step, x, T.domain.contains, max_inner_iter + 1,
                   T.space.distance, inner_tol)
    if run.outside is not None:
        raise DomainExitError(
            f"inner iterate left the domain at t={t}", t=t,
            point=_frozen(run.outside), last_inside=_frozen(run.x))
    if run.residual > inner_tol:
        raise ConvergenceError(
            f"inner solve at t={t} did not reach {inner_tol} within "
            f"{max_inner_iter} iterations (last residual {run.residual})",
            residual=run.residual)
    return _frozen(run.x), run.residual


def step_size(r: float, q: float, norm_Tx: float, t0: float) -> float:
    """Safe parameter step from t0: half of
    min(r (1 - q) / (1 + norm_Tx), q - t0).

    Any step below the unhalved bound keeps the r-ball around the current
    point invariant for the next scaled map; halving keeps the inequality
    strict in floating point.
    """
    if not r > 0.0:
        raise ArgumentError(f"ball radius must be > 0, got {r}")
    if not 0.0 < q < 1.0:
        raise ArgumentError(f"q must lie in (0, 1), got {q}")
    if not 0.0 <= t0 < q:
        raise ArgumentError(f"t0 must lie in [0, q), got t0={t0}, q={q}")
    if not norm_Tx >= 0.0:
        raise ArgumentError(f"norm_Tx must be >= 0, got {norm_Tx}")
    return 0.5 * min(r * (1.0 - q) / (1.0 + norm_Tx), q - t0)


class NormBounds(NamedTuple):
    nonexpansive: float   # ||x_t|| <= ||T 0|| / (1 - q), valid for t <= q
    rakotch: float        # max(1, ||T 0|| / (1 - phi(1))), valid for all t


def apriori_norm_bound(norm_T0: float, q: float, m: Modulus) -> NormBounds:
    """A-priori bounds on ||x_t|| for solutions of x = t T x.

    The nonexpansive bound needs only ||T x|| <= ||T 0|| + ||x||; the
    second needs an admissible modulus and is infinite for the nonexpansive
    sentinel.  Raises NonRakotchError if a modulus claiming admissibility
    has phi(1) >= 1.  1 - phi(1) is the modulus's closed-form gap, not
    the subtraction, which cancels where phi(1) is near 1.
    """
    if not norm_T0 >= 0.0:
        raise ArgumentError(f"norm_T0 must be >= 0, got {norm_T0}")
    if not 0.0 < q < 1.0:
        raise ArgumentError(f"q must lie in (0, 1), got {q}")
    gap1 = m.gap(1.0)
    if m.rakotch and not gap1 > 0.0:
        raise NonRakotchError(
            f"modulus flagged admissible but phi(1) = {m(1.0)}")
    rak = max(1.0, norm_T0 / gap1) if gap1 > 0.0 else math.inf
    return NormBounds(nonexpansive=norm_T0 / (1.0 - q), rakotch=rak)


def lipschitz_bound(t_a: float, t_b: float, mbound: float, q: float) -> float:
    """|t_a - t_b| mbound / (1 - q): how far x_{t_a} and x_{t_b} can lie
    apart when ||T x_t|| <= mbound along [t_a, t_b] and both parameters stay
    in [0, q].  Parameters above q are refused: the denominator 1 - q is
    only valid there."""
    if not 0.0 < q < 1.0:
        raise ArgumentError(f"q must lie in (0, 1), got {q}")
    if not mbound > 0.0:
        raise ArgumentError(f"mbound must be > 0, got {mbound}")
    for t in (t_a, t_b):
        if not 0.0 <= t <= q:
            raise ArgumentError(
                f"parameters must lie in [0, q] = [0, {q}], got {t}")
    return abs(t_a - t_b) * mbound / (1.0 - q)


def check_leray_schauder(T: MappingInstance, x,
                         tol: float = 1e-9) -> float | None:
    """Test the boundary condition T x != lam x (lam > 1) at a boundary
    point x != 0: the violating lam, or None when the condition holds.

    One test: the alignment ratio mu = ||T x|| / ||x|| violates when
    mu > 1 and ||T x - mu x|| <= tol.  It catches every lam that lands
    within tol / 2, in any norm: the triangle inequality, applied twice,
    gives ||T x - mu x|| <= 2 ||T x - lam x|| for every lam.  In one
    dimension mu minimises ||T x - lam x|| over lam, so every lam within
    tol is caught.  x must lie in the closed domain within tol of its
    boundary; x = 0 is refused because 0 is assumed interior, and so is
    an infinite tol, which would pose the condition at interior points.
    """
    if not 0.0 < tol < math.inf:
        raise ArgumentError(f"tol must be finite and > 0, got {tol}")
    norm = T.space.norm
    x = as_point(x, T.space.dimension)
    nx = norm(x)
    if nx == 0.0:
        raise ArgumentError("boundary condition is posed at nonzero x; "
                            "0 is interior")
    if not T.domain.contains(x):
        raise DomainError(f"{x!r} lies outside the closed domain", point=x)
    if T.domain.boundary_distance(x) > tol:
        raise ArgumentError(
            f"{x!r} is not within {tol} of the boundary")
    Tx = T.apply(x)
    mu = norm(Tx) / nx
    return mu if mu > 1.0 and norm(Tx - mu * x) <= tol else None


def _audit_boundary(T: MappingInstance, x: Point, t: float,
                    inner_tol: float):
    """Run the boundary-condition check at the boundary point bx nearest x
    and raise LsViolationError on a hit.  The tolerance,
    max(inner_tol, 1e-11) * max(1, ||bx||), scales with the point, so the
    rounding of a large bx cannot hide a violation, and its floor lies
    above the 1e-12 relative shave with which project pulls a boundary
    point that rounded outside back in.  Points at which the check itself
    is ill-posed (x = 0, no finite boundary face, no boundary point inside
    the closed domain) are left alone."""
    try:
        bx = T.domain.nearest_boundary(x)
        if not T.domain.contains(bx):
            bx = T.domain.project(bx)
        lam = check_leray_schauder(
            T, bx, tol=max(inner_tol, 1e-11) * max(1.0, T.space.norm(bx)))
    except (ArgumentError, DomainError):
        return
    if lam is not None:
        raise LsViolationError(
            f"boundary condition fails at t={t}: T x is {lam} x at "
            f"boundary point {bx!r}", t=t, point=bx, lam=lam)


def _image_norm(T: MappingInstance, x: Point, norm) -> float:
    """||T x||, refused with NonFiniteError when it is NaN or infinite.
    A float_points map is applied to x's float form and the image normed
    in that form, which rounds as the array form does and costs less."""
    y = T.apply(_float_form(x) if T.float_points else x)
    v = norm(y)
    if not math.isfinite(v):
        raise _non_finite(y, x)
    return v


def _path_start(T: MappingInstance, q: float):
    """What trace_path and limit_path share before their first step: the
    norm, 0 (interior to the domain), a finite ||T 0||, the a-priori bounds
    for the cap q (which refuse a modulus flagged admissible with
    phi(1) >= 1), and the entry list holding the path's start (0, 0)."""
    norm = T.space.norm
    zero = np.zeros(T.space.dimension)
    if not T.domain.interior_contains(zero):
        raise DomainError("0 must be interior to the domain", point=zero)
    norm_T0 = _image_norm(T, zero, norm)
    bounds = apriori_norm_bound(norm_T0, q, T.declared_modulus)
    entries = [PathEntry(t=0.0, x=_frozen(zero), inner_residual=0.0,
                         step_bound_used=0.0, r_used=0.0)]
    return norm, zero, norm_T0, bounds, entries


def _path_solve(T: MappingInstance, t: float, x: Point, cfg: PathConfig,
                exit_text: str) -> tuple[Point, float]:
    """solve_at_t for a path point.  An inner iterate leaving the domain
    ends the path: the last inside point is audited for the boundary
    condition, and LsViolationError is raised with "inner solve left the
    domain at t=<t> <exit_text>" when the audit finds no violation."""
    try:
        return solve_at_t(T, t, x, cfg.inner_tol, cfg.max_inner_iter)
    except DomainExitError as exc:
        _audit_boundary(T, exc.last_inside, t, cfg.inner_tol)
        raise LsViolationError(
            f"inner solve left the domain at t={t} {exit_text}", t=t,
            point=exc.last_inside, lam=None) from exc


def trace_path(T: MappingInstance, cfg: PathConfig) -> ContinuationPath:
    """Continue x = t T x from (0, 0) to cfg.target_t.

    Requires 0 in the interior of the domain.  Steps follow step_size with
    a local cap q_eff = max(cfg.q, (1 + t) / 2), which is sound for any cap
    in (t, 1) and keeps steps from collapsing as t crosses cfg.q; maps
    without admissible modulus are still stopped at min(target_t, cfg.q),
    where their norm guarantee ends.  The invariant radius r is capped at
    both 1 and the distance to the domain boundary, so every accepted point
    is interior.

    Each accepted entry records the inner residual, the accepted step and
    the backing radius.  A path pinned against the boundary raises
    LsViolationError when the pin point violates the boundary condition,
    StallError when the step collapses below 1e-14 without a detected
    violation.  NonFiniteError is raised
    when T gives a NaN or infinite image along the way.
    """
    norm, x, mbound_obs, _, entries = _path_start(T, cfg.q)
    target = cfg.target_t
    if not T.declared_modulus.rakotch:
        target = min(target, cfg.q)
    t0 = 0.0
    bd = T.domain.boundary_distance(x)
    while t0 < target:
        norm_Tx = _image_norm(T, x, norm)
        mbound_obs = max(mbound_obs, norm_Tx)
        r = min(bd, 1.0)
        # a point on the boundary has no invariant ball: its step is 0
        q_eff = max(cfg.q, 0.5 * (1.0 + t0))
        step = step_size(r, q_eff, norm_Tx, t0) if r > 0.0 else 0.0
        if step < _STALL_STEP:
            _audit_boundary(T, x, t0, cfg.inner_tol)
            raise StallError(
                f"step collapsed to {step} at t={t0} with no detected "
                "boundary-condition violation", t=t0, point=_frozen(x),
                step=step)
        t1 = min(t0 + step, target)
        x1, res = _path_solve(T, t1, x, cfg,
                              "and no admissible continuation exists")
        entries.append(PathEntry(t=t1, x=x1, inner_residual=res,
                                 step_bound_used=t1 - t0, r_used=r))
        # a solved point hugging the boundary must still satisfy the
        # boundary condition or the continuation is over
        bd = T.domain.boundary_distance(x1)
        if bd <= cfg.inner_tol:
            _audit_boundary(T, x1, t1, cfg.inner_tol)
        t0 = t1
        x = x1
    return ContinuationPath(entries=tuple(entries), q=cfg.q,
                            inner_tol=cfg.inner_tol, mbound=mbound_obs)


def limit_path(T: MappingInstance, cfg: PathConfig, final_tol: float,
               schedule_ratio: float = 0.5) -> ContinuationPath:
    """Drive t -> 1 along t_n = 1 - schedule_ratio^n and certify the limit.

    Requires an admissible declared modulus: the stopping rule uses the
    uniform bound M on ||T x_t|| derived from the a-priori norm bound, and
    stops once (1 - t_n) M / (1 - phi(final_tol)) < final_tol, which
    dominates the distance from x_{t_n} to the limit.  The returned path
    carries the terminal point and its certificate; the limit may sit on
    the boundary, which is reported, not an error.  Different ratios give
    interlaced schedules; their limits must agree, which makes the ratio a
    useful consistency probe.  If t_n rounds to 1.0, or the schedule's 399
    steps run out, before the tail bound drops below final_tol,
    ConvergenceError is raised carrying the last tail bound.
    NonFiniteError is raised when T gives a NaN or infinite image along
    the way.
    """
    if not final_tol > 0.0:
        raise ArgumentError(f"final_tol must be > 0, got {final_tol}")
    if not 0.0 < schedule_ratio < 1.0:
        raise ArgumentError(
            f"schedule ratio must lie in (0, 1), got {schedule_ratio}")
    if not T.declared_modulus.rakotch:
        raise NonRakotchError(
            "the limit t -> 1 is only certified for admissible moduli")
    norm, x, norm_T0, bounds, entries = _path_start(T, cfg.q)
    gap_ft = _one_minus_phi(T.declared_modulus, final_tol, "the limit tail")
    # ||T x_t|| <= phi(||x_t||) ||x_t|| + ||T 0|| <= rakotch bound + ||T 0||
    mb = bounds.rakotch + norm_T0

    t_prev = 0.0
    tail = mb / gap_ft
    for step_no in range(1, 400):
        t_n = 1.0 - schedule_ratio ** step_no
        if t_n >= 1.0:
            raise ConvergenceError(
                f"limit schedule reached t = 1.0 in floating point at step "
                f"{step_no} with tail bound {tail} still >= final_tol "
                f"{final_tol}", tail_bound=tail)
        x, res = _path_solve(T, t_n, x, cfg, "on the limit schedule")
        entries.append(PathEntry(t=t_n, x=x, inner_residual=res,
                                 step_bound_used=t_n - t_prev, r_used=0.0))
        t_prev = t_n
        tail = (1.0 - t_n) * mb / gap_ft
        if tail < final_tol:
            resid = norm(x - T.apply(x))
            if resid > 10.0 * final_tol:
                raise ConvergenceError(
                    f"limit candidate residual {resid} exceeds "
                    f"10 * final_tol", residual=resid)
            on_bd = T.domain.boundary_distance(x) <= final_tol
            cert = LimitCertificate(residual=resid, tail_bound=tail,
                                    schedule_steps=step_no,
                                    on_boundary=on_bd)
            return ContinuationPath(entries=tuple(entries), q=cfg.q,
                                    inner_tol=cfg.inner_tol, mbound=mb,
                                    terminal=(x, cert))
    raise ConvergenceError(
        f"limit schedule exhausted {step_no} steps with tail bound {tail} "
        f"still >= final_tol {final_tol}", tail_bound=tail)


# ---------------------------------------------------------------------------
# serialization


def path_csv(path: ContinuationPath) -> Iterator[str]:
    """Path as CSV pieces: t, coordinates, inner residual, accepted step,
    backing radius.  A terminal record (t = 1 limit) is appended as a
    final row with the certificate residual in the residual column.
    Joined, the pieces are the file's text; written one at a time, they
    hold one chunk of rows whatever the path's length.  Floats are written
    with repr's bytes, computed for a whole chunk at once (see
    picard._csv_text)."""
    d = path.entries[0].x.shape[0]
    t, x, res, step, r = zip(*path.entries)
    if path.terminal is not None:
        x1, cert = path.terminal
        t, x, res, step, r = (t + (1.0,), x + (x1,), res + (cert.residual,),
                              step + (cert.tail_bound,), r + (0.0,))
    return _csv_text(["t", *(f"x{j}" for j in range(d)), "inner_residual",
                      "step_bound_used", "r_used"], [],
                     [np.array(t, dtype=float), *np.array(x, dtype=float).T,
                      *np.array([res, step, r], dtype=float)])
