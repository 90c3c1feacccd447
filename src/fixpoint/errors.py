"""Exception hierarchy for the fixpoint package.

Every error raised by this package derives from FixpointError, so callers can
catch one type at the boundary.  Errors that correspond to a numerical event
(domain exit, stalled path, boundary-condition violation) carry the offending
data as attributes so reports can be written without re-running anything.
"""

from __future__ import annotations


class FixpointError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(FixpointError, ValueError):
    """An argument fails a documented precondition."""


class ConfigError(FixpointError, ValueError):
    """A config file could not be parsed or validated, or the output
    directory of its run could not be written.

    Messages are prefixed with ``<path>:<line>`` where a line is known.
    """


class UnknownMapError(FixpointError, KeyError):
    """A map name is not present in the gallery registry."""


class DomainError(FixpointError, ValueError):
    """A supplied point lies outside the domain it was required to be in."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class NonRakotchError(FixpointError):
    """A bound that needs a strictly contractive modulus was asked of a
    modulus with phi(t) >= 1 at the required argument."""


class NonselfExitError(FixpointError):
    """An exact orbit left the domain before reaching its tolerance.

    Attributes
    ----------
    orbit : the partial orbit up to and including the exiting point.
    """

    def __init__(self, message: str, orbit=None):
        super().__init__(message)
        self.orbit = orbit


class ConvergenceError(FixpointError):
    """An iteration hit its step budget before meeting its tolerance.

    Attributes
    ----------
    residual : the last residual observed.
    tail_bound : for the t -> 1 limit schedule, the last tail bound reached.
    """

    def __init__(self, message: str, residual: float | None = None,
                 tail_bound: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.tail_bound = tail_bound


class DomainExitError(FixpointError):
    """An inner solve produced an iterate outside the closed domain.

    Attributes
    ----------
    t : homotopy parameter at which the exit happened.
    point : the iterate that left the domain.
    last_inside : the final iterate that was still inside.
    """

    def __init__(self, message: str, t: float | None = None, point=None,
                 last_inside=None):
        super().__init__(message)
        self.t = t
        self.point = point
        self.last_inside = last_inside


class NonFiniteError(FixpointError):
    """A map sent a point of its domain to a NaN or infinite image (or an
    infinite residual).  point is that image, last_inside the point."""

    def __init__(self, message: str, point=None, last_inside=None):
        super().__init__(message)
        self.point = point
        self.last_inside = last_inside


class LsViolationError(FixpointError):
    """The boundary condition T x != lam * x (lam > 1) failed on the
    boundary, so the continuation cannot pass the reported parameter.

    Attributes
    ----------
    t : parameter value at which the violation was detected.
    point : boundary point witnessing the violation.
    lam : the scalar lam > 1 with T x close to lam * x.
    """

    def __init__(self, message: str, t: float | None = None, point=None,
                 lam: float | None = None):
        super().__init__(message)
        self.t = t
        self.point = point
        self.lam = lam


class StallError(FixpointError):
    """The path step size collapsed (below 1e-14) without a detected
    boundary-condition violation.

    Attributes
    ----------
    t : parameter value where the path stalled.
    point : current path point.
    step : the step size that triggered the stall.
    """

    def __init__(self, message: str, t: float | None = None, point=None,
                 step: float | None = None):
        super().__init__(message)
        self.t = t
        self.point = point
        self.step = step
