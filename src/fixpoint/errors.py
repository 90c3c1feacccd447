"""Exception hierarchy for the fixpoint package.

Every error raised by this package derives from FixpointError, so callers can
catch one type at the boundary.  Errors that correspond to a numerical event
(domain exit, stalled path, boundary-condition violation) carry the offending
data as attributes so reports can be written without re-running anything.
"""

from __future__ import annotations


class FixpointError(Exception):
    """Base class for all errors raised by this package.

    A subclass lists in payload the attributes that carry the data of its
    event, in the order error.txt reports them.  The constructor sets each
    from the keyword of its name, None when that is absent, and refuses
    any other keyword with TypeError.
    """

    payload: tuple[str, ...] = ()

    def __init__(self, message: str, **payload):
        unknown = payload.keys() - self.payload
        if unknown:
            raise TypeError(f"{type(self).__name__} takes no payload "
                            f"{', '.join(sorted(unknown))}")
        super().__init__(message)
        for name in self.payload:
            setattr(self, name, payload.get(name))


class ArgumentError(FixpointError, ValueError):
    """An argument fails a documented precondition."""


class ConfigError(FixpointError, ValueError):
    """A config file could not be parsed or validated, or the output
    directory of its run could not be written.

    Messages are prefixed with ``<path>:<line>`` where a line is known.
    """


class UnknownMapError(FixpointError, KeyError):
    """A map name is not present in the gallery registry."""

    # the message as given, not the repr KeyError makes of it
    __str__ = Exception.__str__


class DomainError(FixpointError, ValueError):
    """A supplied point lies outside the domain it was required to be in."""

    payload = ("point",)


class NonRakotchError(FixpointError):
    """A bound that needs a strictly contractive modulus was asked of a
    modulus with phi(t) >= 1 at the required argument."""


class NonselfExitError(FixpointError):
    """An exact orbit left the domain before reaching its tolerance.
    orbit is the partial orbit up to and including the exiting point; it
    is reported in orbit.csv, not as payload."""

    def __init__(self, message: str, orbit=None):
        super().__init__(message)
        self.orbit = orbit


class ConvergenceError(FixpointError):
    """An iteration hit its step budget before meeting its tolerance:
    residual is the last residual observed, tail_bound, for the t -> 1
    limit schedule, the last tail bound reached."""

    payload = ("residual", "tail_bound")


class DomainExitError(FixpointError):
    """An inner solve produced an iterate outside the closed domain: at
    homotopy parameter t, the iterate point left it, and last_inside is
    the final iterate that was still inside."""

    payload = ("t", "point", "last_inside")


class NonFiniteError(FixpointError):
    """A map sent a point of its domain to a NaN or infinite image (or an
    infinite residual).  point is that image, last_inside the point."""

    payload = ("point", "last_inside")


class LsViolationError(FixpointError):
    """The boundary condition T x != lam * x (lam > 1) failed on the
    boundary, so the continuation cannot pass the reported parameter: t
    is where the violation was detected, point the boundary point that
    witnesses it, lam the scalar lam > 1 with T x close to lam * x (None
    when an inner solve left the domain with no violation found)."""

    payload = ("t", "lam", "point")


class StallError(FixpointError):
    """The path step size collapsed (below 1e-14) without a detected
    boundary-condition violation: t is the parameter where the path
    stalled, step the step size that triggered the stall, point the
    current path point."""

    payload = ("t", "step", "point")
