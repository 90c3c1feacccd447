"""The frozen reference for the declared arithmetic, shared by the tests:
the Euclidean norm written out on Python floats, the root of a sum of
squares added left to right with each operation rounded once, and the
bitwise comparison of two doubles.  A fix to the declared arithmetic is
made here once.  Also the modulus audit written out as Python loops over
the grid, the reference for check_modulus_admissible's array form.
"""

import math

import numpy as np

from fixpoint.errors import ArgumentError


def same_float(a: float, b: float) -> bool:
    """a and b are the same double: equal with the same sign, or both
    NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _floats(v) -> list[float]:
    return np.asarray(v, dtype=float).tolist()


def written_root(v) -> float:
    """The root of the sum of the squares of v's floats, added left to
    right, each operation rounded once; no renorm."""
    s = 0.0
    for a in _floats(v):
        s += a * a
    return math.sqrt(s)


def written_norm(v) -> float:
    """written_root, taken again in v's own units (v over the power of
    two at its largest magnitude) and scaled back where it fell below
    2^-511 or overflowed for a finite nonzero v, as the Euclidean norm
    takes a square that left the normal floats."""
    v = _floats(v)
    r = written_root(v)
    if 2.0 ** -511 <= r < math.inf or not all(map(math.isfinite, v)) \
            or not any(v):
        return r
    top = max(map(abs, v))
    unit = math.ldexp(1.0, math.frexp(top)[1] - 1)
    return written_root([a / unit for a in v]) * unit


def written_admissibility(m, grid):
    """(grid, monotonicity_violations, not_below_one) of the audit of the
    modulus m on grid, each a tuple of Python floats or of pairs of them,
    by loops over the grid's floats."""
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
    return tuple(g), mono, above
