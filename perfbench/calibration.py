"""Host-speed calibration, so timings from a shared host can be compared.

On a host shared with other tenants the same pass can take twice as long
for tens of seconds at a time while process CPU time tracks wall time, so
neither more passes nor CPU time make a median steady.  A fixed loop of
the operations the library spends its time on (ufuncs on one- and
two-element arrays, float conversion, comparisons, the float formatting
of the report writers) slows down by nearly the same factor.  The benchmark times that loop between config runs and
scales each run by REFERENCE_S / (mean of the loop timings on either
side): the result is the run's duration on a host where the loop takes
REFERENCE_S seconds, which is about its time on this host when it is idle.
The loop uses numpy only, never fixpoint, so no change to the library can
move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.02
_ROUNDS = 6_000


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    x = np.array([0.5])
    v = np.array([0.3, 0.4])
    acc = 0.0
    rows = []
    start = time.perf_counter()
    for i in range(_ROUNDS):
        y = x / (1.0 + x)
        acc += math.sqrt(float(v @ v))
        if 0.0 <= y[0] <= 1.0:
            acc += y[0]
        rows.append(",".join([str(i), repr(float(y[0]))]))
        x = y + 0.5
    "\n".join(rows)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a duration bracketed by two calibration timings
    into reference seconds."""
    return REFERENCE_S / (0.5 * (before + after))
