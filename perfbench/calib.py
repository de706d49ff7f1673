"""Machine-speed probes: report times at one fixed reference speed.

On a shared machine the same interpreter work runs up to about 30% slower
for stretches of several seconds, and CPU time tracks wall time, so the
slowdown is in the hardware, not in scheduling. quatlin's cost is
interpreted ``Fraction`` arithmetic, so a fixed ``Fraction`` kernel slows
down in step with it. The benchmark runs ``probe()`` between operations,
outside every timed region, and divides each time by the local
``speed_factor`` (probe time over ``REFERENCE_S``). A time reported in ms
therefore means "ms on a machine where the probe takes REFERENCE_S". The
probe never touches quatlin, so any change to quatlin still shows in full.

A new process is different: much of its start-up is exec, page faults
and file reads, which slow down less than interpreted arithmetic. Cold
CLI times are therefore scaled by a bare ``python -c pass`` started just
before each one, to a bare start-up of ``STARTUP_REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# About the median probe time on the reference machine (a 2-CPU 2.1 GHz Xeon guest,
# CPython 3.11.7). Changing it rescales every reported time.
REFERENCE_S = 0.0003
STARTUP_REFERENCE_S = 0.060  # the same for `python -c pass`

_A = [[Fraction(3 * r + c + 1, 7 + r) for c in range(4)] for r in range(4)]
_B = [[Fraction(5 * c - r, 3 + c) for c in range(4)] for r in range(4)]


def probe():
    """Seconds taken by one fixed 4x4 Fraction matrix product."""
    start = time.perf_counter()
    [[sum((_A[r][k] * _B[k][c] for k in range(4)), Fraction(0)) for c in range(4)] for r in range(4)]
    return time.perf_counter() - start


def speed_factor(samples):
    """How much slower than the reference the machine ran while these probes ran."""
    return statistics.median(samples) / REFERENCE_S
