"""The calibration kernel that request times are divided by.

Host drift on a shared machine moves whole runs by tens of percent.  The
benchmark runs this fixed kernel between requests, while no nsbf call is in
flight, and reports request times in units of its median time.  It mixes the
two kinds of work the nsbf layers do: interpreter-bound calls on small numpy
arrays, and a vectorised pass over a ``longdouble`` array.  The kernel never
changes; a change that slows it shows in the raw milliseconds that every run
prints beside the calibrated figures.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

_RECURRENCE = 24
_SMALL = np.linspace(0.1, 1.0, _RECURRENCE)
_WIDE = np.linspace(0.0, 1.0, 6000, dtype=np.longdouble)
_BUFFERS = (np.empty_like(_WIDE), np.empty_like(_WIDE))
_SCALAR_CALLS = 300
_ARRAY_PASSES = 8
#: the kernel's median time on the machine the benchmark was made on (2-core
#: x86-64 sandbox, Python 3.11, numpy 2.4); set-up times are reported in
#: seconds at this kernel speed
REFERENCE_S = 2.7e-3


def kernel() -> float:
    """One pass of the fixed calibration work; returns a checksum."""
    acc = 0.0
    # scalar work shaped like one series evaluation: a three-term recurrence
    # in Python floats, a cmath call and a short numpy dot product
    out = np.zeros(_RECURRENCE)
    for i in range(_SCALAR_CALLS):
        z = 30.0 + 0.37 * i
        jm, jc = math.sin(z) / z, math.sin(z) / (z * z) - math.cos(z) / z
        out[0] = jm
        for n in range(1, _RECURRENCE):
            jm, jc = jc, (2 * n + 1) / z * jc - jm
            out[n] = jc
        acc += float(np.dot(out, _SMALL))
        acc += abs(cmath.exp(1j * z)) + math.sqrt(i + 1.0)
    # into preallocated buffers: heap churn here would move the measured
    # process's peak memory
    square, denom = _BUFFERS
    for k in range(1, _ARRAY_PASSES + 1):
        np.multiply(_WIDE, _WIDE, out=square)
        np.cumsum(square, out=square)
        np.multiply(_WIDE, k, out=denom)
        denom += 1.0
        np.divide(square, denom, out=square)
        acc += float(square[-1])
    return acc


def timed_kernel() -> float:
    """Seconds one kernel pass takes."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
