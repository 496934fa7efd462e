"""Host-speed probe: a fixed piece of interpreter-bound work outside amrfv.

On a shared virtual host the speed of one core drifts by a third and more
within minutes, and neither process CPU time nor steal time shows it: both
clocks slow together.  The benchmark therefore times this probe between its
timed runs and scales each run's time by ``REFERENCE_S / probe time``.  The
probe does the kind of work whose speed moves with the host: a scalar Python
bisection (like the closure fallback) and numpy calls on small arrays (like
the per-leaf call overhead of an adaptive mesh).  Large-array numpy work,
bound by memory, moves less, and is left out.

The probe never calls the package, so a change to amrfv does not move it; it
is part of the benchmark and must stay fixed between the commits compared.
"""
from __future__ import annotations

import gc
import time

import numpy as np

# probe time that a scaled time refers to: a scaled second is a wall-clock
# second on a host where ``probe()`` takes this long
REFERENCE_S = 0.15

_SCALAR_ROOTS = 5000
_SMALL_CALLS = 15000
_SMALL = np.linspace(0.0, 1.0, 256).reshape(64, 4)


def _gap(a: float, m1: float, m2: float) -> float:
    return 1e5 + 1500.0**2 * (m1 / a - 1000.0) - 340.0**2 * (m2 / (1.0 - a) - 1.2)


def _scalar(n: int) -> float:
    total = 0.0
    for k in range(n):
        lo, hi, m1 = 1e-9, 1.0 - 1e-9, 0.5 + 1e-4 * k
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _gap(mid, m1, 0.6) > 0:
                lo = mid
            else:
                hi = mid
        total += lo
    return total


def _small(n: int) -> float:
    x = _SMALL
    for _ in range(n):
        x = np.maximum(x * 0.5, 0.1) + _SMALL[:, ::-1]
    return float(x[0, 0])


def probe() -> float:
    """Wall seconds of one pass of the probe."""
    gc.collect()
    t0 = time.perf_counter()
    _scalar(_SCALAR_ROOTS)
    _small(_SMALL_CALLS)
    return time.perf_counter() - t0
