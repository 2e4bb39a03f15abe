"""Host speed probes: fixed pieces of work timed between the ops.

The host this benchmark was built on is shared, and its speed swings by
up to 2x, within a second, as its neighbours load it.  Different kinds of
code slow down by different amounts, so each workload is paired with the
probe that does the same kind of work as its ops:

* ``scalar`` repeats the per-cell path of the package's scalar bracket
  calls (0-d numpy arrays, checks, one ``scipy.special`` call);
* ``array`` draws a block of uniforms and inverts a CDF table with
  ``searchsorted``, as the Monte Carlo harness does per chunk.

Neither calls the package, so a probe's time moves with the host and not
with the code under test.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy import special

_RNG = np.random.default_rng(0)
_TABLE = np.cumsum(np.full(40, 1.0 / 40.0))


def scalar() -> float:
    """Seconds 40 scalar Poisson-CDF-like evaluations take now."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(40):
        x = np.asarray(float(i % 20), dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("probe input must be finite")
        k = np.floor(x)
        v = special.gammaincc(np.maximum(k, 0.0) + 1.0, 3.7)
        acc += float(np.where(k < 0.0, 0.0, v))
    return perf_counter() - t0


def array() -> float:
    """Seconds one 400 x 40 block of table-inverted uniforms takes now."""
    t0 = perf_counter()
    u = _RNG.random((400, 40))
    np.maximum.reduce(np.searchsorted(_TABLE, u), axis=1).sum()
    return perf_counter() - t0


# Typical probe times on the 2-vCPU Xeon host this benchmark was built on;
# timings are reported as if every probe had taken this long.
NOMINAL_S = {scalar: 0.8e-3, array: 1.1e-3}
