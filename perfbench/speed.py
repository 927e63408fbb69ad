"""Machine-speed probe of the benchmark.

The CPU of a shared virtual machine runs at a speed that changes over
seconds to minutes (on the 2-vCPU machine the references were recorded
on, the same test took 0.62 s and 1.15 s a few seconds apart, with CPU
time equal to wall time).  :func:`probe` times a fixed numpy kernel that
does the same kind of work as a test (batched small Gram matrices,
solves, residuals and cumulative sums over T = 240 rows) and uses
nothing from ``breakboot``, so no change to the program can change it.
The timed loop runs it between tests; a test's wall time divided by the
mean of the probes before and after it, times :data:`REF_PROBE_S`, is
the test's time at the reference speed.

Import after the thread pins are set (see ``benchenv.pin_threads``).
"""

from __future__ import annotations

import time

import numpy as np

# Time of one probe on the reference machine in its fast phase.  It only
# sets the scale of the calibrated times: every run divides by the same
# constant, so ratios between runs and commits do not depend on it.
REF_PROBE_S = 0.020
_REPEATS = 12

_rng = np.random.default_rng(20181110)
_X = _rng.standard_normal((64, 240, 6))
_Y = _rng.standard_normal((64, 240, 1))


def probe() -> float:
    """Wall time of one run of the fixed kernel, in seconds."""
    t0 = time.perf_counter()
    for _ in range(_REPEATS):
        gram = np.einsum("bti,btj->bij", _X, _X)
        coef = np.linalg.solve(gram, np.einsum("bti,btj->bij", _X, _Y))
        resid = _Y - _X @ coef
        np.cumsum(resid * resid, axis=1)
    return time.perf_counter() - t0
