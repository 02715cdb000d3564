"""Machine-speed calibration.

On a shared host the CPU time of the same job drifts by +-30% within
seconds as neighbours load the caches and cores.  The drift is common to
everything running at that moment, so the benchmark runs a small fixed
piece of work (pure-Python arithmetic and dict updates plus a NumPy
broadcast, the two kinds of work the jobs do) right before and after
every timed job, and rescales the job's CPU time to the speed at which
this calibration takes REFERENCE_S.  Measured on 2 vCPUs of a shared
Xeon host, this cut the run-to-run spread of 10-job averages two- to
threefold.  Reported times are therefore "CPU seconds at reference
speed"; raw CPU and wall times are kept in the results file.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.006

_Z = (np.arange(64 * 400, dtype=float).reshape(64, 400) % 17) * (1 + 1j)


def calibrate() -> float:
    """CPU seconds taken by the fixed calibration work."""
    c0 = time.process_time()
    acc, table = 0, {}
    for i in range(30000):
        acc += i * i % 7
        table[i % 97] = table.get(i % 97, 0) + i
    for _ in range(3):
        acc += float(np.abs(_Z[:, None, :8] - _Z[None, :, :8]).min())
    return time.process_time() - c0


def rescale(cpu_s: float, before: float, after: float) -> float:
    """A job's CPU time at reference speed, from the calibrations that
    bracket it."""
    return cpu_s * REFERENCE_S / (0.5 * (before + after))
