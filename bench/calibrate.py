"""Machine-speed calibration: fixed reference work timed alongside every measurement.

On a small shared host the speed available to one process changes by up to
2x from one second to the next, far more than the effects the benchmark must
resolve.  Every time the benchmark reports is therefore rescaled by the time
of a fixed reference task measured right before and right after it:

    reported = measured * nominal / mean(reference before, reference after)

Two references match the two kinds of timed work:

* ``sample``: a loop of small complex numpy operations driven from Python,
  the kind of work eprkit does, for in-process op times;
* ``startup_sample``: a fresh interpreter that imports numpy and exits, for
  the times that start processes (``setup_s`` and ``cold_cli_s.p50``).

Contention slows the reference and the measured work alike and cancels in the
ratio, while a change to eprkit changes only the numerator.  The nominal
times are constants, the references' uncontended times on the machine of
``baseline.json``, so reported times read as times on that machine when it is
quiet.  Raw wall times are kept next to them in the run's detail record.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

NOMINAL_S = 0.0015
ITERATIONS = 40
STARTUP_NOMINAL_S = 0.16

_A = np.array([[1, 2j], [-2j, 3]], dtype=complex)
_B = np.array([[0.5, 1], [1, -0.5]], dtype=complex)


def sample() -> float:
    """Seconds the fixed loop takes now: the faster of two runs.

    A single short run is sometimes caught by a pause of a few milliseconds
    that says nothing about the speed around it.
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        for _ in range(ITERATIONS):
            np.trace(np.kron(_A, _B) @ np.kron(_B, _A))
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two samples into a reported time."""
    return 2 * NOMINAL_S / (before + after)


def startup_sample(env: dict) -> float:
    """Seconds a fresh interpreter takes now to import numpy and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=60)
    return time.perf_counter() - start


def startup_scale(before: float, after: float) -> float:
    """``scale`` for a process start-up measured between two ``startup_sample`` calls."""
    return 2 * STARTUP_NOMINAL_S / (before + after)
