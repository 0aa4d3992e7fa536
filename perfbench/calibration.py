"""Host-speed calibration of the benchmark's time metrics.

The shared 2-vCPU host this benchmark was built on switches between speed
regimes that last seconds and differ by up to 1.8x, and drifts over minutes,
in CPU time as much as in wall time.  Wall times of the same work spread up
to 30 % (IQR / median) over ten runs, more than any usable bound.

A fixed kernel timed right after each measured target tracks the speed the
target ran at.  A time multiplied by ``REFERENCE_S / kernel time`` is the time
the work would take on a host where one kernel unit takes ``REFERENCE_S``.
On that host, calibrating target by target brought the ten-seed spread of
``targets_per_s`` and ``target_p50_s`` to 10 % or less.  The kernel uses only
numpy and this file, so no change to cvcluster changes it; the raw wall times
are kept in each run's detail line.
"""

from __future__ import annotations

import time

import numpy as np

#: Time of one kernel unit that defines the reference host speed, about what
#: it takes on one 2.1 GHz Xeon vCPU with one BLAS thread.
REFERENCE_S = 0.003
_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((4, 4))
_DENSE = _RNG.standard_normal((150, 150))
_DENSE_SPD = _DENSE @ _DENSE.T + 150.0 * np.eye(150)
_COV_N = 128
_COV = _RNG.standard_normal((2 * _COV_N, 2 * _COV_N))
_COV = _COV @ _COV.T + 2.0 * _COV_N * np.eye(2 * _COV_N)


def _unit() -> None:
    """One kernel unit, about equal parts of the three kinds of work the
    workloads spend their time in: interpreter-bound small-matrix code (the
    one-mode parameter searches), a dense solve (compile), and Gaussian
    conditioning that shrinks a covariance matrix (the simulator)."""
    eye = np.eye(4)
    for _ in range(70):
        gram = _SMALL @ _SMALL.T + eye
        np.linalg.solve(gram, _SMALL[:, 0])
        sum(x * x for x in _SMALL[0])
    np.linalg.solve(_DENSE_SPD, _DENSE)
    v = np.zeros(2 * _COV_N)
    v[0], v[_COV_N] = 0.6, 0.8
    cv = _COV @ v
    cov = _COV - np.outer(cv, cv) / float(v @ cv)
    keep = [i for i in range(2 * _COV_N) if i not in (0, _COV_N)]
    cov[np.ix_(keep, keep)].sum()


def kernel_seconds(units: int) -> float:
    """Wall time of one kernel unit, averaged over ``units`` in a row."""
    start = time.perf_counter()
    for _ in range(units):
        _unit()
    return (time.perf_counter() - start) / units


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while a kernel unit took ``kernel_s``, at the
    reference host speed."""
    return seconds * REFERENCE_S / kernel_s
