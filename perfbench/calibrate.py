"""Machine-speed reference for scaling measured times.

The benchmark runs on a shared 2-core virtual machine whose speed drifts with
the load of its neighbours: one fixed n = 100 replicate took 63-204 ms within
a single minute, and 7-second blocks of repeats varied by 14 % (CV) in wall
time and in CPU time alike.  A short fixed task that does not touch lmomdiv,
timed between the operations, slows down with the machine: the ratio of the
same blocks to it varied by 1.8 %.  Each operation run in the benchmark
process is therefore scaled by ``NOMINAL_S / reference time``, which reads as
seconds on the machine at the speed it had when the benchmark was defined.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.integrate
import scipy.optimize

#: median reference time on the defining machine (2 vCPUs, Python 3.11,
#: numpy 2.4, scipy 1.17); it fixes the unit, not the result of a comparison
NOMINAL_S = 0.0035


def reference_task() -> float:
    """Python bytecode, small numpy arrays and scipy calls, like a fit."""
    x = np.linspace(0.1, 2.0, 100)
    acc = 0.0
    for i in range(60):
        acc += float(np.sum(np.log1p(x * (i + 1))))
        acc += scipy.integrate.quad(lambda t: np.exp(-t * t) * (1.0 + i * 1e-3),
                                    0.0, 3.0)[0]
        acc += sum(k * k for k in range(300)) * 1e-12
    res = scipy.optimize.minimize(
        lambda v: (v[0] - 1.0) ** 2 + (v[1] + 2.0) ** 2 + 0.1 * v[0] * v[1],
        [0.0, 0.0], method="Nelder-Mead")
    return acc + float(res.fun)


def probe() -> float:
    """Wall seconds of the reference task, the least of three runs.

    A single run right after a child process exits can take 3-6 times as
    long; the least of three keeps a slow phase and drops such a stall.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference_task()
        best = min(best, time.perf_counter() - t0)
    return best
