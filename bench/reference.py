"""A fixed reference task that gauges how fast the host runs a CPU now.

On a shared host the speed a CPU gives the same code moves by up to
1.7x within seconds, and stays low or high for longer than a run (see
``bench/README.md``).  The benchmark therefore times this task on the
CPU of the process under test just before and just after each window,
and corrects the window's timings to the speed at which the task takes
``REF_S``: a window run while the task took twice ``REF_S`` has its
rates doubled and its times halved.

The task shares no code with ``src/``: pure-Python dictionary work and
NumPy gathers on a fixed permutation.
"""

from __future__ import annotations

import os
import time
from statistics import median

import numpy as np

#: ``reference_s()`` on the 2-vCPU host of ``bench/README.md`` at its
#: fastest; corrected timings read as if measured at that speed.
REF_S = 0.0018
PY_STEPS = 10000
NP_STEPS = 10
NP_SIZE = 1 << 14
ROUNDS = 5

# A fixed permutation (7919 is odd, so coprime with the power-of-two
# size) that does not load numpy.random into the process under test.
_BASE = np.arange(NP_SIZE, dtype=np.int64)
_PERM = _BASE * 7919 % NP_SIZE


def _round() -> int:
    table, total = {}, 0
    for i in range(PY_STEPS):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    x = _BASE
    for _ in range(NP_STEPS):
        x = x[_PERM] ^ (x >> 1)
    return total + int(x[0])


def reference_s() -> float:
    """Median seconds of ``ROUNDS`` rounds of the task on this CPU."""
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        _round()
        times.append(time.perf_counter() - t0)
    return median(times)


def reference_on(cpus: set) -> float:
    """``reference_s()`` measured on ``cpus``; the calling process
    moves there for the measurement and back after it."""
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        return reference_s()
    finally:
        os.sched_setaffinity(0, home)


def speeds(refs: list) -> list:
    """The host speed of each window between consecutive reference
    times: ``REF_S`` over the mean of the two times around it."""
    return [2 * REF_S / (before + after)
            for before, after in zip(refs, refs[1:])]
