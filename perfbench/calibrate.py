"""A fixed calibration kernel that measures the machine's current speed.

The benchmark's timings are scaled by how fast this kernel runs next to
them.  On a shared VM the same work runs up to 60% slower for minutes
at a time.  A kernel timed just before and just after each pass slows
down with it: on the 2-vCPU tuning VM, pass wall clock and kernel time
had a correlation of 0.8 over five minutes, and the per-pass spread fell
from 0.24 to 0.13 once scaled.

The kernel mixes what the program spends its time on: interpreter
work, many small NumPy calls and one sort over a medium array.  It
imports nothing from the program, so a change to the program cannot
move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: The kernel time that defines one reference millisecond: a timing of
#: ``t`` ms next to a kernel median of ``k`` seconds is reported as
#: ``t * KERNEL_REF_S / k`` reference ms.
KERNEL_REF_S = 1.0e-3

_RNG = np.random.default_rng(20180101)
_SMALL = _RNG.random((64, 32))
_LARGE = _RNG.random(20_000)


def kernel() -> float:
    """One fixed unit of mixed interpreter and NumPy work."""
    total = 0.0
    for row in range(256):
        total += float(_SMALL[row % 64].sum())
    order = np.argsort(_LARGE)
    total += float(np.cumsum(_LARGE[order])[-1])
    for step in range(2000):
        total += step * 0.5
    return total


def kernel_seconds(repeats: int = 40) -> float:
    """Median wall clock of ``repeats`` kernel runs."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)
