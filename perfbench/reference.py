"""A fixed reference kernel that tracks the host's speed during a run.

The host the benchmark runs on is shared: the same CPU-bound code runs up to
1.5 times slower for seconds to minutes at a time, one CPU at a time. The
kernel here is a fixed piece of work that depends on nothing in the program.
The benchmark times it SAMPLES times on the CPU its repetitions run on just
before, and SAMPLES times just after, each repetition. It scales the
repetition's times by ``NOMINAL_S`` over the median of those timings: the
times the repetition would have taken with the host at its nominal speed.
The median keeps one interrupted timing from moving the scale.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median time on the host the bounds in BENCHMARK.json were set
# on: a 2-vCPU Intel Xeon virtual machine, numpy 2.4, one BLAS thread.
NOMINAL_S = 0.0275
SAMPLES = 4

_X = np.random.default_rng(0).standard_normal(20000)


def _kernel_s() -> float:
    """Seconds for element-wise updates on 20,000 doubles, an ensemble's size."""
    x = _X.copy()
    t0 = time.perf_counter()
    for _ in range(150):
        x = x + 0.001 * (x - x**3)
        np.sqrt(np.abs(x), out=x)
    return time.perf_counter() - t0


def samples_s() -> list:
    """SAMPLES timings of the kernel, in seconds."""
    return [_kernel_s() for _ in range(SAMPLES)]
