"""Calibration kernel that corrects job times for the host's drifting speed.

The benchmark host runs other tenants. Over tens of seconds its speed for
this single-threaded Python and numpy work drifts by up to a factor of two,
far more than the changes the benchmark must resolve. A fixed kernel is
timed before every job and once after the last; each job's latency is
divided by the kernel's slowdown around it (the mean of the passes just
before and just after the job, relative to NOMINAL_S, the kernel's time on
a quiet host). Reported times are then quiet-host times, and runs taken at
different moments compare. The raw times are printed next to them.

The kernel imitates the instruction mix of toruslab's hot paths: exact
Fraction dot products of small modes held in dicts, then a small complex
exponential table in numpy. It does not call toruslab, and it is part of the
benchmark's definition: changing it or NOMINAL_S changes every reported
time.

The kernel runs in the measuring process, between jobs. The correction
therefore assumes that the program leaves no process state that slows the
kernel itself: a program change that slows the whole process (a trace hook
left installed, changed garbage-collector thresholds, a heap that makes
every allocation slower) would slow the kernel too and cancel out of the
corrected times. run.py prints the raw figures next to the corrected ones;
when comparing two commits, check that the raw and corrected job_p50_ms
ratios agree.
"""

from __future__ import annotations

import statistics
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.002  # kernel_seconds() on a quiet 2-vCPU Xeon host

with localcontext() as _ctx:
    _ctx.prec = 40
    _CUBE = Decimal(2) ** (Decimal(1) / Decimal(3))
    _ALPHA = (Fraction(1), Fraction(_CUBE), Fraction(_CUBE * _CUBE))
_X = np.linspace(0.0, 1.0, 300)[:, None]
_M = np.arange(2.0)[None, :]


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed calibration kernel."""
    start = time.perf_counter()
    acc = 0.0
    for n1 in range(-3, 4):
        for n2 in range(-3, 4):
            n = (n1, n2, 1)
            modes = {n: complex(n1, n2), tuple(-v for v in n): complex(n1, -n2)}
            dot = Fraction(0)
            for v, a in zip(n, _ALPHA):
                if v:
                    dot += v * a
            acc += float(dot) * abs(modes[n])
    for _ in range(40):
        acc += float(np.sum(np.exp(2j * np.pi * _X * _M).real))
    return time.perf_counter() - start


def slowdowns(kernel_times: list[float]) -> list[float]:
    """Slowdown of each job from the kernel passes before and after it.

    kernel_times has one pass before every job plus one after the last, so
    n + 1 passes give n slowdowns.
    """
    return [(a + b) / (2.0 * NOMINAL_S) for a, b in zip(kernel_times, kernel_times[1:])]


def host_slowdown(passes: int = 3) -> float:
    """Slowdown right now, from the median of several kernel passes."""
    kernel_seconds()  # first pass warms caches
    return statistics.median(kernel_seconds() for _ in range(passes)) / NOMINAL_S


class Probe:
    """Slowdown samples taken during a timed stretch, and the time they took.

    Set-up lasts under a second and the host's speed changes within it, so
    it is sampled at several points rather than once around it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(host_slowdown())
        self.spent += time.perf_counter() - start

    def slowdown(self) -> float:
        return statistics.fmean(self.samples)
