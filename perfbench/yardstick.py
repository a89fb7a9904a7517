"""A fixed reference computation that tells how fast the host runs right now.

The benchmark runs on a shared host whose speed swings by up to 1.9x in
phases of a second to ten minutes, often longer than a whole run. A run
that falls in a slow phase reads slow throughout, so no statistic over one
run's samples removes the swing. The yardstick is run between the timed
operations, on the same CPU and in the same phase. Each timed operation is
divided by the median of the yardstick passes run just before it, and the
gated time is `REFERENCE_S` times the median of these ratios: it reads as
seconds on the reference host at its usual speed. The raw times are printed
and recorded too.

The host's slow phases hit each CPU on its own, so the timed operations and
the yardsticks between them run pinned to one CPU (`pinned`); processes
started meanwhile inherit the pin.

The yardstick uses only Python, numpy and scipy, never bb84sim, so no change
to the package can move it. It mixes the three kinds of work the workloads
do: interpreted Python, scalar scipy.special calls, and numpy passes over
50,000-element columns.
"""

from __future__ import annotations

import contextlib
import os
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.special import betainc

# About the yardstick's median time on the reference host, the 2-vCPU Intel
# Xeon VM (Python 3.11.7, numpy 2.4.6, scipy 1.17.1) where the benchmark was
# defined. The medians of single 45 s runs there ranged from 6 to 12 ms.
REFERENCE_S = 0.008

_rng = np.random.default_rng(20260101)
_COLUMN = _rng.random(50_000)
# Binomial tails near their observed rate, as Clopper-Pearson bounds solve them.
_n = np.rint(10.0 ** _rng.uniform(1.0, 5.0, 2000))
_k = np.floor(_n * _rng.uniform(0.0, 0.3, 2000))
_BETA_ARGS = [(float(n - k), float(k + 1), float(1.0 - min(1.0, (k + 1) / n)))
              for n, k in zip(_n, _k)]


def run_once() -> float:
    """Seconds for one pass of the reference computation."""
    start = perf_counter()
    total = 0
    for i in range(20_000):
        total += (i * i) % 7
    for a, b, x in _BETA_ARGS:
        betainc(a, b, x)
    for _ in range(6):
        np.where(_COLUMN < 0.5, _COLUMN, 1.0 - _COLUMN).sum()
    return perf_counter() - start


class Yardstick:
    """Yardstick passes run just before each timed operation of one run."""

    def __init__(self, passes: int) -> None:
        self.passes = passes
        self.samples: list[float] = []  # every pass, for the record
        self.ratios: list[float] = []  # each operation over its yardstick

    def run(self) -> float:
        """Run the passes now; return their median."""
        times = [run_once() for _ in range(self.passes)]
        self.samples.extend(times)
        return statistics.median(times)

    def pair(self, seconds: float, reference: float) -> None:
        """Record an operation timed right after `run` returned `reference`."""
        self.ratios.append(seconds / reference)

    def scaled(self) -> float:
        """Median operation time in seconds at the reference speed."""
        return REFERENCE_S * statistics.median(self.ratios)


def _current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    try:
        stat = Path("/proc/self/stat").read_text()
        return int(stat.rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return min(os.sched_getaffinity(0))


@contextlib.contextmanager
def pinned():
    """Pin this process to the CPU it is on; restore its affinity after."""
    cpus = os.sched_getaffinity(0)
    cpu = _current_cpu()
    os.sched_setaffinity(0, {cpu if cpu in cpus else min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)
