"""Machine-speed reference for the benchmark's operation latencies.

The benchmark shares its machine with other tenants.  Their load makes the
same computation run up to 40 % slower from one stretch of seconds or
minutes to the next.  On a 2-core x86-64 VM, one geometry report took 1.3 ms
in one 3-second window and 2.2 ms in another, with CPU time equal to wall
time, so the slowdown is in every cycle and not in lost time slices.

So a run times, between its operations, a fixed reference computation made
of Python and numpy only, none of bubblering.  Each operation's latency is
scaled by how fast the reference ran around it:

    scaled = latency * nominal / (median reference sample within WINDOW_S)

where a sample is the fastest of REPEATS timings of the reference.

The scaled latency reads in seconds on a machine where the reference takes
its nominal time.  A change to bubblering cannot move the reference.

Each kind of work slows by its own factor, and which kind slows most changed
from one hour to the next on that VM.  So the reference does a share of each
kind the workloads do: an interpreter loop, numpy calls on small arrays,
elementwise functions and a product on 512 x 512 arrays, and LAPACK on a
128 x 128 matrix.  Over ten 30-second runs per workload on that VM, the
spread (interquartile range over median) of the median latency was 0.025 to
0.045 scaled, against 0.041 to 0.111 in wall time.  In a noisier hour, five
runs of `certify` gave 0.065 scaled against 0.145 in wall time.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

SAMPLE_EVERY_S = 0.5    # at most one reference sample per this interval
WINDOW_S = 3.0          # reference samples within this of an operation
REPEATS = 3             # one sample is the fastest of this many timings


def _kernel():
    """The reference computation: a share of each kind of work the workloads
    do, since the load of other tenants slows each kind by its own factor."""
    rng = np.random.default_rng(0)
    small = rng.random(2000) + 0.5
    big = rng.random((512, 512)) + 0.5
    panel = big[:, :64].copy()
    dense = rng.random((128, 128)) + 50.0 * np.eye(128)

    def run():
        s = 0.0
        for i in range(10000):              # interpreter
            s += i * 0.5
        for _ in range(50):                 # calls on small arrays
            s += float(np.sin(small).sum())
        s += float((np.log(big) * np.sqrt(big) @ panel).sum())   # n^2 arrays
        s += float(np.linalg.svd(dense, compute_uv=False)[0])    # LAPACK
        s += float(np.linalg.solve(dense, small[:128]).sum())
        return s

    return run


# seconds: a fixed constant near the kernel's sample time on the 2-core VM
# named above
NOMINAL_S = 8e-3


class Reference:
    """Samples the reference kernel's time during a run and gives the
    latency scale around any moment of it."""

    def __init__(self):
        self._run = _kernel()
        self._at: list[float] = []
        self._seconds: list[float] = []

    def sample(self, force: bool = False) -> None:
        """Time the kernel, unless a sample is younger than SAMPLE_EVERY_S."""
        now = time.perf_counter()
        if not force and self._at and now - self._at[-1] < SAMPLE_EVERY_S:
            return
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - t0)
        self._at.append(now)
        self._seconds.append(min(times))

    def scale(self, at: float) -> float:
        """nominal / median reference time of the samples within WINDOW_S of
        `at` (the nearest sample if none is)."""
        lo = bisect.bisect_left(self._at, at - WINDOW_S)
        hi = bisect.bisect_right(self._at, at + WINDOW_S)
        if lo == hi:
            near = [j for j in (lo - 1, lo) if 0 <= j < len(self._at)]
            lo = min(near, key=lambda j: abs(self._at[j] - at))
            hi = lo + 1
        return NOMINAL_S / statistics.median(self._seconds[lo:hi])

    def summary(self) -> dict:
        """The reference's own figures, for the report."""
        return {"nominal_s": NOMINAL_S,
                "samples": len(self._seconds),
                "median_s": statistics.median(self._seconds),
                "min_s": min(self._seconds), "max_s": max(self._seconds)}
