"""Host-speed calibration: a fixed load timed next to every measured interval.

The benchmark runs on shared virtual machines whose speed drifts by 30% or
more within minutes, and every kind of rpkit check slows or speeds up with it.
A fixed load that needs no rpkit code is timed right before and right after
each measured interval, and the interval is reported in reference seconds:

    wall * REF_S / mean(load time before, load time after)

so a host that runs everything 30% slower for a while leaves the figure
where it was, while a change to rpkit moves it in full.  The load mixes
interpreted Python over ints, tuples and dicts with freshly allocated 8 MB
arrays streamed through memory.  In a trace of six check kinds over two
minutes (reconstruct windows at m = 8, 10, 12, rp-gram at d=3, m=6, green at
12^2 and 16^2), the spread between the per-kind medians of 10-s slices fell
from 10-28% raw to 5-8% normalised this way; either part alone left some kind
at 12-15%.  The load calls no BLAS routine: with two BLAS threads, a small
threaded eigensolver slowed twelvefold when another process competed for the
CPUs, far more than the checks did.  The load raises the workload process's
peak RSS by about 16 MB.
"""

from __future__ import annotations

import time

import numpy as np

# Load time on the machine the benchmark was defined on (medians of 0.014 to
# 0.023 s within an hour on a 2-vCPU virtual machine, Python 3.11, numpy 2.4).
# It only scales the reported figures; comparisons between two commits do not
# depend on it.
REF_S = 0.018


class Calibration:
    """Times the fixed load; call it to get one load time in seconds."""

    def __init__(self):
        self.src = np.random.default_rng(1).normal(size=1_000_000)

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for j in range(40_000):
            acc += j * j
        counts = {}
        for j in range(13_000):
            key = (j % 977, j % 3)
            counts[key] = counts.get(key, 0) + 1
        for _ in range(3):
            (self.src * 1.5).sum()
        return time.perf_counter() - start


def normalise(walls, loads):
    """Reference seconds of each interval; loads[i], loads[i+1] bracket walls[i]."""
    assert len(loads) == len(walls) + 1, (len(loads), len(walls))
    return [w * REF_S * 2.0 / (loads[i] + loads[i + 1]) for i, w in enumerate(walls)]
