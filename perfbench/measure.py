"""Small measurement helpers shared by the workloads: the tail-percentile
rule, peak memory and the host-speed probe that time metrics are scaled by."""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

#: A reported tail percentile must leave at least this many samples beyond
#: it, so that one or two stragglers cannot set it on their own.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail percentile as reported: its value, the percentile level it
    really is, the sample count and how many samples lie beyond it."""

    value: float
    level: float
    samples: int
    beyond: int

    def describe(self) -> str:
        if self.beyond < TAIL_BEYOND:
            return (f"median of {self.samples} samples (too few for a tail "
                    f"with {TAIL_BEYOND} beyond it)")
        return (f"p{self.level:.2f} of {self.samples} samples, "
                f"{self.beyond} beyond it")


def tail(values: Sequence[float], q: float = 99.0) -> Tail:
    """The ``q``-th nearest-rank percentile, lowered to the highest
    percentile that still has :data:`TAIL_BEYOND` samples beyond it.

    With too few samples for any such percentile the median is reported,
    the only order statistic that one sample cannot set, and
    :meth:`Tail.describe` says so.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail() of an empty sample")
    k = min(max(math.ceil(q / 100.0 * n) - 1, 0), n - 1 - TAIL_BEYOND)
    if k < 0:
        return Tail(value=float(statistics.median(xs)), level=50.0,
                    samples=n, beyond=n // 2)
    return Tail(value=float(xs[k]), level=100.0 * (k + 1) / n,
                samples=n, beyond=n - 1 - k)


def windowed_tail(dues: Sequence[float], values: Sequence[float],
                  seconds: float, windows: int, q: float = 99.0):
    """Median over ``windows`` equal slices of [0, seconds), by due time,
    of each slice's :func:`tail`; returns it with the slice tails.

    A tail set by a few stalls moves with every passing hiccup of a shared
    host; the median of per-slice tails ignores one or two hit slices."""
    slices: List[List[float]] = [[] for _ in range(windows)]
    for due, v in zip(dues, values):
        slices[min(int(due / seconds * windows), windows - 1)].append(v)
    tails = [tail(s, q) for s in slices]
    return statistics.median(t.value for t in tails), tails


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for
    child (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


#: Probe time (ms) of the reference host speed.  Time metrics are reported
#: in reference seconds: wall seconds times ``PROBE_REF_MS`` over the probe
#: time measured beside them, i.e. the wall time the work would take on a
#: host whose probe runs in exactly ``PROBE_REF_MS``.
PROBE_REF_MS = 2.5


class HostSpeed:
    """How fast the host runs right now, from a fixed probe.

    A shared host speeds up and slows down by 15-30% over seconds as its
    neighbours' load changes, which moves every wall time of a run
    together.  The probe (a fixed numpy sort and a fixed Python loop, about
    2.5 ms) is run beside the measured work while the program is idle, and
    each wall time is scaled by ``PROBE_REF_MS / probe``.  A change to the
    program cannot change the probe's own work; it can only slow it by
    leaving load running while it is idle, which shows as a higher
    ``host.calib_ms``.
    """

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).random(1 << 16)
        self.samples: List[float] = []

    def probe(self) -> float:
        """Run the probe once; returns and records its time in ms."""
        t0 = time.perf_counter()
        for _ in range(2):
            np.cumsum(np.sort(self._data))
        acc = 0
        for i in range(10000):
            acc += i * i
        ms = (time.perf_counter() - t0) * 1e3
        self.samples.append(ms)
        return ms

    def probe3(self) -> float:
        """Median of three probes: one probe can catch a passing hiccup."""
        return statistics.median(self.probe() for _ in range(3))

    @staticmethod
    def scale(seconds: float, probe_ms: float) -> float:
        """``seconds`` of wall time in reference seconds."""
        return seconds * PROBE_REF_MS / probe_ms

    def median_ms(self) -> float:
        return statistics.median(self.samples)
