"""Calibration kernel: a fixed computation that tracks the machine's speed.

On a shared host the same computation runs up to a third slower or faster
from one minute to the next, as other tenants load the cores and caches.
That drift moves most CPU work running at the same moment alike: in twelve
fresh processes on a 2-vCPU Xeon, each timing a 64x128 ``verify`` call
and this kernel alternately for 5 s, the mean ``verify`` time spread by
20% (interquartile range over median) and its ratio to the kernel by 3%.

So the benchmark times this kernel between operations (``Calibrator``),
for 5% of the run, and scales each operation's time by ``REFERENCE_S``
over the mean kernel time of the probes around it: the result is the
operation's time at the speed at which the kernel takes ``REFERENCE_S``.
The kernel uses numpy and Python only, never warpflow, so a change to
warpflow moves the scaled times by as much as it moves the raw ones.  Its
parts mirror what warpflow spends time on, weighted by how well they
followed warpflow's timings: transcendental functions and temporaries
over a 1 MB array (the radial quadrature of the warp; most of the time,
as contention for the shared cache slows it as much as warpflow), an
offset loop of small ufunc calls (the circulant stencils) and plain
Python (argument parsing).
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.007        # the kernel's time at the nominal speed (seconds)
NEIGHBOURS = 1             # probes used on each side of an operation, at least
PROBE_SHARE = 0.05         # share of the run's time spent in probes


class Kernel:
    """The fixed work; one ``run`` takes about 7 ms on a 2-vCPU Xeon."""

    def __init__(self):
        rng = np.random.default_rng(20230301)
        self.u = rng.standard_normal((64, 128))
        self.d = rng.standard_normal(64)
        self.r = 1.0 + 0.1 * rng.random((8, 64, 256))
        self.words = [f"--opt{i}={i * 7 % 13}" for i in range(300)]

    def run(self) -> float:
        u, P = self.u, self.u.shape[-1]
        doubled = np.concatenate([u, u], axis=-1)
        acc = np.zeros_like(u)
        tmp = np.empty_like(u)
        for o in range(1, P // 2):
            np.subtract(doubled[:, P - o:2 * P - o], doubled[:, o:o + P], out=tmp)
            np.multiply(tmp, self.d[o], out=tmp)
            np.add(acc, tmp, out=acc)
        quad = 0.0
        for _ in range(3):
            s = np.sinh(self.r)
            quad += float(np.sum(s * s * np.cosh(self.r) / np.sqrt(1.0 + s * s)))
        parsed = {}
        for _ in range(6):
            for word in self.words:
                key, _, value = word.partition("=")
                parsed[key.lstrip("-")] = int(value)
        return float(acc[0, 0]) + quad + sum(parsed.values())


class Calibrator:
    """Kernel probes on a timeline, and the local speed factor of any interval."""

    def __init__(self):
        self.kernel = Kernel()
        self.kernel.run()                      # first call warms the caches
        self.mids: list[float] = []            # probe midpoints, increasing
        self.times: list[float] = []           # probe durations
        self.since: float | None = None        # first probe_between_ops call
        self.probe_s = 0.0                     # probe time since then
        self.cold = False                      # caches were just evicted

    def mark_cold(self) -> None:
        """Say that other processes just ran: the next probe warms up first,
        since the first kernel call after them finds its data evicted."""
        self.cold = True

    def probe(self) -> float:
        if self.cold:
            self.kernel.run()
            self.cold = False
        t0 = time.perf_counter()
        self.kernel.run()
        t1 = time.perf_counter()
        self.mids.append(0.5 * (t0 + t1))
        self.times.append(t1 - t0)
        return t1 - t0

    def probe_between_ops(self) -> None:
        """One probe, then more until the probes have taken ``PROBE_SHARE``
        of the time since the first call.  Called before every operation,
        so each operation has a probe right before and right after it, and
        a long operation is followed by a cluster of probes."""
        if self.since is None:
            self.since = time.perf_counter()
        self.probe_s += self.probe()
        while self.probe_s <= PROBE_SHARE * (time.perf_counter() - self.since):
            self.probe_s += self.probe()

    def local_kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time of the probes within one interval length of
        ``[start, end]`` on either side, and at least the ``NEIGHBOURS``
        probes right before ``start`` and right after ``end`` (fewer at the
        ends of the run).

        The kernel's time flickers by a third from one 50 ms stretch to the
        next: a short operation is compared with the probes next to it, a
        long one with probes spread over a stretch as long as itself.  The
        mean, not the median, because an operation's time is the sum of
        the fast and slow stretches it spans."""
        span = end - start
        lo = min(max(0, bisect.bisect_left(self.mids, start) - NEIGHBOURS),
                 bisect.bisect_left(self.mids, start - span))
        hi = max(bisect.bisect_right(self.mids, end) + NEIGHBOURS,
                 bisect.bisect_right(self.mids, end + span))
        near = self.times[lo:hi]
        if not near:
            raise ValueError("no calibration probe near the interval")
        return statistics.fmean(near)

    def overall_factor(self) -> float:
        """Reference kernel time over the median time of every probe."""
        return REFERENCE_S / statistics.median(self.times)

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed."""
        return seconds * REFERENCE_S / self.local_kernel_s(start, start + seconds)

    def summary(self) -> dict:
        qs = statistics.quantiles(self.times, n=4) if len(self.times) > 1 else self.times * 3
        med = statistics.median(self.times)
        return {"probes": len(self.times), "kernel_ms_p50": 1e3 * med,
                "kernel_iqr_frac": (qs[-1] - qs[0]) / med if med else math.nan}
