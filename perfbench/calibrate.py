"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over minutes (the host's other tenants, frequency changes), which
swamps most changes made to the program.  So the benchmark
times a fixed set of small kernels, written here and never touched by the
program, before and after every timed span (one iteration of a workload,
one set-up process) and scales the span to a fixed reference speed:
``span * REFERENCE / kernel time``.  A program change leaves the
kernels' time as it is, so it shows in full; a machine slowdown stretches
both and cancels.

No one kernel tracks every workload (the trial engine is interpreter-bound,
the heatmap workloads numpy-bound), so the factor is the geometric mean
over kernels of different kinds.  On a 2-vCPU Xeon guest, over two sets
of ten 20 s runs per workload, the quartile spread of the raw trials/s was
9-36% of the median; after this scaling it was 6-10%.  What is left is
mostly the workloads' sensitivity to the host's state differing from the
kernels'.
"""

from __future__ import annotations

import math
import time

import numpy as np

_MASK = (1 << 64) - 1


def _int_hash(n: int = 6000) -> float:
    """Interpreter-bound integer and float arithmetic (a SplitMix64 loop)."""
    z, acc = 1, 0.0
    for _ in range(n):
        z = (z + 0x9E3779B97F4A7C15) & _MASK
        x = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        acc += (x >> 11) * (1.0 / (1 << 53))
    return acc


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x, self.y = x, y


def _objects(n: int = 1500) -> float:
    """Interpreter-bound object, dict and sort work, with numpy scalars."""
    table: dict[int, _Point] = {}
    acc = 0.0
    for i in range(n):
        p = _Point(i * 0.5, i * 0.25)
        table[i % 97] = p
        q = table.get((i * 7) % 97)
        if q is not None:
            acc += q.x * p.y - q.y * p.x
        if i % 50 == 0:
            acc += float(np.float64(p.x))
    order = sorted(range(n), key=lambda v: (v * 31) % 101)
    return acc + order[0]


class _Arrays:
    """Numpy kernels: a bilinear gather on a 128x128 grid of nodes, and a
    streaming reduction over 8 MB (past the L2 cache)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.data = rng.random((64, 64))
        self.xq = rng.random(128 * 128) * 62
        self.yq = rng.random(128 * 128) * 62
        self.big = rng.random(1_000_000)

    def gather(self) -> float:
        total = 0.0
        for _ in range(2):
            x0, y0 = np.floor(self.xq), np.floor(self.yq)
            dx, dy = self.xq - x0, self.yq - y0
            xi, yi = x0.astype(np.int64), y0.astype(np.int64)
            v = (self.data[yi, xi] * ((1 - dx) * (1 - dy)) + self.data[yi + 1, xi] * dy
                 + self.data[yi, xi + 1] * dx)
            e = np.exp(-((np.arange(48)[None, :] - dx[:1]) ** 2))
            total += float(v[0] + e[0, 0])
        return total

    def stream(self) -> float:
        return float(self.big.sum()) + float(self.big[::7].sum())


# Seconds each kernel takes, as the minimum of REPS calls, at the reference
# speed: medians measured on a 2-vCPU Intel Xeon guest (Python 3.11,
# numpy 2).  They only fix the scale of the reported numbers.
REFERENCE = (0.002287, 0.001134, 0.000822, 0.000723)
REPS = 5
# A factor measured this recently is taken as the next span's "before"
# factor, so back-to-back spans share the calibration between them.
FRESH_S = 0.005


class Calibrator:
    """Measures how fast the machine runs now, relative to ``REFERENCE``."""

    def __init__(self) -> None:
        arrays = _Arrays()
        self._kernels = (_int_hash, _objects, arrays.gather, arrays.stream)
        self.factors: list[float] = []
        self._last = (math.nan, -math.inf)  # (factor, perf_counter when measured)

    def slowness(self) -> float:
        """Geometric mean of (kernel time / reference time); > 1 is slow."""
        log_sum = 0.0
        for kernel, ref in zip(self._kernels, REFERENCE):
            best = math.inf
            for _ in range(REPS):
                t0 = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - t0)
            log_sum += math.log(best / ref)
        factor = math.exp(log_sum / len(self._kernels))
        self.factors.append(factor)
        self._last = (factor, time.perf_counter())
        return factor

    def timed(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; returns (result, wall seconds, slowness).

        The machine is calibrated just before and just after the call; the
        slowness is the geometric mean of the two factors, and a time taken
        during the call is scaled to the reference speed by dividing by it.
        """
        factor, measured = self._last
        before = factor if time.perf_counter() - measured < FRESH_S else self.slowness()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        return result, wall, math.sqrt(before * self.slowness())
