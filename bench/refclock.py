"""Speed-normalised wall clock.

The host's speed drifts, within a second as well as over tens of seconds, so
raw wall times of the same work differ from run to run. A fixed reference
kernel runs in this process every ``TICK_S`` seconds, from a ``SIGALRM``
handler, interleaved with whatever the workload is doing. Each stretch of
workload time between two kernel runs is multiplied by ``NOMINAL_KERNEL_S``
over the mean time of the kernel runs around it, so a slow spell of the host
slows the kernel too and cancels out. The kernel's own time is excluded from
both the raw and the normalised times.

The kernel mixes the three kinds of work the package spends its time on:
pointer chasing through Python lists, small numpy expressions, and scalar
math on small Python objects. Each alone tracks the workloads less closely
than the mix.
"""

from __future__ import annotations

import bisect
import math
import random
import signal
import time

import numpy as np

# Median kernel time on the 2-core reference host with the host otherwise
# idle; it only fixes the scale of normalised times.
NOMINAL_KERNEL_S = 0.0036
TICK_S = 0.1

_CHAIN_LEN = 1 << 12
_CHASE_STEPS = 25_000
_NUMPY_ROUNDS = 150
_SCALAR_ROUNDS = 250
_SEED = 20250908


def _make_chain(n: int) -> list[int]:
    """A random single cycle over range(n): ``nxt[i]`` is the successor of i."""
    order = list(range(n))
    random.Random(_SEED).shuffle(order)
    nxt = [0] * n
    for a, b in zip(order, order[1:] + order[:1]):
        nxt[a] = b
    return nxt


class _Gaussian:
    __slots__ = ("mean", "var")

    def __init__(self, mean: float, var: float) -> None:
        self.mean = mean
        self.var = var

    def log_pdf(self, x: float) -> float:
        d = x - self.mean
        return -0.5 * math.log(2.0 * math.pi * self.var) - d * d / (2.0 * self.var)


class _Kernel:
    """Fixed work whose duration measures the host's current speed."""

    def __init__(self) -> None:
        self.chain = _make_chain(_CHAIN_LEN)
        self.rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
        self.centre = np.array([1.0, 2.0])
        self.estimators = [[_Gaussian(0.1 * j + c, 1.0 + 0.01 * j) for c in (0, 1)]
                           for j in range(4)]
        self.sink = 0.0

    def __call__(self) -> None:
        nxt = self.chain
        i = 0
        for _ in range(_CHASE_STEPS):
            i = nxt[i]
        acc = float(i)
        rotation, centre = self.rotation, self.centre
        for r in range(_NUMPY_ROUNDS):
            x = np.array([r * 0.5, 1.0 - r])
            y = rotation @ (x - centre) + centre
            total = np.zeros(2)
            total += y
            acc += float(total.sum()) / (1.0 + float(np.linalg.norm(y)))
        for r in range(_SCALAR_ROUNDS):
            logits = [0.0, 0.0]
            for label in (0, 1):
                logit = math.log(0.5)
                for j, pair in enumerate(self.estimators):
                    logit += pair[label].log_pdf(0.3 * j + r * 0.001)
                logits[label] = logit
            top = max(logits)
            raw = [math.exp(v - top) for v in logits]
            acc += raw[0] / (raw[0] + raw[1]) + len({"r": r, "acc": acc})
        self.sink = acc


class RefClock:
    """Interleaves the reference kernel with the workload and converts raw
    ``time.perf_counter()`` stamps into raw and normalised durations."""

    def __init__(self) -> None:
        self._kernel = _Kernel()
        self.tick_start: list[float] = []
        self.tick_end: list[float] = []
        self.kernel_s: list[float] = []
        self._running = False
        self._cum: tuple | None = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.tick_start.append(t0)
        self.kernel_s.append(t1 - t0)
        self.tick_end.append(time.perf_counter())

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False
            self._tick()
        self._cum = None

    @staticmethod
    def now() -> float:
        return time.perf_counter()

    def _factors(self) -> list[float]:
        """Factor of the stretch after each kernel run: the nominal time over
        the mean of the two runs that bracket the stretch (the last run alone
        for the stretch after it)."""
        k = self.kernel_s
        return [NOMINAL_KERNEL_S / (0.5 * (k[j] + k[j + 1])) for j in range(len(k) - 1)] + [
            NOMINAL_KERNEL_S / k[-1]]

    def _cumulative(self) -> tuple:
        """Raw and normalised workload time accumulated up to each tick."""
        if self._cum is None:
            factors = self._factors()
            raw = [0.0]
            norm = [0.0]
            for j in range(1, len(self.tick_start)):
                gap = max(self.tick_start[j] - self.tick_end[j - 1], 0.0)
                raw.append(raw[-1] + gap)
                norm.append(norm[-1] + gap * factors[j - 1])
            self._cum = (factors, raw, norm)
        return self._cum

    def _at(self, t: float) -> tuple[float, float]:
        factors, raw, norm = self._cumulative()
        j = bisect.bisect_right(self.tick_start, t) - 1
        if j < 0:
            return t - self.tick_start[0], (t - self.tick_start[0]) * factors[0]
        past = max(t - self.tick_end[j], 0.0)
        return raw[j] + past, norm[j] + past * factors[j]

    def span(self, a: float, b: float) -> tuple[float, float]:
        """(raw, normalised) workload seconds between two ``now()`` stamps
        taken after ``start()`` and before ``stop()``."""
        if self._running:
            raise RuntimeError("stop the clock before reading spans")
        raw_a, norm_a = self._at(a)
        raw_b, norm_b = self._at(b)
        return raw_b - raw_a, norm_b - norm_a

    def kernel_intervals_ns(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and end of every kernel run on the ``time.perf_counter_ns``
        scale, which reads the same clock as ``now()``."""
        return np.array(self.tick_start) * 1e9, np.array(self.tick_end) * 1e9

    def kernel_stats(self) -> dict:
        k = sorted(self.kernel_s)
        n = len(k)
        return {
            "samples": n,
            "median_ms": 1e3 * k[n // 2],
            "mean_ms": 1e3 * sum(k) / n,
            "p10_ms": 1e3 * k[n // 10],
            "p90_ms": 1e3 * k[(9 * n) // 10],
        }
