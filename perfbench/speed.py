"""Reference kernels that track the machine's speed during a run.

The shared 2-vCPU VM the benchmark was tuned on changes speed in phases:
the same ``predict`` call took 25 ms in one phase and 45 ms in the next,
with no steal time reported, and each vCPU's speed flips between its phases
several times a second. A fixed kernel that does not touch slotcast, built
from the same kinds of work as the code it stands in for, slows down by
about the same factor: ``walk_kernel`` walks a small tree with NumPy
indexing in a Python loop, as the forest walk does; ``kernel`` adds string
and dict work in the interpreter; ``histogram_kernel`` does the work of
split search in training.

``Sampler`` runs a kernel from a timer signal at a fixed period while a
timed loop runs, and scales each operation's time, less the samples' own,
by the kernel's mean speed during the operation: the duration it would have
taken while the kernel ran at its reference speed. ``Speedometer`` runs
``kernel`` between operations outside the loops (set-ups, probes) and
scales each by the probes on either side of it.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Callable, List

import numpy as np

# kernel times on the 2-vCPU tuning machine in its fast phase
REFERENCE_S = 0.0015
REFERENCE_WALK_S = 0.0002
REFERENCE_HIST_S = 0.0014

_rng = np.random.default_rng(0)
_XB = _rng.integers(0, 255, size=(1, 70)).astype(np.uint8)
_THRESHOLD = _rng.integers(0, 255, size=63)
_FEATURE = _rng.integers(0, 70, size=63)
_WORDS = [f"W{i % 53}" for i in range(2000)]
_XB_TRAIN = _rng.integers(0, 255, size=(1500, 70)).astype(np.uint8)
_G = _rng.standard_normal(1500)
_OFFSETS = np.arange(70, dtype=np.int64) * 256
_SUBSETS = [np.sort(_rng.choice(1500, size=n, replace=False))
            for n in (600, 150, 40, 10)]


def walk_kernel(iterations: int = 10) -> int:
    leaves = 0
    for _ in range(iterations):
        stack = [(0, np.arange(1))]
        while stack:
            nid, idx = stack.pop()
            if idx.size == 0:
                continue
            if nid >= 63:
                leaves += int(idx.size)
                continue
            left = _XB[idx, _FEATURE[nid]] <= _THRESHOLD[nid]
            stack.append((2 * nid + 1, idx[left]))
            stack.append((2 * nid + 2, idx[~left]))
    return leaves


def kernel() -> int:
    counts = {}
    for a, b in zip(_WORDS, _WORDS[1:]):
        key = f"{a} {b}".upper()
        counts[key] = counts.get(key, 0) + 1
    return walk_kernel(40) + len(counts)


def histogram_kernel() -> int:
    """Gradient and count histograms and a best-split search over shrinking
    row subsets of a 1,500 x 70 bin matrix, as split search does them."""
    best = 0
    for idx in _SUBSETS:
        flat = (_XB_TRAIN[idx].astype(np.int64) + _OFFSETS).ravel()
        w = np.broadcast_to(_G[idx][:, None], (idx.size, 70)).ravel()
        g_hist = np.bincount(flat, weights=w, minlength=70 * 256)
        c_hist = np.bincount(flat, minlength=70 * 256).astype(np.float64)
        left_g = np.cumsum(g_hist.reshape(70, 256), axis=1)[:, :-1]
        left_c = np.cumsum(c_hist.reshape(70, 256), axis=1)[:, :-1]
        gain = (left_g ** 2 / (left_c + 1.0)
                + (g_hist.sum() - left_g) ** 2 / (idx.size - left_c + 1.0))
        best += int(np.argmax(gain))
    return best


class Speedometer:
    def __init__(self):
        self.times: List[float] = []    # start of each probe
        self.seconds: List[float] = []  # its duration

    def probe(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.times.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def at_reference(self, start: float, duration: float) -> float:
        """``duration`` of an operation that began at ``start``, scaled by
        the mean speed (1 over duration) of the probe just before it and
        the probe just after it."""
        i = bisect.bisect_left(self.times, start)
        near = self.seconds[max(0, i - 1):i + 1]
        return duration * REFERENCE_S * statistics.fmean(
            1.0 / d for d in near)


class Sampler:
    """Times ``kernel`` every ``period_s`` of wall time, from a SIGALRM
    handler, while the ``with`` block runs (main thread only), and once on
    entry and once on exit."""

    def __init__(self, kernel: Callable[[], int], reference_s: float,
                 period_s: float):
        self.kernel, self.reference_s = kernel, reference_s
        self.period_s = period_s
        self.times: List[float] = []    # start of each sample
        self.seconds: List[float] = []  # its duration
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.kernel()
        self.times.append(t0)
        self.seconds.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def at_reference(self, start: float, end: float) -> float:
        """Wall time from ``start`` to ``end`` less the samples taken in it,
        times ``reference_s`` times the samples' mean speed (1 over their
        duration); an interval holding fewer than four samples uses the four
        nearest."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        own = sum(self.seconds[lo:hi])
        if hi - lo < 4:
            mid = (lo + hi) // 2
            lo, hi = max(0, mid - 2), mid + 2
        speed = statistics.fmean(1.0 / d for d in self.seconds[lo:hi])
        return (end - start - own) * self.reference_s * speed


def request_sampler() -> Sampler:
    return Sampler(walk_kernel, REFERENCE_WALK_S, 0.01)


def batch_sampler() -> Sampler:
    return Sampler(kernel, REFERENCE_S, 0.05)


def training_sampler() -> Sampler:
    return Sampler(histogram_kernel, REFERENCE_HIST_S, 0.1)
