"""Calibration probes and the segment loop every workload measures with.

This sandbox's speed moves in multi-second plateaus: the same code ran
±15% faster or slower between processes, and a fixed probe interleaved with
the work tracked that drift closely.  So every timed segment is bracketed by
two probes, a wall-clock value is scaled by ``PROBE_REF_S / probe measured``
and the reported number is the median over segments.  The raw values and the
probe times are kept (``harness.*``) so the scaling can always be undone.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Probe times on the sandbox the bounds were set on.  Fixed constants: they
#: only anchor the scale of calibrated numbers, not their stability.
PROBE_REF_S = {"py": 0.0140, "np_small": 0.0046, "np_large": 0.0082}


@dataclass(frozen=True)
class _Item:
    """A request-shaped object for the interpreter probe."""

    ident: int
    owner: str
    size: int
    at: float

    @property
    def cost(self) -> int:
        return self.size * 2


_ITEMS = [_Item(i, f"owner{i % 7}", 1 + i % 13, i * 1e-3) for i in range(60_000)]


def _py_once() -> float:
    """What the serving layers do all day: deques, dicts, small frozen
    objects, ``min`` with a key, generator sums — then a plain integer loop.

    Both halves matter: a probe measured beside ``simulate()`` tracked it
    best when it allocated and chased pointers like the queue and batcher do
    (window-median correlation 0.96), the event-driven scheduler tracked the
    arithmetic loop best (0.99).
    """
    start = time.perf_counter()
    queues: dict[str, deque] = {}
    depth = sequence = 0
    finished = []
    for item in _ITEMS[::12]:
        queues.setdefault(item.owner, deque()).append((sequence, item))
        sequence += 1
        depth += item.size
        if depth >= 64:
            taken = []
            while depth > 0 and queues:
                oldest = min(queues, key=lambda owner: queues[owner][0][0])
                _, head = queues[oldest].popleft()
                if not queues[oldest]:
                    del queues[oldest]
                depth -= head.size
                taken.append(head)
            total = sum(entry.cost for entry in taken)
            finished.extend(
                _Item(entry.ident, entry.owner, entry.size, entry.at + total * 1e-6)
                for entry in taken
            )
    acc = 0
    for index in range(50_000):
        acc = (acc * 31 + index) & 0xFFFFFFFF
    return time.perf_counter() - start


_NP_RNG = np.random.default_rng(0)
_NP_DIGITS = _NP_RNG.integers(-128, 128, size=(1, 9, 256)).astype(np.float64)
_NP_KEYS = [
    _NP_RNG.standard_normal((9, 3, 128)) + 1j * _NP_RNG.standard_normal((9, 3, 128))
    for _ in range(128)
]


def _np_small_once() -> float:
    """One small-shape blind rotation on constant arrays: fold, fft, einsum
    against a fresh key block, ifft, round — 128 times.

    Small shapes on purpose: measured beside both PBS workloads, this probe
    tracked them linearly (log-log slope 1.0, window-median correlation 0.95
    and 0.96) while a batch-64, N=1024 probe had slope 1.6.
    """
    start = time.perf_counter()
    for key in _NP_KEYS:
        folded = _NP_DIGITS[..., :128] + 1j * _NP_DIGITS[..., 128:]
        spectra = np.fft.ifft(folded, axis=-1)
        product = np.einsum("brf,rcf->bcf", spectra, key)
        np.round(np.fft.fft(product, axis=-1).real).astype(np.int64)
    return time.perf_counter() - start


_NP_LARGE_ACC = _NP_RNG.integers(0, 2**32, size=(64, 2, 1024))
_NP_LARGE_INDEX = np.broadcast_to(
    (np.arange(1024) - _NP_RNG.integers(0, 1024, size=(64, 1, 1))) % 1024, (64, 2, 1024)
)
_NP_LARGE_KEYS = [
    _NP_RNG.standard_normal((4, 2, 512)) + 1j * _NP_RNG.standard_normal((4, 2, 512))
    for _ in range(2)
]


def _np_large_once() -> float:
    """Two CMux steps at paper-set shapes (batch 64, N=1024, 4 digit rows).

    Gather, subtract, reduce, split into digits, fold, fft, einsum, ifft,
    round, accumulate: ~10 MB touched per step, so the probe leaves the L2
    cache like ``pbs-set-I-batch64`` does and slows with it when a neighbour
    takes memory bandwidth — which the small-shape probe does not.
    """
    start = time.perf_counter()
    accumulator = _NP_LARGE_ACC.copy()
    for key in _NP_LARGE_KEYS:
        rotated = np.take_along_axis(accumulator, _NP_LARGE_INDEX, axis=-1)
        difference = (rotated - accumulator) & 0xFFFFFFFF
        digits = np.stack([(difference >> 24) & 0xFF, (difference >> 16) & 0xFF], axis=2)
        rows = digits.reshape(64, 4, 1024).astype(np.float64)
        spectra = np.fft.ifft(rows[..., :512] + 1j * rows[..., 512:], axis=-1)
        product = np.fft.fft(np.einsum("brf,rcf->bcf", spectra, key), axis=-1)
        accumulator[..., :512] += np.round(product.real).astype(np.int64)
        accumulator[..., 512:] += np.round(product.imag).astype(np.int64)
    return time.perf_counter() - start


PROBES: dict[str, Callable[[], float]] = {
    "py": _py_once,
    "np_small": _np_small_once,
    "np_large": _np_large_once,
}


@dataclass(frozen=True)
class Calibration:
    """Probe readings for one workload; ``kind`` is the probe that scales it."""

    kind: str
    #: Repeats of ``kind`` per reading (the median is used, so one scheduler
    #: hiccup inside a repeat does not become a 30% "slowdown").  The other
    #: probes are read three times, for the record only.
    repeats: int = 9

    def read(self) -> dict[str, float]:
        """One reading of every probe (seconds)."""
        return {
            name: statistics.median(
                once() for _ in range(self.repeats if name == self.kind else min(3, self.repeats))
            )
            for name, once in PROBES.items()
        }

    def scale(self, before: dict[str, float], after: dict[str, float]) -> float:
        """Factor turning a raw duration measured between two readings into a
        calibrated one."""
        return PROBE_REF_S[self.kind] / ((before[self.kind] + after[self.kind]) / 2)


@dataclass(frozen=True)
class Segment:
    """One timed segment, its calibration factor and its bracketing readings."""

    wall_s: float
    ops: int
    scale: float
    probes: dict[str, float]

    @property
    def calibrated_wall_s(self) -> float:
        return self.wall_s * self.scale


def measure_segments(
    calibration: Calibration,
    run_segment: Callable[[int], int],
    seconds: float,
    min_segments: int = 3,
    group: int = 1,
) -> list[Segment]:
    """Run segments for about ``seconds``, each bracketed by probe readings.

    ``run_segment(index)`` does one segment's fixed work and returns the
    operations it completed; segments ``i`` and ``i + group`` do equal work
    and only whole groups are measured.  The count is rounded to the nearest
    whole segment, so a plateau that makes segments 10% slower does not
    change how many are measured.
    """
    segments: list[Segment] = []
    before = calibration.read()
    elapsed = 0.0
    while True:
        start = time.perf_counter()
        ops = run_segment(len(segments))
        wall = time.perf_counter() - start
        after = calibration.read()
        mean = {name: (before[name] + after[name]) / 2 for name in before}
        segments.append(Segment(wall, ops, calibration.scale(before, after), mean))
        before = after
        elapsed += wall
        whole = len(segments) >= min_segments and len(segments) % group == 0
        if whole and elapsed + elapsed / len(segments) * group / 2 >= seconds:
            return segments


def spread_share(values: list[float]) -> float:
    """Interquartile range over median (range over median below 3 values)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) < 3:
        return (max(values) - min(values)) / median
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / median
