"""Blind-rotation fragment accounting (Equations 1 and 2 of the paper).

When the number of ciphertexts that need bootstrapping exceeds the batch
size of one blind rotation, the blind rotation must run multiple times —
the *fragments* whose count drives total execution time:

.. math::

    \\#\\text{fragments} = \\lceil \\#\\text{ciphertexts} / \\text{batch size} \\rceil - 1

    \\text{total time} = (\\#\\text{fragments} + 1) \\times \\text{BR time per batch}

Increasing the batch size (the paper's two-level batching) is what shrinks
the fragment count; this module provides the shared arithmetic used by the
GPU baseline model, the fragmentation analysis (Fig. 2) and the Strix epoch
scheduler.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass


def blind_rotation_fragments(ciphertexts: int, batch_size: int) -> int:
    """Number of *extra* blind-rotation passes beyond the first (Eq. 2)."""
    if ciphertexts < 0:
        raise ValueError("ciphertext count cannot be negative")
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    if ciphertexts == 0:
        return 0
    return math.ceil(ciphertexts / batch_size) - 1


def fragmented_execution_time(ciphertexts: int, batch_size: int, time_per_fragment: float) -> float:
    """Total blind-rotation time under fragmentation (Eq. 1)."""
    if ciphertexts == 0:
        return 0.0
    return (blind_rotation_fragments(ciphertexts, batch_size) + 1) * time_per_fragment


@dataclass(frozen=True)
class FragmentPlan:
    """How a set of ciphertexts decomposes into blind-rotation fragments."""

    ciphertexts: int
    batch_size: int
    fragment_sizes: tuple[int, ...]

    @property
    def num_passes(self) -> int:
        """Number of blind-rotation passes (fragments + 1 in the paper's terms)."""
        return len(self.fragment_sizes)

    @property
    def fragments(self) -> int:
        """The paper's fragment count (extra passes beyond the first)."""
        return max(self.num_passes - 1, 0)


@functools.lru_cache(maxsize=4096)
def plan_fragments(ciphertexts: int, batch_size: int) -> FragmentPlan:
    """Split ``ciphertexts`` into blind-rotation passes of at most ``batch_size``.

    Memoized: the epoch scheduler plans every PBS node of every graph, and
    serving traffic repeats a few node widths; plans are immutable.
    """
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    sizes = []
    remaining = ciphertexts
    while remaining > 0:
        take = min(remaining, batch_size)
        sizes.append(take)
        remaining -= take
    return FragmentPlan(ciphertexts=ciphertexts, batch_size=batch_size, fragment_sizes=tuple(sizes))
