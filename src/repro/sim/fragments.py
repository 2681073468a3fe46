"""Blind-rotation fragment accounting (Equations 1 and 2 of the paper).

When the number of ciphertexts that need bootstrapping exceeds the batch
size of one blind rotation, the blind rotation must run multiple times —
the *fragments* whose count drives total execution time:

.. math::

    \\#\\text{fragments} = \\lceil \\#\\text{ciphertexts} / \\text{batch size} \\rceil - 1

    \\text{total time} = (\\#\\text{fragments} + 1) \\times \\text{BR time per batch}

Increasing the batch size (the paper's two-level batching) is what shrinks
the fragment count; this module provides the shared arithmetic used by the
GPU baseline model and the fragmentation analysis (Fig. 2).  The Strix epoch
scheduler cuts a PBS node into ``divmod(ciphertexts, capacity)`` full and
partial epochs, one per pass, where ``capacity`` is
``StrixAccelerator.epoch_capacity(params)``; ``spec_run`` in
``tests/test_scheduler_spec.py``, the readable definition of that rule, holds
its epoch count to ``blind_rotation_fragments + 1``.
"""

from __future__ import annotations

import math


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
