"""Vectorized batch kernels for the functional TFHE tier.

Stacked-array (:class:`LweBatch` / :class:`GlweBatch`) implementations of
the hot PBS chain — blind rotation, sample extraction, keyswitching — and of
the linear combinations that feed it (:func:`linear_combination`, which
gates, LUT rows and linear operations share; :data:`GATES` says what each
gate takes and costs), **bit-for-bit equal** to the scalar reference in
:mod:`repro.tfhe` while amortizing numpy dispatch over the whole batch.

These are the one implementation behind every batch API of
:class:`repro.runtime.session.Session` and behind the reference backend
(one ciphertext is a batch of one); nothing selects them.  The scalar
kernels stay as the oracle, reachable through the per-ciphertext API.
"""

from __future__ import annotations

from repro.tfhe.batch.gates import GATES, gate_combination, linear_combination
from repro.tfhe.batch.kernels import (
    BatchBootstrapResult,
    batch_blind_rotate,
    batch_bootstrap_with_test_vector,
    batch_encrypt,
    batch_keyswitch,
    batch_modulus_switch,
    batch_monomial_multiply,
    batch_phase,
    batch_sample_extract,
)
from repro.tfhe.batch.types import GlweBatch, LweBatch

__all__ = [
    "BatchBootstrapResult",
    "GATES",
    "GlweBatch",
    "LweBatch",
    "batch_blind_rotate",
    "batch_bootstrap_with_test_vector",
    "batch_encrypt",
    "batch_keyswitch",
    "batch_modulus_switch",
    "batch_monomial_multiply",
    "batch_phase",
    "batch_sample_extract",
    "gate_combination",
    "linear_combination",
]
