"""Programmable look-up tables over encrypted integers.

The PBS of TFHE evaluates an arbitrary univariate function during
bootstrapping; this module wraps that capability as reusable look-up table
objects, the building block of the Zama Deep-NN activation layers and of the
tree-based / relational workloads the paper motivates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.params import TFHEParameters
from repro.tfhe.bootstrap import programmable_bootstrap
from repro.tfhe.keys import BootstrappingKey, KeySwitchingKey
from repro.tfhe.lwe import LweCiphertext


@dataclass
class LookUpTable:
    """A univariate function ``Z_p -> Z_p`` materialized as a table.

    Attributes
    ----------
    entries:
        Sequence of ``p`` output messages.
    params:
        Parameter set defining the message modulus ``p``.
    """

    entries: np.ndarray
    params: TFHEParameters

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=np.int64)
        p = self.params.message_modulus
        if self.entries.shape != (p,):
            raise ValueError(f"expected {p} table entries, got shape {self.entries.shape}")
        if np.any((self.entries < 0) | (self.entries >= p)):
            raise ValueError(f"table entries must lie in [0, {p})")

    @classmethod
    def from_function(cls, function: Callable[[int], int], params: TFHEParameters) -> "LookUpTable":
        """Tabulate a Python function over the message space."""
        p = params.message_modulus
        return cls(np.array([function(m) % p for m in range(p)], dtype=np.int64), params)

    def __call__(self, message: int) -> int:
        """Evaluate the table on a plaintext message (for tests/validation)."""
        return int(self.entries[message % self.params.message_modulus])

    def evaluate_torus(self, message: int) -> int:
        """Plaintext emulation of the PBS output, including negacyclic wrap.

        PBS evaluates the table over the *whole* torus: for messages in the
        padding half ``[p, 2p)`` the negacyclic structure of the test vector
        returns the negated entry of ``message - p``.  This mirrors exactly
        what :func:`repro.tfhe.bootstrap.programmable_bootstrap` computes and
        lets plaintext reference models track homomorphic pipelines whose
        intermediate values overflow into the padding half.
        """
        p = self.params.message_modulus
        message = message % (2 * p)
        if message < p:
            return int(self.entries[message])
        return (-int(self.entries[message - p])) % (2 * p)

    def apply(
        self,
        ciphertext: LweCiphertext,
        bootstrapping_key: BootstrappingKey,
        keyswitching_key: KeySwitchingKey | None = None,
    ) -> LweCiphertext:
        """Evaluate the table homomorphically via one PBS."""
        result = programmable_bootstrap(
            ciphertext,
            lambda m: int(self.entries[m % len(self.entries)]),
            bootstrapping_key,
            self.params,
            keyswitching_key,
        )
        return result.ciphertext


def relu_lut(params: TFHEParameters) -> LookUpTable:
    """ReLU over the signed interpretation of the message space.

    Messages ``m < p/2`` are treated as non-negative and pass through;
    messages in the upper half (negative values) map to zero.  This is the
    activation used by the Zama Deep-NN benchmark (Section VI-C).
    """
    p = params.message_modulus
    half = p // 2
    return LookUpTable.from_function(lambda m: m if m < half else 0, params)


def threshold_lut(threshold: int, params: TFHEParameters) -> LookUpTable:
    """Comparator table: 1 when ``m >= threshold`` else 0."""
    return LookUpTable.from_function(lambda m: 1 if m >= threshold else 0, params)
