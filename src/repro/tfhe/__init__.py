"""Functional TFHE implementation (the workload Strix accelerates).

This package is a from-scratch, numpy-based implementation of the TFHE
scheme as used by the paper: LWE/GLWE/GGSW ciphertexts over the discretized
torus, gadget decomposition, the external product and CMux, blind rotation,
sample extraction, keyswitching, programmable bootstrapping (PBS), boolean
gate bootstrapping, and programmable look-up tables for integer messages.

The public entry points most users need are:

* :class:`repro.tfhe.context.TFHEContext` — key generation plus high level
  ``encrypt`` / ``decrypt`` / ``programmable_bootstrap`` / gate helpers.
* :func:`repro.tfhe.bootstrap.programmable_bootstrap` — the raw PBS pipeline
  (Algorithm 1 of the paper).
* :func:`repro.tfhe.keyswitch.keyswitch` — Algorithm 2 of the paper.
"""

from repro.tfhe.context import TFHEContext
from repro.tfhe.lwe import LweCiphertext
from repro.tfhe.glwe import GlweCiphertext
from repro.tfhe.ggsw import GgswCiphertext, FourierGgswCiphertext
from repro.tfhe.keys import (
    LweSecretKey,
    GlweSecretKey,
    BootstrappingKey,
    KeySwitchingKey,
)
from repro.tfhe.lut import LookUpTable
from repro.tfhe.gates import GateBootstrapper

__all__ = [
    "TFHEContext",
    "LweCiphertext",
    "GlweCiphertext",
    "GgswCiphertext",
    "FourierGgswCiphertext",
    "LweSecretKey",
    "GlweSecretKey",
    "BootstrappingKey",
    "KeySwitchingKey",
    "LookUpTable",
    "GateBootstrapper",
]
