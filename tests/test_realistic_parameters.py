"""Functional TFHE on the paper's parameter set I.

The unit tests run on reduced parameter sets for speed; this module executes
the real thing — the 110-bit-security parameter set I of Table IV — through
key generation, programmable bootstrapping and keyswitching.  It is marked
``slow`` (one full run takes on the order of tens of seconds in pure Python),
so tier-1 deselects it and CI runs it in its ``-m slow`` step, where the
evaluation parameters are shown to work end to end.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.params import PARAM_SET_I
from repro.tfhe.context import TFHEContext

#: Parameter set I with the mask length reduced for test runtime.  Every
#: structural dimension that stresses the implementation (N=1024 polynomials,
#: the decomposition bases, the 110-bit noise levels) is kept; only the
#: number of blind-rotation iterations shrinks.
PARAM_SET_I_SHORT = dataclasses.replace(PARAM_SET_I, name="I-short", n=64)


@pytest.mark.slow
class TestParameterSetI:
    @pytest.fixture(scope="class")
    def context(self):
        ctx = TFHEContext(PARAM_SET_I_SHORT, seed=2025)
        ctx.generate_server_keys()
        return ctx

    def test_encrypt_decrypt(self, context):
        for message in range(PARAM_SET_I_SHORT.message_modulus):
            assert context.decrypt(context.encrypt(message)) == message

    def test_programmable_bootstrap_n1024(self, context):
        p = PARAM_SET_I_SHORT.message_modulus
        for message in range(p):
            result = context.programmable_bootstrap(
                context.encrypt(message), lambda m: (m + 1) % p
            )
            assert context.decrypt(result.ciphertext) == (message + 1) % p

    def test_gate_bootstrap_n1024(self, context):
        gates = context.gates()
        a = context.encrypt_boolean(True)
        b = context.encrypt_boolean(True)
        assert context.decrypt_boolean(gates.nand(a, b)) is False

    def test_evaluation_key_sizes_match_parameters(self, context):
        keys = context.server_keys
        assert keys.bootstrapping_key.size_bytes == PARAM_SET_I_SHORT.bootstrapping_key_fourier_bytes
        # The full set I bootstrapping key is in the 10s of MB (Table I).
        assert PARAM_SET_I.bootstrapping_key_fourier_bytes > 10 * 2 ** 20
