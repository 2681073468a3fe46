"""Blind rotation and test-vector construction.

Blind rotation is the core (and, per the paper's Fig. 1, ~96-98 % of the
cost) of programmable bootstrapping: starting from a trivial GLWE holding the
test vector, it homomorphically rotates the polynomial by the *encrypted*
phase of the input LWE ciphertext, one CMux per LWE mask element.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.params import TFHEParameters
from repro.tfhe import torus
from repro.tfhe.glwe import GlweCiphertext
from repro.tfhe.keys import BootstrappingKey
from repro.tfhe.lwe import LweCiphertext


def modulus_switch(ciphertext: LweCiphertext, params: TFHEParameters) -> tuple[np.ndarray, int]:
    """Switch an LWE ciphertext from modulus ``q`` to ``2N`` (Algorithm 1, line 3)."""
    two_n = 2 * params.N
    mask = torus.switch_modulus(ciphertext.mask, params.q, two_n)
    body = int(torus.switch_modulus(ciphertext.body, params.q, two_n))
    return mask.astype(np.int64), body


def make_test_vector(
    function: Callable[[int], int],
    params: TFHEParameters,
) -> np.ndarray:
    """Build the test-vector polynomial encoding a function ``Z_p -> Z_p``.

    Each of the ``p`` message values owns a block of ``N / p`` consecutive
    coefficients holding ``delta * f(m)``; the polynomial is then pre-rotated
    by half a block so rounding noise on the encrypted phase lands inside the
    correct block.
    """
    p = params.message_modulus
    n_poly = params.N
    if n_poly % p:
        raise ValueError(f"message modulus {p} must divide the polynomial degree {n_poly}")
    delta = params.delta
    block = n_poly // p
    values = np.zeros(n_poly, dtype=np.int64)
    for message in range(p):
        values[message * block : (message + 1) * block] = (int(function(message)) % (2 * p)) * delta
    # Negacyclic left rotation by half a block: coefficients that wrap around
    # re-enter negated (X^N = -1).
    half_block = block // 2
    rotated = np.concatenate([values[half_block:], -values[:half_block]])
    return torus.reduce(rotated, params.q)


def make_constant_test_vector(value: int, params: TFHEParameters) -> np.ndarray:
    """Test vector with every coefficient equal to ``value``.

    Used by gate bootstrapping, where the result only depends on which half
    of the torus the phase falls in.
    """
    return torus.reduce(np.full(params.N, int(value), dtype=np.int64), params.q)


def blind_rotate(
    test_vector: np.ndarray,
    ciphertext: LweCiphertext,
    bootstrapping_key: BootstrappingKey,
    params: TFHEParameters,
) -> GlweCiphertext:
    """Homomorphically rotate ``test_vector`` by the phase of ``ciphertext``.

    Returns a GLWE ciphertext whose constant coefficient encrypts
    ``test_vector[phase_2N]`` (with the negacyclic sign for phases in the
    upper half), ready for sample extraction.
    """
    if len(bootstrapping_key) != ciphertext.dimension:
        raise ValueError(
            f"bootstrapping key has {len(bootstrapping_key)} entries but the "
            f"ciphertext has dimension {ciphertext.dimension}"
        )
    mask_2n, body_2n = modulus_switch(ciphertext, params)
    accumulator = GlweCiphertext.trivial(test_vector, params).rotate(-body_2n)
    for index in range(ciphertext.dimension):
        exponent = int(mask_2n[index])
        if exponent == 0:
            continue
        rotated = accumulator.rotate(exponent)
        accumulator = bootstrapping_key[index].cmux(accumulator, rotated)
    return accumulator


def blind_rotate_plaintext(
    test_vector: Sequence[int],
    phase_2n: int,
    params: TFHEParameters,
) -> int:
    """Test reference: the plaintext model of blind rotation, the value extraction would return.

    Computes the constant coefficient of ``test_vector * X^{-phase_2n}``
    modulo ``X^N + 1``; used by tests and by the CPU baseline cost model to
    validate the functional pipeline without any encryption.
    """
    n_poly = params.N
    phase = phase_2n % (2 * n_poly)
    values = np.asarray(test_vector, dtype=np.int64)
    if phase < n_poly:
        return int(values[phase]) % params.q
    return int(-values[phase - n_poly]) % params.q
