"""Discretized torus arithmetic.

TFHE works over the real torus ``T = R/Z`` discretized to ``q = 2^32``
levels.  A torus element is therefore an integer modulo ``q``; this module
provides the small set of helpers (reduction, signed/centered representation,
uniform and Gaussian sampling, rounding) shared by every ciphertext type.

All arrays use ``int64`` with values kept in the canonical range ``[0, q)``.
Using a signed 64-bit container for 32-bit torus values keeps intermediate
sums (e.g. LWE dot products with binary keys) exact without extra care.

The one exception is the blind-rotation workspace of
:func:`repro.tfhe.batch.kernels.batch_blind_rotate`, whose integer arrays are
``uint32`` words so that wrap-around does the reduction; it is internal to one
call, and every public array — arguments and results alike — is still
canonical ``int64``.
"""

from __future__ import annotations

import numpy as np


def reduce(values: np.ndarray | int, q: int, out: np.ndarray | None = None) -> np.ndarray | int:
    """Reduce values into the canonical torus range ``[0, q)``.

    For a power-of-two modulus the reduction is a bitwise mask: on two's
    complement ``int64`` values ``x & (q - 1)`` equals the floored
    ``np.mod(x, q)`` bit for bit (negative inputs included), and skips the
    integer division — this is the hot reduction of the vectorized kernels.
    ``out`` (arrays only) receives the result and may be ``values`` itself.
    """
    if np.isscalar(values) or isinstance(values, (int, np.integer)):
        return int(values) % q
    values = np.asarray(values, dtype=np.int64)
    if q & (q - 1) == 0:
        return np.bitwise_and(values, q - 1, out=out)
    return np.mod(values, q, out=out)


def to_signed(values: np.ndarray | int, q: int) -> np.ndarray | int:
    """Map torus values to the centered range ``[-q/2, q/2)``.

    A power-of-two modulus takes :func:`reduce`'s mask shifted by ``q/2`` (for ``|x| < 2**62``).
    """
    half = q // 2
    if np.isscalar(values) or isinstance(values, (int, np.integer)):
        value = int(values) % q
        return value - q if value >= half else value
    values = np.asarray(values, dtype=np.int64)
    if q & (q - 1) == 0:
        return ((values + half) & (q - 1)) - half
    canonical = np.mod(values, q)
    return np.where(canonical >= half, canonical - q, canonical)


def uniform(shape, q: int, rng: np.random.Generator) -> np.ndarray:
    """Sample uniformly random torus elements."""
    return rng.integers(0, q, size=shape, dtype=np.int64)


def gaussian_noise(shape, std: float, q: int, rng: np.random.Generator) -> np.ndarray:
    """Sample rounded Gaussian noise.

    ``std`` is expressed as a fraction of the torus (the convention used by
    the parameter sets), so the discrete standard deviation is ``std * q``.
    """
    if std <= 0.0:
        return np.zeros(shape, dtype=np.int64)
    noise = rng.normal(0.0, std * q, size=shape)
    return reduce(np.round(noise).astype(np.int64), q)


def switch_modulus(values: np.ndarray | int, q: int, new_modulus: int):
    """Rescale torus values from modulus ``q`` to ``new_modulus`` with rounding.

    This is the *modulus switching* step at the start of PBS (Algorithm 1,
    line 3), which maps 32-bit torus values onto ``Z_{2N}``.
    """
    if np.isscalar(values) or isinstance(values, (int, np.integer)):
        return ((int(values) * new_modulus + q // 2) // q) % new_modulus
    values = np.asarray(values, dtype=np.int64)
    return np.mod((values * new_modulus + q // 2) // q, new_modulus)


def absolute_distance(a, b, q: int):
    """Test reference: shortest wrap-around distance between two torus values."""
    diff = np.mod(np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64), q)
    return np.minimum(diff, q - diff)
