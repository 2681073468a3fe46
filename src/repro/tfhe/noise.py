"""Analytical noise-growth model.

TFHE correctness hinges on the ciphertext noise staying below half the
encoding step.  This module collects the standard variance formulas for the
operations in the PBS/keyswitching pipeline, so parameter choices can be
reasoned about without running the slow functional pipeline, and turns them
into the predicted per-PBS failure probability a
:class:`~repro.runtime.session.Session` reports.  ``tests/test_noise_budget.py``
holds each formula to the phase errors measured stage by stage on the
functional kernels.

All variances are expressed relative to the torus (i.e. as ``(sigma/q)^2``),
matching the convention of the parameter sets.
"""

from __future__ import annotations

import math

from repro.params import TFHEParameters


def external_product_variance(params: TFHEParameters, input_variance: float) -> float:
    """Variance added by one external product (one CMux of blind rotation).

    Standard TFHE bound: the decomposed digits (magnitude <= B/2) amplify the
    GGSW noise, and the rounding dropped by the approximate decomposition
    contributes an additional term.
    """
    base = params.base_pbs
    lb = params.lb
    n_poly = params.N
    k = params.k
    ggsw_variance = params.glwe_noise_std**2
    digit_term = (k + 1) * lb * n_poly * (base**2 / 12.0 + 1.0 / 6.0) * ggsw_variance
    rounding = 1.0 / (2.0 * base**lb)
    rounding_term = (1 + k * n_poly / 2.0) * (rounding**2 / 3.0)
    return input_variance + digit_term + rounding_term


def blind_rotation_variance(params: TFHEParameters) -> float:
    """Variance of the accumulator after a full blind rotation.

    ``n`` external products applied to an initially noiseless (trivial)
    accumulator.
    """
    variance = 0.0
    for _ in range(params.n):
        variance = external_product_variance(params, variance)
    return variance


def keyswitch_variance(params: TFHEParameters, input_variance: float) -> float:
    """Variance added by keyswitching an extracted ciphertext."""
    base = params.base_ks
    lk = params.lk
    input_dim = params.k * params.N
    key_noise = params.lwe_noise_std**2
    digit_term = input_dim * lk * (base**2 / 12.0 + 1.0 / 6.0) * key_noise
    # Rounding each input coefficient to ``lk`` digits leaves an error uniform
    # on +-rounding (variance rounding**2 / 3); half the key bits are set.
    rounding = 1.0 / (2.0 * base**lk)
    rounding_term = input_dim / 2.0 * (rounding**2 / 3.0)
    return input_variance + digit_term + rounding_term


def modulus_switch_variance(params: TFHEParameters, input_variance: float) -> float:
    """Variance after switching to modulus ``2N``, as a fraction of the torus.

    Each of the ``n + 1`` coefficients is rounded to a multiple of
    ``1 / (2N)``; every key bit is counted as set, a bound for any key.
    """
    rounding = 1.0 / (2.0 * 2 * params.N)
    return input_variance + (params.n + 1) * (rounding**2 / 3.0)


def pbs_output_variance(params: TFHEParameters) -> float:
    """End-to-end variance of a bootstrapped-and-keyswitched ciphertext."""
    return keyswitch_variance(params, blind_rotation_variance(params))


#: The highest predicted per-PBS failure probability key generation accepts.
#: IV, NN-4096 and NN-2048 (0.83, 0.63, 0.14) are above it; the models, which
#: never generate keys, still price them.  Every other set is >= 75x below.
MAX_PBS_FAILURE_PROBABILITY = 2.0**-10


def pbs_failure_probability(params: TFHEParameters) -> float:
    """Predicted chance that the next PBS reads a PBS output as the wrong message.

    The next blind rotation reads the phase after the switch of
    :func:`modulus_switch_variance`, and a test-vector block (``N / p``
    coefficients, pre-rotated by half a block) tolerates half a block either
    way: ``1 / (4p)`` of the torus.  A Gaussian error of the predicted
    variance leaves that window with probability
    ``erfc(half_block / sqrt(2 * variance))``.
    """
    variance = modulus_switch_variance(params, pbs_output_variance(params))
    half_block = 1.0 / (4 * params.message_modulus)
    return math.erfc(half_block / math.sqrt(2.0 * variance))
