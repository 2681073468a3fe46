"""Analytical noise-growth model.

TFHE correctness hinges on the ciphertext noise staying below half the
encoding step.  This module collects the standard variance formulas for the
operations in the PBS/keyswitching pipeline so the analysis layer (and the
tests) can reason about parameter choices without running the slow
functional pipeline, and provides an empirical noise measurement helper.

All variances are expressed relative to the torus (i.e. as ``(sigma/q)^2``),
matching the convention of the parameter sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.params import TFHEParameters
from repro.tfhe import torus
from repro.tfhe.lwe import LweCiphertext


def fresh_lwe_variance(params: TFHEParameters) -> float:
    """Variance of a freshly encrypted LWE ciphertext (only tests call it until ROADMAP item 3)."""
    return params.lwe_noise_std**2


def fresh_glwe_variance(params: TFHEParameters) -> float:
    """Variance of a freshly encrypted GLWE ciphertext (only tests call it until ROADMAP item 3)."""
    return params.glwe_noise_std**2


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
    rounding = 1.0 / (2.0 * base**lk)
    rounding_term = input_dim * (rounding**2 / 12.0)
    return input_variance + digit_term + rounding_term


def modulus_switch_variance(params: TFHEParameters, input_variance: float) -> float:
    """Variance after switching to modulus ``2N``, on that scale (test-only until ROADMAP item 3)."""
    rounding = 1.0 / (2.0 * 2 * params.N)
    return input_variance + (params.n + 1) * (rounding**2 / 3.0)


def pbs_output_variance(params: TFHEParameters) -> float:
    """End-to-end variance of a bootstrapped-and-keyswitched ciphertext."""
    return keyswitch_variance(params, blind_rotation_variance(params))


def decryption_failure_margin(params: TFHEParameters) -> float:
    """Decoding half-step over the PBS output standard deviation (test-only until ROADMAP item 3).

    Values comfortably above ~4 correspond to negligible failure probability.
    """
    std = np.sqrt(pbs_output_variance(params))
    half_step = params.delta / (2.0 * params.q)
    if std == 0.0:
        return float("inf")
    return half_step / std


@dataclass
class NoiseMeasurement:
    """Empirical noise statistics gathered from decrypted phases."""

    mean: float
    std: float
    max_abs: float
    samples: int

    @classmethod
    def from_phases(
        cls, phases: np.ndarray, expected: np.ndarray, params: TFHEParameters
    ) -> "NoiseMeasurement":
        """Measure the noise of ciphertexts given the expected plaintexts."""
        phases = np.asarray(phases, dtype=np.int64)
        expected = np.asarray(expected, dtype=np.int64)
        errors = torus.to_signed(phases - expected, params.q).astype(np.float64)
        errors /= params.q
        return cls(
            mean=float(np.mean(errors)),
            std=float(np.std(errors)),
            max_abs=float(np.max(np.abs(errors))) if errors.size else 0.0,
            samples=int(errors.size),
        )


def measure_lwe_noise(
    ciphertexts: list[LweCiphertext],
    expected_values: list[int],
    key_bits: np.ndarray,
    params: TFHEParameters,
) -> NoiseMeasurement:
    """Empirically measure the noise of LWE ciphertexts (test-only until ROADMAP item 3)."""
    phases = np.array([ct.phase(key_bits) for ct in ciphertexts], dtype=np.int64)
    expected = np.array(expected_values, dtype=np.int64)
    return NoiseMeasurement.from_phases(phases, expected, params)
