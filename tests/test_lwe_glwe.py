"""Tests for LWE and GLWE ciphertexts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.params import SMALL_PARAMETERS, TOY_PARAMETERS
from repro.tfhe import encoding, torus
from repro.tfhe.glwe import GlweCiphertext
from repro.tfhe.keys import GlweSecretKey, LweSecretKey
from repro.tfhe.lwe import LweCiphertext

PARAMS = TOY_PARAMETERS


@pytest.fixture(scope="module")
def lwe_key():
    return LweSecretKey.generate(PARAMS, np.random.default_rng(7))


@pytest.fixture(scope="module")
def glwe_key():
    return GlweSecretKey.generate(PARAMS, np.random.default_rng(8))


class TestLwe:
    def test_encrypt_decrypt_phase_close_to_message(self, lwe_key, rng):
        value = encoding.encode(1, PARAMS)
        ciphertext = lwe_key.encrypt(value, rng)
        phase = ciphertext.phase(lwe_key.bits)
        assert torus.absolute_distance(phase, value, PARAMS.q) < PARAMS.delta // 2

    def test_trivial_ciphertext_has_exact_phase(self, lwe_key):
        ciphertext = LweCiphertext.trivial(12345, PARAMS.n, PARAMS)
        assert ciphertext.phase(lwe_key.bits) == 12345

    def test_homomorphic_addition(self, lwe_key, rng):
        a = lwe_key.encrypt(encoding.encode(1, PARAMS), rng)
        b = lwe_key.encrypt(encoding.encode(2, PARAMS), rng)
        total = a + b
        decoded = encoding.decode(total.phase(lwe_key.bits), PARAMS)
        assert decoded == 3

    def test_homomorphic_subtraction_and_negation(self, lwe_key, rng):
        a = lwe_key.encrypt(encoding.encode(3, PARAMS), rng)
        b = lwe_key.encrypt(encoding.encode(1, PARAMS), rng)
        diff = a - b
        assert encoding.decode(diff.phase(lwe_key.bits), PARAMS) == 2
        neg = -b
        # -1 wraps to 2p - 1 in the padded message space.
        assert encoding.decode(neg.phase(lwe_key.bits), PARAMS) == 2 * PARAMS.message_modulus - 1

    def test_scalar_multiply(self, lwe_key, rng):
        a = lwe_key.encrypt(encoding.encode(1, PARAMS), rng)
        doubled = a.scalar_multiply(2)
        assert encoding.decode(doubled.phase(lwe_key.bits), PARAMS) == 2

    def test_add_plaintext(self, lwe_key, rng):
        a = lwe_key.encrypt(encoding.encode(1, PARAMS), rng)
        shifted = a.add_plaintext(encoding.encode(2, PARAMS))
        assert encoding.decode(shifted.phase(lwe_key.bits), PARAMS) == 3

    def test_dimension_mismatch_rejected(self, lwe_key, rng):
        a = lwe_key.encrypt(0, rng)
        other = LweCiphertext.trivial(0, PARAMS.n + 1, PARAMS)
        with pytest.raises(ValueError):
            _ = a + other

    def test_phase_requires_matching_key_dimension(self, lwe_key, rng):
        a = lwe_key.encrypt(0, rng)
        with pytest.raises(ValueError):
            a.phase(np.zeros(PARAMS.n + 3, dtype=np.int64))

    def test_copy_is_independent(self, lwe_key, rng):
        a = lwe_key.encrypt(0, rng)
        b = a.copy()
        b.mask[0] = (b.mask[0] + 1) % PARAMS.q
        assert a.mask[0] != b.mask[0] or a.mask[0] == (b.mask[0] - 1) % PARAMS.q

    def test_mask_canonicalized_on_construction(self):
        ciphertext = LweCiphertext(np.array([-1, PARAMS.q + 3]), -5, PARAMS)
        assert ciphertext.mask.tolist() == [PARAMS.q - 1, 3]
        assert ciphertext.body == PARAMS.q - 5

    def test_noise_grows_with_additions(self, lwe_key, rng):
        zero = encoding.encode(0, PARAMS)
        singles = [lwe_key.encrypt(zero, rng) for _ in range(64)]
        accumulated = singles[0]
        for ciphertext in singles[1:]:
            accumulated = accumulated + ciphertext
        single_error = abs(torus.to_signed(singles[0].phase(lwe_key.bits) - zero, PARAMS.q))
        total_error = abs(torus.to_signed(accumulated.phase(lwe_key.bits) - zero, PARAMS.q))
        # Not a strict inequality sample-by-sample, but 64 accumulated fresh
        # noises are overwhelmingly likely to exceed a single one.
        assert total_error >= single_error


class TestGlwe:
    def test_encrypt_decrypt_phase(self, glwe_key, rng):
        message = torus.reduce(
            np.arange(PARAMS.N, dtype=np.int64) * PARAMS.delta, PARAMS.q
        )
        ciphertext = GlweCiphertext.encrypt(message, glwe_key.polynomials, PARAMS, rng)
        phase = ciphertext.phase(glwe_key.polynomials)
        error = torus.absolute_distance(phase, message, PARAMS.q)
        assert error.max() < PARAMS.delta // 2

    def test_trivial_phase_is_exact(self, glwe_key, rng):
        message = torus.uniform(PARAMS.N, PARAMS.q, rng)
        ciphertext = GlweCiphertext.trivial(message, PARAMS)
        np.testing.assert_array_equal(ciphertext.phase(glwe_key.polynomials), message)

    def test_addition_subtraction(self, glwe_key, rng):
        m1 = torus.uniform(PARAMS.N, PARAMS.q, rng)
        m2 = torus.uniform(PARAMS.N, PARAMS.q, rng)
        c1 = GlweCiphertext.trivial(m1, PARAMS)
        c2 = GlweCiphertext.trivial(m2, PARAMS)
        np.testing.assert_array_equal(
            (c1 + c2).phase(glwe_key.polynomials), torus.reduce(m1 + m2, PARAMS.q)
        )
        np.testing.assert_array_equal(
            (c1 - c2).phase(glwe_key.polynomials), torus.reduce(m1 - m2, PARAMS.q)
        )

    def test_rotation_rotates_the_phase(self, glwe_key, rng):
        from repro.tfhe import polynomial

        message = torus.uniform(PARAMS.N, PARAMS.q, rng)
        ciphertext = GlweCiphertext.encrypt(message, glwe_key.polynomials, PARAMS, rng, noise_std=0.0)
        rotated = ciphertext.rotate(5)
        expected = polynomial.monomial_multiply(message, 5, PARAMS.q)
        np.testing.assert_array_equal(rotated.phase(glwe_key.polynomials), expected)

    def test_sample_extract_constant_coefficient(self, glwe_key, rng):
        message = torus.uniform(PARAMS.N, PARAMS.q, rng)
        ciphertext = GlweCiphertext.encrypt(message, glwe_key.polynomials, PARAMS, rng, noise_std=0.0)
        extracted = ciphertext.sample_extract(0)
        assert extracted.dimension == PARAMS.k * PARAMS.N
        phase = extracted.phase(glwe_key.extracted_lwe_key())
        assert phase == int(message[0])

    @pytest.mark.parametrize("index", [1, 7, 63, 127])
    def test_sample_extract_other_coefficients(self, glwe_key, rng, index):
        message = torus.uniform(PARAMS.N, PARAMS.q, rng)
        ciphertext = GlweCiphertext.encrypt(message, glwe_key.polynomials, PARAMS, rng, noise_std=0.0)
        extracted = ciphertext.sample_extract(index)
        phase = extracted.phase(glwe_key.extracted_lwe_key())
        assert phase == int(message[index])

    def test_sample_extract_bad_index(self, glwe_key):
        ciphertext = GlweCiphertext.trivial(np.zeros(PARAMS.N, dtype=np.int64), PARAMS)
        with pytest.raises(ValueError):
            ciphertext.sample_extract(PARAMS.N)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GlweCiphertext(np.zeros((1, 4)), np.zeros(PARAMS.N), PARAMS)
        with pytest.raises(ValueError):
            GlweCiphertext(np.zeros((PARAMS.k, PARAMS.N)), np.zeros(3), PARAMS)

    def test_k2_parameter_set_roundtrip(self, rng):
        params = SMALL_PARAMETERS
        key = GlweSecretKey.generate(params, rng)
        message = torus.reduce(np.full(params.N, 3 * params.delta, dtype=np.int64), params.q)
        ciphertext = GlweCiphertext.encrypt(message, key.polynomials, params, rng)
        error = torus.absolute_distance(ciphertext.phase(key.polynomials), message, params.q)
        assert error.max() < params.delta // 2
