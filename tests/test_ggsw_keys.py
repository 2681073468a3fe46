"""Tests for GGSW ciphertexts, the external product / CMux, and key objects."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.params import DEEP_NN_N1024, PARAM_SET_I, SMALL_PARAMETERS, TOY_PARAMETERS
from repro.tfhe import torus
from repro.tfhe.ggsw import GgswCiphertext, cmux, external_product
from repro.tfhe.glwe import GlweCiphertext
from repro.tfhe.keys import (
    BootstrappingKey,
    GlweSecretKey,
    KeySwitchingKey,
    LweSecretKey,
)
from repro.tfhe.lwe import LweCiphertext

PARAMS = TOY_PARAMETERS


@pytest.fixture(scope="module")
def glwe_key():
    return GlweSecretKey.generate(PARAMS, np.random.default_rng(21))


@pytest.fixture(scope="module")
def module_rng():
    return np.random.default_rng(22)


def _encrypted_message(glwe_key, message, rng, noise_std=None):
    return GlweCiphertext.encrypt(message, glwe_key.polynomials, PARAMS, rng, noise_std)


class TestGgsw:
    def test_row_shape(self, glwe_key, module_rng):
        ggsw = GgswCiphertext.encrypt(1, glwe_key.polynomials, PARAMS, module_rng)
        assert ggsw.rows.shape == ((PARAMS.k + 1) * PARAMS.lb, PARAMS.k + 1, PARAMS.N)

    def test_fourier_conversion_shape(self, glwe_key, module_rng):
        ggsw = GgswCiphertext.encrypt(0, glwe_key.polynomials, PARAMS, module_rng)
        fourier = ggsw.to_fourier()
        assert fourier.spectra.shape == ((PARAMS.k + 1) * PARAMS.lb, PARAMS.k + 1, PARAMS.N // 2)

    def test_external_product_by_one_preserves_message(self, glwe_key, module_rng):
        message = torus.reduce(
            np.arange(PARAMS.N, dtype=np.int64) % PARAMS.message_modulus * PARAMS.delta,
            PARAMS.q,
        )
        glwe = _encrypted_message(glwe_key, message, module_rng)
        ggsw = GgswCiphertext.encrypt(1, glwe_key.polynomials, PARAMS, module_rng)
        result = external_product(ggsw, glwe)
        error = torus.absolute_distance(result.phase(glwe_key.polynomials), message, PARAMS.q)
        assert error.max() < PARAMS.delta // 2

    def test_external_product_by_zero_kills_message(self, glwe_key, module_rng):
        message = torus.reduce(np.full(PARAMS.N, 3 * PARAMS.delta, dtype=np.int64), PARAMS.q)
        glwe = _encrypted_message(glwe_key, message, module_rng)
        ggsw = GgswCiphertext.encrypt(0, glwe_key.polynomials, PARAMS, module_rng)
        result = external_product(ggsw, glwe)
        error = torus.absolute_distance(
            result.phase(glwe_key.polynomials), np.zeros(PARAMS.N, dtype=np.int64), PARAMS.q
        )
        assert error.max() < PARAMS.delta // 2

    def test_external_product_accepts_time_domain_ggsw(self, glwe_key, module_rng):
        message = torus.reduce(np.full(PARAMS.N, PARAMS.delta, dtype=np.int64), PARAMS.q)
        glwe = _encrypted_message(glwe_key, message, module_rng)
        ggsw = GgswCiphertext.encrypt(1, glwe_key.polynomials, PARAMS, module_rng)
        direct = external_product(ggsw, glwe)
        via_fourier = ggsw.to_fourier().external_product(glwe)
        np.testing.assert_array_equal(direct.body, via_fourier.body)

    @pytest.mark.parametrize("bit, expected_selects_true", [(0, False), (1, True)])
    def test_cmux_selects_correct_branch(self, glwe_key, module_rng, bit, expected_selects_true):
        false_message = torus.reduce(np.full(PARAMS.N, 1 * PARAMS.delta, dtype=np.int64), PARAMS.q)
        true_message = torus.reduce(np.full(PARAMS.N, 3 * PARAMS.delta, dtype=np.int64), PARAMS.q)
        ct_false = _encrypted_message(glwe_key, false_message, module_rng)
        ct_true = _encrypted_message(glwe_key, true_message, module_rng)
        selector = GgswCiphertext.encrypt(bit, glwe_key.polynomials, PARAMS, module_rng)
        selected = cmux(selector, ct_false, ct_true)
        expected = true_message if expected_selects_true else false_message
        error = torus.absolute_distance(selected.phase(glwe_key.polynomials), expected, PARAMS.q)
        assert error.max() < PARAMS.delta // 2

    def test_chained_cmux_noise_stays_decodable(self, glwe_key, module_rng):
        """Repeated CMux with the same selector keeps the message decodable."""
        message = torus.reduce(np.full(PARAMS.N, 2 * PARAMS.delta, dtype=np.int64), PARAMS.q)
        accumulator = GlweCiphertext.trivial(message, PARAMS)
        selector = GgswCiphertext.encrypt(1, glwe_key.polynomials, PARAMS, module_rng).to_fourier()
        for _ in range(PARAMS.n):
            rotated = accumulator.rotate(0)
            accumulator = selector.cmux(accumulator, rotated)
        error = torus.absolute_distance(accumulator.phase(glwe_key.polynomials), message, PARAMS.q)
        assert error.max() < PARAMS.delta // 2

    def test_invalid_row_shape_rejected(self):
        with pytest.raises(ValueError):
            GgswCiphertext(np.zeros((2, 2, PARAMS.N)), PARAMS)


class TestSecretKeys:
    def test_lwe_key_is_binary_and_sized(self, module_rng):
        key = LweSecretKey.generate(PARAMS, module_rng)
        assert key.dimension == PARAMS.n
        assert set(np.unique(key.bits)).issubset({0, 1})

    def test_lwe_key_rejects_non_binary(self):
        with pytest.raises(ValueError):
            LweSecretKey(np.array([0, 2, 1]), PARAMS)

    def test_glwe_key_shape_and_flattening(self, module_rng):
        key = GlweSecretKey.generate(PARAMS, module_rng)
        assert key.polynomials.shape == (PARAMS.k, PARAMS.N)
        flat = key.extracted_lwe_key()
        assert flat.shape == (PARAMS.k * PARAMS.N,)
        np.testing.assert_array_equal(flat[: PARAMS.N], key.polynomials[0])

    def test_glwe_key_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            GlweSecretKey(np.zeros((PARAMS.k, PARAMS.N + 1), dtype=np.int64), PARAMS)

    def test_glwe_key_rejects_non_binary(self):
        polys = np.zeros((PARAMS.k, PARAMS.N), dtype=np.int64)
        polys[0, 0] = 5
        with pytest.raises(ValueError):
            GlweSecretKey(polys, PARAMS)


class TestEvaluationKeys:
    def test_bootstrapping_key_length_and_size(self, toy_context):
        bsk = toy_context.server_keys.bootstrapping_key
        assert len(bsk) == PARAMS.n
        assert bsk.size_bytes == PARAMS.bootstrapping_key_fourier_bytes

    def test_bootstrapping_key_entries_encrypt_key_bits(self, toy_context):
        """CMux with bsk[i] selects according to the i-th LWE key bit."""
        bsk = toy_context.server_keys.bootstrapping_key
        glwe_key = toy_context.glwe_key
        false_msg = torus.reduce(np.full(PARAMS.N, PARAMS.delta, dtype=np.int64), PARAMS.q)
        true_msg = torus.reduce(np.full(PARAMS.N, 3 * PARAMS.delta, dtype=np.int64), PARAMS.q)
        ct_false = GlweCiphertext.trivial(false_msg, PARAMS)
        ct_true = GlweCiphertext.trivial(true_msg, PARAMS)
        for index in [0, 1, PARAMS.n - 1]:
            bit = int(toy_context.lwe_key.bits[index])
            selected = bsk[index].cmux(ct_false, ct_true)
            expected = true_msg if bit else false_msg
            error = torus.absolute_distance(
                selected.phase(glwe_key.polynomials), expected, PARAMS.q
            )
            assert error.max() < PARAMS.delta // 2

    def test_keyswitching_key_shape(self, toy_context):
        ksk = toy_context.server_keys.keyswitching_key
        assert ksk.ciphertexts.shape == (PARAMS.k * PARAMS.N, PARAMS.lk, PARAMS.n + 1)
        assert ksk.size_bytes == ksk.ciphertexts.size * 4

    def test_keyswitching_key_shape_validation(self):
        with pytest.raises(ValueError):
            KeySwitchingKey(np.zeros((3, 3, 3), dtype=np.int64), PARAMS)

    def test_server_keys_total_bytes(self, toy_context):
        keys = toy_context.server_keys
        assert (
            keys.total_bytes
            == keys.bootstrapping_key.size_bytes + keys.keyswitching_key.size_bytes
        )

    @pytest.mark.parametrize(
        "lwe_params, glwe_params",
        [(TOY_PARAMETERS, SMALL_PARAMETERS), (PARAM_SET_I, DEEP_NN_N1024)],
    )
    def test_generate_refuses_secret_keys_of_two_sets(self, lwe_params, glwe_params):
        rng = np.random.default_rng(3)
        lwe_key = LweSecretKey.generate(lwe_params, rng)
        glwe_key = GlweSecretKey.generate(glwe_params, rng)
        names = f"'{re.escape(lwe_params.name)}'.*'{re.escape(glwe_params.name)}'"
        with pytest.raises(ValueError, match=names):
            BootstrappingKey.generate(lwe_key, glwe_key, rng)
        with pytest.raises(ValueError, match=names):
            KeySwitchingKey.generate(glwe_key, lwe_key, rng)


# -- key generation against its per-ciphertext definition -------------------------


def spec_bootstrapping_key(lwe_key, glwe_key, rng, noise_std=None):
    """One ``GgswCiphertext.encrypt`` per LWE key bit: what ``generate`` must equal."""
    params = lwe_key.params
    ggsw_list = []
    for bit in lwe_key.bits:
        ggsw = GgswCiphertext.encrypt(int(bit), glwe_key.polynomials, params, rng, noise_std)
        ggsw_list.append(ggsw.to_fourier())
    return BootstrappingKey(ggsw_list, params)


def spec_keyswitching_key(glwe_key, lwe_key, rng, noise_std=None):
    """One ``LweCiphertext.encrypt`` per table entry: what ``generate`` must equal."""
    params = lwe_key.params
    q = params.q
    std = params.lwe_noise_std if noise_std is None else noise_std
    input_key = glwe_key.extracted_lwe_key()
    table = np.zeros((input_key.shape[0], params.lk, params.n + 1), dtype=np.int64)
    for j in range(input_key.shape[0]):
        for level in range(params.lk):
            scale = q >> ((level + 1) * params.log2_base_ks)
            ct = LweCiphertext.encrypt(int(input_key[j]) * scale, lwe_key.bits, params, rng, std)
            table[j, level, : params.n] = ct.mask
            table[j, level, params.n] = ct.body
    return KeySwitchingKey(table, params)


def _generated(params, seed, noise_std, bootstrapping_key, keyswitching_key):
    """Both evaluation keys, as bits, and the generator's next draw after them."""
    rng = np.random.default_rng(seed)
    lwe_key = LweSecretKey.generate(params, rng)
    glwe_key = GlweSecretKey.generate(params, rng)
    bsk = bootstrapping_key(lwe_key, glwe_key, rng, noise_std)
    ksk = keyswitching_key(glwe_key, lwe_key, rng, noise_std)
    spectra = np.stack([ggsw.spectra for ggsw in bsk.ggsw_list]).view(np.int64)
    return spectra, ksk.ciphertexts, int(rng.integers(2**62))


def _assert_generate_equals_the_spec(params, seed, noise_std):
    fast = _generated(params, seed, noise_std, BootstrappingKey.generate, KeySwitchingKey.generate)
    spec = _generated(params, seed, noise_std, spec_bootstrapping_key, spec_keyswitching_key)
    np.testing.assert_array_equal(fast[0], spec[0], err_msg="bootstrapping-key spectra")
    np.testing.assert_array_equal(fast[1], spec[1], err_msg="keyswitching-key table")
    assert fast[2] == spec[2], "the generator's state after the keys"


@given(
    params=st.sampled_from([TOY_PARAMETERS, SMALL_PARAMETERS]),
    seed=st.integers(0, 2**32 - 1),
    noise_std=st.sampled_from([None, 0.0, 2.0**-20]),
)
@example(params=TOY_PARAMETERS, seed=0, noise_std=0.0)
@example(params=SMALL_PARAMETERS, seed=1, noise_std=2.0**-20)
@settings(max_examples=settings.default.max_examples // 10, deadline=None)
def test_generate_equals_the_spec_draw_for_draw(params, seed, noise_std):
    """Same seed, same draws in the same order, same keys bit for bit."""
    _assert_generate_equals_the_spec(params, seed, noise_std)


def test_generate_equals_the_spec_at_set_i():
    _assert_generate_equals_the_spec(PARAM_SET_I, 7, None)
