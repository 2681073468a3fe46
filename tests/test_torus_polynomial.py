"""Tests for torus arithmetic, negacyclic polynomials and message encoding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft.reference import naive_negacyclic_rotation
from repro.params import TOY_PARAMETERS
from repro.tfhe import encoding, polynomial, torus

Q = TOY_PARAMETERS.q


class TestTorus:
    def test_reduce_scalar_and_array(self):
        assert torus.reduce(-1, Q) == Q - 1
        np.testing.assert_array_equal(
            torus.reduce(np.array([Q, Q + 5, -3]), Q), np.array([0, 5, Q - 3])
        )

    def test_to_signed_maps_upper_half_negative(self):
        assert torus.to_signed(Q - 1, Q) == -1
        assert torus.to_signed(Q // 2, Q) == -(Q // 2)
        assert torus.to_signed(5, Q) == 5

    def test_to_signed_roundtrip(self):
        values = np.array([0, 1, Q // 4, Q // 2, Q - 1], dtype=np.int64)
        signed = torus.to_signed(values, Q)
        np.testing.assert_array_equal(torus.reduce(signed, Q), values)

    @pytest.mark.parametrize("q", [2**32, 2**12])
    def test_to_signed_bitmask_equals_the_mod_where_definition(self, q):
        edges = np.array([0, q // 2 - 1, q // 2, q - 1, -1, -(q // 2), q, 2 * q + 5])
        drawn = np.random.default_rng(q).integers(-(2**62), 2**62, size=2000)
        values = np.concatenate([edges, drawn])
        canonical = np.mod(values, q)
        expected = np.where(canonical >= q // 2, canonical - q, canonical)
        signed = torus.to_signed(values, q)
        assert signed.dtype == np.int64
        np.testing.assert_array_equal(signed, expected)

    def test_uniform_in_range(self, rng):
        samples = torus.uniform(1000, Q, rng)
        assert samples.min() >= 0 and samples.max() < Q

    def test_gaussian_noise_zero_std_is_zero(self, rng):
        noise = torus.gaussian_noise(100, 0.0, Q, rng)
        assert not noise.any()

    def test_gaussian_noise_scale(self, rng):
        noise = torus.gaussian_noise(20000, 2.0 ** -16, Q, rng)
        signed = torus.to_signed(noise, Q).astype(np.float64)
        measured_std = signed.std() / Q
        assert 0.5 * 2 ** -16 < measured_std < 2.0 * 2 ** -16

    def test_switch_modulus_scales_proportionally(self):
        # q/2 must map to N under modulus 2N.
        n_poly = TOY_PARAMETERS.N
        assert torus.switch_modulus(Q // 2, Q, 2 * n_poly) == n_poly

    def test_switch_modulus_rounding_error_bounded(self, rng):
        two_n = 2 * TOY_PARAMETERS.N
        values = torus.uniform(500, Q, rng)
        switched = torus.switch_modulus(values, Q, two_n)
        recovered = switched * (Q // two_n)
        error = torus.absolute_distance(values, recovered, Q)
        assert error.max() <= Q // (2 * two_n) + 1

    def test_absolute_distance_wraps(self):
        assert torus.absolute_distance(1, Q - 1, Q) == 2


class TestPolynomial:
    def test_add_sub_roundtrip(self, rng):
        n_poly = 64
        a = torus.uniform(n_poly, Q, rng)
        b = torus.uniform(n_poly, Q, rng)
        np.testing.assert_array_equal(polynomial.add(polynomial.add(a, b, Q), torus.reduce(-b, Q), Q), a)

    def test_negate_is_additive_inverse(self, rng):
        a = torus.uniform(32, Q, rng)
        total = polynomial.add(a, torus.reduce(-a, Q), Q)
        assert not total.any()

    @pytest.mark.parametrize("exponent", [0, 1, 5, 63, 64, 100, 127, 128, -1, -37])
    def test_monomial_multiply_matches_reference(self, exponent, rng):
        n_poly = 64
        a = rng.integers(0, Q, n_poly)
        expected = torus.reduce(
            naive_negacyclic_rotation(a, exponent).astype(object), Q
        ).astype(np.int64)
        result = polynomial.monomial_multiply(a, exponent, Q)
        np.testing.assert_array_equal(result, expected)

    def test_monomial_multiply_full_circle_identity(self, rng):
        a = torus.uniform(32, Q, rng)
        np.testing.assert_array_equal(polynomial.monomial_multiply(a, 64, Q), a)

    def test_rotate_and_subtract_zero_exponent_is_zero(self, rng):
        a = torus.uniform(32, Q, rng)
        assert not torus.reduce(polynomial.monomial_multiply(a, 0, Q) - a, Q).any()

    def test_integer_multiply_matches_naive(self, rng):
        from repro.fft.reference import naive_negacyclic_convolution

        n_poly = 64
        a = torus.uniform(n_poly, Q, rng)
        b = rng.integers(-16, 16, n_poly)
        expected = torus.reduce(
            naive_negacyclic_convolution(a, b, modulus=Q), Q
        ).astype(np.int64)
        np.testing.assert_array_equal(polynomial.integer_multiply(a, b, Q), expected)

    def test_integer_multiply_by_one_is_identity(self, rng):
        a = torus.uniform(128, Q, rng)
        one = np.zeros(128, dtype=np.int64)
        one[0] = 1
        np.testing.assert_array_equal(polynomial.integer_multiply(a, one, Q), a)

    def test_transform_cache_reuses_instances(self):
        assert polynomial.get_transform(64) is polynomial.get_transform(64)


class TestEncoding:
    @pytest.mark.parametrize("message", range(TOY_PARAMETERS.message_modulus))
    def test_encode_decode_roundtrip(self, message):
        assert encoding.decode(encoding.encode(message, TOY_PARAMETERS), TOY_PARAMETERS) == message

    def test_decode_tolerates_noise(self):
        params = TOY_PARAMETERS
        value = encoding.encode(2, params)
        noisy = (value + params.delta // 4) % params.q
        assert encoding.decode(noisy, params) == 2
        noisy = (value - params.delta // 4) % params.q
        assert encoding.decode(noisy, params) == 2

    def test_encode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            encoding.encode(TOY_PARAMETERS.message_modulus, TOY_PARAMETERS)
        with pytest.raises(ValueError):
            encoding.encode(-1, TOY_PARAMETERS)

    def test_array_roundtrip(self):
        params = TOY_PARAMETERS
        messages = np.arange(params.message_modulus)
        encoded = encoding.encode_array(messages, params)
        np.testing.assert_array_equal(encoding.decode_array(encoded, params), messages)

    def test_array_encode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            encoding.encode_array(np.array([0, 99]), TOY_PARAMETERS)

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_roundtrip(self, value):
        encoded = encoding.encode_boolean(value, TOY_PARAMETERS)
        assert encoding.decode_boolean(encoded, TOY_PARAMETERS) is value

    def test_boolean_encoding_is_plus_minus_eighth(self):
        params = TOY_PARAMETERS
        assert encoding.encode_boolean(True, params) == params.q // 8
        assert encoding.encode_boolean(False, params) == params.q - params.q // 8


class TestTorusProperties:
    @given(st.integers(min_value=-(2 ** 40), max_value=2 ** 40))
    @settings(max_examples=200, deadline=None)
    def test_reduce_then_signed_is_congruent(self, value):
        signed = torus.to_signed(value, Q)
        assert (signed - value) % Q == 0
        assert -Q // 2 <= signed < Q // 2

    @given(
        st.lists(st.integers(min_value=0, max_value=Q - 1), min_size=8, max_size=8),
        st.integers(min_value=-512, max_value=512),
        st.integers(min_value=-512, max_value=512),
    )
    @settings(max_examples=100, deadline=None)
    def test_monomial_multiplication_is_homomorphic_in_exponent(self, coeffs, e1, e2):
        """X^(e1) * (X^(e2) * a) == X^(e1+e2) * a in the negacyclic ring."""
        a = np.array(coeffs, dtype=np.int64)
        a = np.resize(a, 8)
        step = polynomial.monomial_multiply(polynomial.monomial_multiply(a, e2, Q), e1, Q)
        direct = polynomial.monomial_multiply(a, e1 + e2, Q)
        np.testing.assert_array_equal(step, direct)

    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=-3, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_decode_is_noise_tolerant(self, message, jitter_sign):
        params = TOY_PARAMETERS
        jitter = jitter_sign * params.delta // 8
        value = (encoding.encode(message, params) + jitter) % params.q
        assert encoding.decode(value, params) == message
