"""Tests for the negacyclic FFT substrate (reference, twisted, folded)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft.folding import FoldedNegacyclicTransform
from repro.fft.negacyclic import NegacyclicTransform
from repro.fft.reference import (
    naive_dft,
    naive_idft,
    naive_negacyclic_convolution,
    naive_negacyclic_rotation,
)


class TestReference:
    def test_convolution_matches_manual_small_case(self):
        # (1 + 2X) * (3 + 4X) mod (X^2 + 1) = 3 + 10X + 8X^2 = -5 + 10X
        result = naive_negacyclic_convolution([1, 2], [3, 4])
        assert list(result) == [-5, 10]

    def test_convolution_with_identity(self):
        poly = [5, -3, 2, 7]
        identity = [1, 0, 0, 0]
        assert list(naive_negacyclic_convolution(poly, identity)) == poly

    def test_convolution_by_x_rotates_negacyclically(self):
        poly = [1, 2, 3, 4]
        x = [0, 1, 0, 0]
        # X * (1 + 2X + 3X^2 + 4X^3) = -4 + X + 2X^2 + 3X^3
        assert list(naive_negacyclic_convolution(poly, x)) == [-4, 1, 2, 3]

    def test_convolution_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            naive_negacyclic_convolution([1, 2], [1, 2, 3])

    def test_convolution_modulus_reduces_result(self):
        result = naive_negacyclic_convolution([3, 0], [5, 0], modulus=7)
        assert list(result) == [1, 0]

    def test_rotation_positive_amount(self):
        assert list(naive_negacyclic_rotation([1, 2, 3, 4], 1)) == [-4, 1, 2, 3]

    def test_rotation_by_degree_negates(self):
        poly = [1, 2, 3, 4]
        assert list(naive_negacyclic_rotation(poly, 4)) == [-1, -2, -3, -4]

    def test_rotation_by_two_degrees_is_identity(self):
        poly = [9, -1, 0, 3]
        assert list(naive_negacyclic_rotation(poly, 8)) == poly

    def test_rotation_negative_amount_inverts_positive(self):
        poly = [1, 2, 3, 4]
        rotated = naive_negacyclic_rotation(poly, 3)
        restored = naive_negacyclic_rotation(rotated, -3)
        assert list(restored) == poly

    def test_naive_dft_matches_numpy(self, rng):
        values = rng.normal(size=16) + 1j * rng.normal(size=16)
        np.testing.assert_allclose(naive_dft(values), np.fft.fft(values), atol=1e-9)

    def test_naive_idft_inverts_dft(self, rng):
        values = rng.normal(size=8) + 1j * rng.normal(size=8)
        np.testing.assert_allclose(naive_idft(naive_dft(values)), values, atol=1e-9)


class TestNegacyclicTransform:
    @pytest.mark.parametrize("degree", [4, 16, 64, 256, 1024])
    def test_multiply_matches_reference(self, degree, rng):
        transform = NegacyclicTransform(degree)
        a = rng.integers(-(2 ** 16), 2 ** 16, degree)
        b = rng.integers(-64, 64, degree)
        expected = naive_negacyclic_convolution(a, b).astype(np.int64)
        np.testing.assert_array_equal(transform.multiply(a, b), expected)

    def test_forward_then_inverse_is_identity(self, rng):
        transform = NegacyclicTransform(128)
        poly = rng.integers(-1000, 1000, 128).astype(np.float64)
        recovered = transform.inverse(transform.forward(poly))
        np.testing.assert_allclose(recovered, poly, atol=1e-6)

    def test_forward_is_linear(self, rng):
        transform = NegacyclicTransform(64)
        a = rng.normal(size=64)
        b = rng.normal(size=64)
        combined = transform.forward(2.0 * a + 3.0 * b)
        np.testing.assert_allclose(
            combined, 2.0 * transform.forward(a) + 3.0 * transform.forward(b), atol=1e-8
        )

    def test_batched_forward_matches_individual(self, rng):
        transform = NegacyclicTransform(32)
        batch = rng.normal(size=(5, 32))
        batched = transform.forward(batch)
        for index in range(5):
            np.testing.assert_allclose(batched[index], transform.forward(batch[index]))

    def test_invalid_degree_rejected(self):
        with pytest.raises(ValueError):
            NegacyclicTransform(48)

    def test_wrong_length_rejected(self):
        transform = NegacyclicTransform(16)
        with pytest.raises(ValueError):
            transform.forward(np.zeros(8))
        with pytest.raises(ValueError):
            transform.inverse(np.zeros(8, dtype=np.complex128))


class TestFoldedTransform:
    @pytest.mark.parametrize("degree", [4, 16, 64, 256, 2048])
    def test_multiply_matches_reference(self, degree, rng):
        transform = FoldedNegacyclicTransform(degree)
        a = rng.integers(-(2 ** 16), 2 ** 16, degree)
        b = rng.integers(-64, 64, degree)
        expected = naive_negacyclic_convolution(a, b).astype(np.int64)
        np.testing.assert_array_equal(transform.multiply(a, b), expected)

    def test_agrees_with_full_size_transform(self, rng):
        degree = 128
        folded = FoldedNegacyclicTransform(degree)
        full = NegacyclicTransform(degree)
        a = rng.integers(-(2 ** 20), 2 ** 20, degree)
        b = rng.integers(-32, 32, degree)
        np.testing.assert_array_equal(folded.multiply(a, b), full.multiply(a, b))

    def test_spectrum_has_half_length(self):
        transform = FoldedNegacyclicTransform(64)
        spectrum = transform.forward(np.arange(64, dtype=np.float64))
        assert spectrum.shape == (32,)

    def test_fold_unfold_roundtrip(self, rng):
        transform = FoldedNegacyclicTransform(32)
        poly = rng.normal(size=32)
        np.testing.assert_allclose(transform.unfold(transform.fold(poly)), poly)

    def test_forward_inverse_roundtrip(self, rng):
        transform = FoldedNegacyclicTransform(256)
        poly = rng.integers(-1000, 1000, 256).astype(np.float64)
        np.testing.assert_allclose(transform.inverse(transform.forward(poly)), poly, atol=1e-6)

    def test_pointwise_product_respects_convolution_theorem(self, rng):
        degree = 64
        transform = FoldedNegacyclicTransform(degree)
        a = rng.integers(-100, 100, degree)
        b = rng.integers(-100, 100, degree)
        spectral = transform.forward(a) * transform.forward(b)
        expected = naive_negacyclic_convolution(a, b).astype(np.float64)
        np.testing.assert_allclose(transform.inverse(spectral), expected, atol=1e-5)

    def test_batched_transform(self, rng):
        transform = FoldedNegacyclicTransform(64)
        batch = rng.normal(size=(3, 64))
        batched = transform.forward(batch)
        assert batched.shape == (3, 32)
        for index in range(3):
            np.testing.assert_allclose(batched[index], transform.forward(batch[index]))

    def test_invalid_degree_rejected(self):
        with pytest.raises(ValueError):
            FoldedNegacyclicTransform(2)
        with pytest.raises(ValueError):
            FoldedNegacyclicTransform(96)


def _frozen_forward(coefficients: np.ndarray, degree: int) -> np.ndarray:
    """The forward transform as it was written before ``out=`` / ``folded=``."""
    half = degree // 2
    coeffs = np.asarray(coefficients, dtype=np.float64)
    fold = coeffs[..., :half] + 1j * coeffs[..., half:]
    twist = np.exp(1j * np.pi * np.arange(half) / degree)
    return np.fft.ifft(fold * twist, axis=-1) * half


def _frozen_inverse(spectrum: np.ndarray, degree: int) -> np.ndarray:
    """The inverse transform as it was written before ``out=`` / ``folded=``."""
    half = degree // 2
    untwist = np.conj(np.exp(1j * np.pi * np.arange(half) / degree))
    x = np.asarray(spectrum, dtype=np.complex128)
    folded = np.fft.fft(x, axis=-1) / half * untwist
    return np.concatenate([np.real(folded), np.imag(folded)], axis=-1)


#: Digit-range and key-range coefficient magnitudes of the external product.
MAGNITUDES = {"digits": 1 << 9, "key": 1 << 31}


class TestFoldedTransformFrozenFormula:
    """``forward`` / ``inverse`` equal the pre-``out=`` formulas, value for value.

    The scalar kernels are the oracle the vectorized kernels are held to, so
    the oracle itself is pinned here: same complex values (``array_equal``,
    not ``allclose``) with and without ``out=``, folded or not.
    """

    @pytest.mark.parametrize("degree", [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048])
    @pytest.mark.parametrize("magnitude", MAGNITUDES.values(), ids=MAGNITUDES.keys())
    @pytest.mark.parametrize("stack", [(), (3,), (2, 3)], ids=["1d", "2d", "3d"])
    def test_every_calling_form(self, degree, magnitude, stack):
        rng = np.random.default_rng([degree, magnitude, len(stack)])
        transform = FoldedNegacyclicTransform(degree)
        half = degree // 2
        coefficients = rng.integers(-magnitude, magnitude + 1, size=stack + (degree,))
        coefficients[..., 0] = magnitude  # the range's edge is always present
        coefficients[..., -1] = -magnitude

        expected = _frozen_forward(coefficients, degree)
        assert np.array_equal(transform.forward(coefficients), expected)
        assert np.array_equal(transform.forward(coefficients.astype(np.float64)), expected)
        out = np.empty(stack + (half,), dtype=np.complex128)
        assert transform.forward(coefficients, out=out) is out
        assert np.array_equal(out, expected)
        folded = transform.fold(coefficients)
        kept = folded.copy()
        assert np.array_equal(transform.forward(folded, folded=True), expected)
        assert np.array_equal(folded, kept), "forward modified its input"
        assert transform.forward(folded, out=folded, folded=True) is folded  # in place
        assert np.array_equal(folded, expected)

        # A spectrum of external-product size: digit spectra times key spectra.
        spectrum = expected * _frozen_forward(coefficients[..., ::-1], degree)
        kept = spectrum.copy()
        expected = _frozen_inverse(spectrum, degree)
        assert np.array_equal(transform.inverse(spectrum), expected)
        out = np.empty(stack + (degree,), dtype=np.float64)
        assert transform.inverse(spectrum, out=out) is out
        assert np.array_equal(out, expected)
        as_folded = transform.inverse(spectrum, folded=True)
        assert np.array_equal(transform.unfold(as_folded), expected)
        assert np.array_equal(spectrum, kept), "inverse modified its input"
        # Only when the spectrum is itself the destination is it overwritten.
        assert transform.inverse(spectrum, out=spectrum, folded=True) is spectrum
        assert np.array_equal(spectrum, as_folded)

    def test_out_of_wrong_shape_or_dtype_raises(self):
        transform = FoldedNegacyclicTransform(16)
        coefficients = np.arange(32).reshape(2, 16)
        spectrum = transform.forward(coefficients)
        bad_forward = [
            np.empty((2, 16), dtype=np.complex128),  # coefficient-sized
            np.empty((8,), dtype=np.complex128),  # would broadcast
            np.empty((2, 8), dtype=np.complex64),
            np.empty((2, 8), dtype=np.float64),
            [[0j] * 8] * 2,  # not an array
        ]
        for out in bad_forward:
            with pytest.raises(ValueError, match="out must be a complex128 array"):
                transform.forward(coefficients, out=out)
            with pytest.raises(ValueError, match="out must be a complex128 array"):
                transform.inverse(spectrum, out=out, folded=True)
        for out in (
            np.empty((2, 8), dtype=np.float64),
            np.empty((2, 16), dtype=np.int64),
            np.empty((2, 16), dtype=np.complex128),
        ):
            with pytest.raises(ValueError, match="out must be a float64 array"):
                transform.inverse(spectrum, out=out)

    def test_folded_input_of_wrong_length_raises(self):
        transform = FoldedNegacyclicTransform(16)
        with pytest.raises(ValueError, match="length 8"):
            transform.forward(np.zeros(16, dtype=np.complex128), folded=True)
        with pytest.raises(ValueError, match="length 8"):
            transform.inverse(np.zeros(16, dtype=np.complex128), folded=True)
        with pytest.raises(ValueError, match="length 16"):
            transform.forward(np.zeros(8))


class TestTransformProperties:
    @given(
        data=st.lists(st.integers(min_value=-(2 ** 20), max_value=2 ** 20), min_size=16, max_size=16),
        shift=st.integers(min_value=-64, max_value=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_monomial_multiplication_matches_rotation(self, data, shift):
        """Multiplying by X^shift through the FFT equals the direct rotation."""
        degree = 16
        transform = FoldedNegacyclicTransform(degree)
        monomial = np.zeros(degree, dtype=np.int64)
        exponent = shift % (2 * degree)
        sign = 1
        if exponent >= degree:
            exponent -= degree
            sign = -1
        monomial[exponent] = sign
        via_fft = transform.multiply(np.array(data, dtype=np.int64), monomial)
        direct = naive_negacyclic_rotation(data, shift).astype(np.int64)
        np.testing.assert_array_equal(via_fft, direct)

    @given(
        a=st.lists(st.integers(min_value=-(2 ** 15), max_value=2 ** 15), min_size=32, max_size=32),
        b=st.lists(st.integers(min_value=-128, max_value=128), min_size=32, max_size=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_folded_multiply_is_exact(self, a, b):
        """The folded transform recovers exact integer negacyclic products."""
        transform = FoldedNegacyclicTransform(32)
        expected = naive_negacyclic_convolution(a, b).astype(np.int64)
        np.testing.assert_array_equal(
            transform.multiply(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)),
            expected,
        )

    @given(
        a=st.lists(st.integers(min_value=-(2 ** 10), max_value=2 ** 10), min_size=16, max_size=16),
        b=st.lists(st.integers(min_value=-(2 ** 10), max_value=2 ** 10), min_size=16, max_size=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_convolution_commutes(self, a, b):
        """Negacyclic convolution is commutative."""
        ab = naive_negacyclic_convolution(a, b)
        ba = naive_negacyclic_convolution(b, a)
        assert list(ab) == list(ba)
