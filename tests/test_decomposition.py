"""Tests for the signed gadget decomposition (Equation 3 of the paper)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.params import PARAM_SET_I, TOY_PARAMETERS
from repro.tfhe import torus
from repro.tfhe.decomposition import (
    decompose,
    decompose_folded,
    decompose_polynomial_list,
    decompose_rows,
    decomposition_error_bound,
    plan_decompose_folded,
    recompose,
)

Q_BITS = 32
Q = 1 << Q_BITS


class TestDecompose:
    def test_digit_range(self, rng):
        values = rng.integers(0, Q, 1000)
        digits = decompose(values, levels=3, log2_base=8)
        base = 256
        assert digits.min() >= -(base // 2)
        assert digits.max() <= base // 2

    def test_output_shape(self, rng):
        values = rng.integers(0, Q, (4, 7))
        digits = decompose(values, levels=2, log2_base=10)
        assert digits.shape == (2, 4, 7)

    def test_reconstruction_error_within_bound(self, rng):
        levels, log2_base = 3, 8
        values = rng.integers(0, Q, 2000)
        digits = decompose(values, levels, log2_base)
        rebuilt = recompose(digits, log2_base)
        bound = decomposition_error_bound(levels, log2_base)
        error = torus.absolute_distance(values, rebuilt, Q)
        assert error.max() <= bound

    def test_exact_when_all_bits_kept(self, rng):
        values = rng.integers(0, Q, 500)
        digits = decompose(values, levels=4, log2_base=8)
        rebuilt = recompose(digits, log2_base=8)
        np.testing.assert_array_equal(rebuilt, values)

    def test_zero_decomposes_to_zero(self):
        digits = decompose(np.zeros(10, dtype=np.int64), levels=2, log2_base=10)
        assert not digits.any()

    def test_exact_multiple_of_gadget_is_single_digit(self):
        # q / B = the first gadget scale: decomposes to digit (1, 0, ...).
        value = np.array([Q >> 10], dtype=np.int64)
        digits = decompose(value, levels=2, log2_base=10)
        assert digits[0, 0] == 1
        assert digits[1, 0] == 0

    def test_too_many_levels_rejected(self):
        with pytest.raises(ValueError):
            decompose(np.zeros(4, dtype=np.int64), levels=5, log2_base=8)

    def test_decompose_for_params_selects_pbs_or_ks(self, rng):
        values = rng.integers(0, Q, 16)
        params = TOY_PARAMETERS
        pbs_digits = decompose(values, params.lb, params.log2_base_pbs, params.q_bits)
        ks_digits = decompose(values, params.lk, params.log2_base_ks, params.q_bits)
        assert pbs_digits.shape[0] == TOY_PARAMETERS.lb
        assert ks_digits.shape[0] == TOY_PARAMETERS.lk


class TestDecomposePolynomialList:
    def test_shape_and_ordering(self, rng):
        polys = rng.integers(0, Q, (3, 16))
        flat = decompose_polynomial_list(polys, levels=2, log2_base=8)
        assert flat.shape == (6, 16)
        reference = decompose(polys, levels=2, log2_base=8)
        # Row ordering is (poly0 level0, poly0 level1, poly1 level0, ...).
        np.testing.assert_array_equal(flat[0], reference[0, 0])
        np.testing.assert_array_equal(flat[1], reference[1, 0])
        np.testing.assert_array_equal(flat[2], reference[0, 1])

    def test_requires_2d_input(self):
        with pytest.raises(ValueError):
            decompose_polynomial_list(np.zeros(8, dtype=np.int64), 2, 8)


class TestDecomposeFoldedBuffers:
    """``decompose_folded`` has two legal words and checks the buffers it is handed."""

    LEVELS, LOG2_BASE, DEGREE = 2, 10, 16

    def _values(self, word) -> np.ndarray:
        # A generator of its own: the session-wide ``rng`` fixture is a shared stream.
        return np.random.default_rng(20).integers(0, Q, (3, self.DEGREE)).astype(word)

    def _decompose(self, values, out=None, scratch=None) -> np.ndarray:
        return decompose_folded(values, self.LEVELS, self.LOG2_BASE, Q_BITS, out, scratch)

    @pytest.mark.parametrize("word", [np.uint32, np.int64])
    def test_buffers_of_the_word_are_used(self, word):
        values = self._values(word)
        out = np.empty((3, self.LEVELS, self.DEGREE // 2), dtype=np.complex128)
        scratch = np.empty((3, self.LEVELS, self.DEGREE), dtype=word)
        assert self._decompose(values, out, scratch) is out
        np.testing.assert_array_equal(out, self._decompose(values.astype(np.int64)))

    @pytest.mark.parametrize("other", [np.int32, np.uint64, np.float64, ">u4"])
    def test_any_other_dtype_is_read_as_int64(self, other):
        values = self._values(np.int64) >> 1
        scratch = np.empty((3, self.LEVELS, self.DEGREE), dtype=np.int64)
        folded = self._decompose(values.astype(other), scratch=scratch)
        np.testing.assert_array_equal(folded, self._decompose(values))

    #: ``(values' word, the buffer handed in, its dtype, its shape, the complaint)``
    REJECTED = {
        "uint32-values-int64-scratch": (
            np.uint32, "scratch", np.int64, (3, 2, 16),
            r"scratch must be a uint32 array of shape \(3, 2, 16\), got int64 \(3, 2, 16\)",
        ),
        "int64-values-uint32-scratch": (
            np.int64, "scratch", np.uint32, (3, 2, 16),
            r"scratch must be a int64 array of shape \(3, 2, 16\), got uint32 \(3, 2, 16\)",
        ),
        "scratch-of-the-wrong-shape": (
            np.uint32, "scratch", np.uint32, (3, 2, 8),
            r"scratch must be a uint32 array of shape \(3, 2, 16\), got uint32 \(3, 2, 8\)",
        ),
        "out-not-complex128": (
            np.uint32, "out", np.float64, (3, 2, 8),
            r"out must be a complex128 array of shape \(3, 2, 8\), got float64 \(3, 2, 8\)",
        ),
        "out-of-the-wrong-shape": (
            np.int64, "out", np.complex128, (3, 2, 16),
            r"out must be a complex128 array of shape \(3, 2, 8\), got complex128 \(3, 2, 16\)",
        ),
    }  # fmt: skip

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_a_wrong_buffer_is_rejected_by_name(self, case):
        """The wording of ``fft.folding.checked_out``, not a ufunc error three lines later."""
        word, name, dtype, shape, complaint = self.REJECTED[case]
        with pytest.raises(ValueError, match=complaint):
            self._decompose(self._values(word), **{name: np.empty(shape, dtype=dtype)})

    def test_a_buffer_that_is_no_array_is_rejected(self):
        with pytest.raises(ValueError, match=r"scratch must be a int64 array .* got list"):
            self._decompose(self._values(np.int64), scratch=[])

    def test_a_modulus_wider_than_the_word_is_rejected(self):
        with pytest.raises(ValueError, match="40-bit modulus does not fit uint32 values"):
            decompose_folded(self._values(np.uint32), 2, 10, q_bits=40)
        assert decompose_folded(self._values(np.int64), 2, 10, q_bits=40).shape == (3, 2, 8)

    @pytest.mark.parametrize("other", [np.int32, np.uint64, np.float64, ">u4", ">i8"])
    def test_a_plan_refuses_values_it_would_have_to_copy(self, other):
        """A converted copy is private: refilling the caller's array would not reach it."""
        values = (self._values(np.int64) >> 1).astype(other)
        complaint = rf"values must be a uint32 or int64 array, got {np.dtype(other)}"
        with pytest.raises(ValueError, match=complaint):
            apply = plan_decompose_folded(values, self.LEVELS, self.LOG2_BASE, Q_BITS)
            refill = values[::-1].copy()
            np.copyto(values, refill)
            np.testing.assert_array_equal(apply(), self._decompose(refill))

    def test_a_plan_refuses_values_that_are_no_array(self):
        with pytest.raises(ValueError, match="values must be a uint32 or int64 array, got list"):
            plan_decompose_folded([0, 1], self.LEVELS, self.LOG2_BASE, Q_BITS)


@st.composite
def plan_cases(draw):
    """``(word, levels, log2_base, q_bits, seed, refills)`` of a plan the modulus can hold."""
    q_bits = draw(st.sampled_from([12, 24, 32]))
    levels = draw(st.integers(min_value=1, max_value=4))
    log2_base = draw(st.integers(min_value=2, max_value=min(10, q_bits // levels)))
    word = draw(st.sampled_from([np.uint32, np.int64]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return word, levels, log2_base, q_bits, seed, draw(st.integers(min_value=2, max_value=4))


class TestPlanAsTheKernelUsesIt:
    """One plan, its ``values`` buffer refilled between calls — the blind-rotation loop's use."""

    SHAPE = (2, 3, 16)

    @given(plan_cases())
    @settings(deadline=None)
    def test_every_refill_is_decomposed_afresh(self, case):
        word, levels, log2_base, q_bits, seed, refills = case
        rng = np.random.default_rng(seed)
        q = 1 << q_bits
        half = self.SHAPE[-1] // 2
        buffer = np.empty(self.SHAPE, dtype=word)
        apply = plan_decompose_folded(buffer, levels, log2_base, q_bits)
        for _ in range(refills):
            # Unreduced representatives: any uint32 word, or int64 values many q wide.
            if word is np.uint32:
                fill = rng.integers(0, 1 << 32, self.SHAPE, dtype=np.uint32)
            else:
                fill = rng.integers(-(q << 9), q << 9, self.SHAPE, dtype=np.int64)
            fill[0, 0, :4] = (0, q - 1, q // 2, q // 2 - 1)
            np.copyto(buffer, fill)
            expected = decompose_rows(np.mod(fill.astype(np.int64), q), levels, log2_base, q_bits)
            folded = apply()
            np.testing.assert_array_equal(folded.real, expected[..., :half])
            np.testing.assert_array_equal(folded.imag, expected[..., half:])

            kept = fill.copy()
            np.testing.assert_array_equal(decompose_folded(fill, levels, log2_base, q_bits), folded)
            np.testing.assert_array_equal(fill, kept)


class TestDecompositionProperties:
    @given(st.integers(min_value=0, max_value=Q - 1))
    @settings(max_examples=300, deadline=None)
    def test_error_bound_holds_for_param_set_i(self, value):
        params = PARAM_SET_I
        digits = decompose(np.array([value], dtype=np.int64), params.lb, params.log2_base_pbs)
        rebuilt = int(recompose(digits, params.log2_base_pbs)[0])
        bound = decomposition_error_bound(params.lb, params.log2_base_pbs)
        assert int(torus.absolute_distance(value, rebuilt, Q)) <= bound

    @given(
        st.integers(min_value=0, max_value=Q - 1),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([4, 6, 7, 8]),
    )
    @settings(max_examples=200, deadline=None)
    def test_error_bound_holds_for_arbitrary_bases(self, value, levels, log2_base):
        digits = decompose(np.array([value], dtype=np.int64), levels, log2_base)
        rebuilt = int(recompose(digits, log2_base)[0])
        bound = decomposition_error_bound(levels, log2_base)
        assert int(torus.absolute_distance(value, rebuilt, Q)) <= bound
        base = 1 << log2_base
        assert int(np.abs(digits).max()) <= base // 2

    @given(st.integers(min_value=0, max_value=Q - 1), st.integers(min_value=0, max_value=Q - 1))
    @settings(max_examples=100, deadline=None)
    def test_decomposition_is_deterministic(self, a, b):
        values = np.array([a, b], dtype=np.int64)
        first = decompose(values, 3, 6)
        second = decompose(values, 3, 6)
        np.testing.assert_array_equal(first, second)
