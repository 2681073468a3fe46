"""Tests for radix-encrypted integer arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tfhe.integer import RadixIntegerCodec


@pytest.fixture(scope="module")
def codec(request):
    context = request.getfixturevalue("toy_context")
    return RadixIntegerCodec(context, digit_bits=1, num_digits=4)


class TestRadixCodec:
    def test_configuration(self, codec):
        assert codec.radix == 2
        assert codec.num_digits == 4
        assert codec.max_value == 15
        assert codec.pbs_per_addition() == 8

    @pytest.mark.parametrize("value", [0, 1, 7, 10, 15])
    def test_encrypt_decrypt_roundtrip(self, codec, value):
        assert codec.decrypt(codec.encrypt(value)) == value

    def test_out_of_range_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.encrypt(16)
        with pytest.raises(ValueError):
            codec.encrypt(-1)

    @pytest.mark.parametrize("a, b", [(5, 9), (7, 8), (0, 15), (3, 3), (1, 1)])
    def test_addition_with_carry_propagation(self, codec, a, b):
        result = codec.add(codec.encrypt(a), codec.encrypt(b))
        assert codec.decrypt(result) == a + b
        # Canonical form: every digit is below the radix after propagation.
        for digit in result.digits:
            assert codec.context.decrypt(digit) < codec.radix

    def test_addition_without_propagation_still_decrypts(self, codec):
        raw = codec.add(codec.encrypt(5), codec.encrypt(2), propagate=False)
        # Digit sums may exceed the radix, but the weighted sum is preserved.
        total = 0
        for index, digit in enumerate(raw.digits):
            total += codec.context.decrypt(digit) << index
        assert total == 7

    @pytest.mark.parametrize("a, scalar", [(6, 7), (0, 15), (9, 2)])
    def test_scalar_addition(self, codec, a, scalar):
        result = codec.add_scalar(codec.encrypt(a), scalar)
        assert codec.decrypt(result) == a + scalar

    def test_chained_additions(self, codec):
        accumulator = codec.encrypt(1)
        for value in (2, 3, 4):
            accumulator = codec.add(accumulator, codec.encrypt(value))
        assert codec.decrypt(accumulator) == 10

    def test_incompatible_operands_rejected(self, codec, toy_context):
        other = RadixIntegerCodec(toy_context, digit_bits=1, num_digits=2)
        with pytest.raises(ValueError):
            codec.add(codec.encrypt(1), other.encrypt(1))

    def test_invalid_configuration_rejected(self, toy_context):
        with pytest.raises(ValueError):
            RadixIntegerCodec(toy_context, digit_bits=0)
        with pytest.raises(ValueError):
            RadixIntegerCodec(toy_context, digit_bits=2)  # no carry headroom for p=4
        with pytest.raises(ValueError):
            RadixIntegerCodec(toy_context, num_digits=0)

    def test_encrypted_integer_properties(self, codec):
        value = codec.encrypt(9)
        assert value.num_digits == 4
        assert value.radix == 2


class TestRadixProperties:
    @given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
    @settings(max_examples=12, deadline=None)
    def test_addition_is_correct_for_random_operands(self, toy_context, a, b):
        codec = RadixIntegerCodec(toy_context, digit_bits=1, num_digits=4)
        result = codec.add(codec.encrypt(a), codec.encrypt(b))
        assert codec.decrypt(result) == a + b
