"""Tests for the TFHE parameter sets."""

from __future__ import annotations

import dataclasses

import pytest

from repro.params import (
    DEEP_NN_PARAMETER_SETS,
    PAPER_PARAMETER_SETS,
    PARAM_SET_I,
    SMALL_PARAMETERS,
    TOY_PARAMETERS,
    get_parameters,
)


class TestPaperParameterSets:
    def test_all_four_sets_present(self):
        assert sorted(PAPER_PARAMETER_SETS) == ["I", "II", "III", "IV"]

    @pytest.mark.parametrize(
        "name, n, N, k, lb",
        [("I", 500, 1024, 1, 2), ("II", 630, 1024, 1, 3), ("III", 592, 2048, 1, 3), ("IV", 991, 16384, 1, 2)],
    )
    def test_table_iv_values(self, name, n, N, k, lb):
        params = PAPER_PARAMETER_SETS[name]
        assert (params.n, params.N, params.k, params.lb) == (n, N, k, lb)

    def test_security_levels(self):
        assert PAPER_PARAMETER_SETS["I"].security_bits == 110
        for name in ("II", "III", "IV"):
            assert PAPER_PARAMETER_SETS[name].security_bits == 128

    def test_deep_nn_sets_cover_the_three_degrees(self):
        assert sorted(DEEP_NN_PARAMETER_SETS) == [1024, 2048, 4096]
        for degree, params in DEEP_NN_PARAMETER_SETS.items():
            assert params.N == degree


class TestDerivedQuantities:
    def test_modulus_is_2_pow_32(self):
        assert PARAM_SET_I.q == 2 ** 32

    def test_delta_reserves_padding_bit(self):
        params = PARAM_SET_I
        assert params.delta * params.message_modulus * 2 == params.q

    def test_bootstrapping_key_is_tens_of_mb(self):
        # Table I: bootstrapping keys are 10s-100s MB.
        size_mb = PARAM_SET_I.bootstrapping_key_bytes / 2 ** 20
        assert 10 < size_mb < 500

    def test_fourier_bsk_no_larger_than_time_domain(self):
        # Folded Fourier storage (N/2 complex points of 8 bytes) costs the
        # same as N 32-bit coefficients; it must never be larger.
        assert (
            PARAM_SET_I.bootstrapping_key_fourier_bytes
            <= PARAM_SET_I.bootstrapping_key_bytes
        )

    def test_ggsw_size_consistency(self):
        params = SMALL_PARAMETERS
        expected = (params.k + 1) * params.lb * (params.k + 1) * params.N * 4
        assert params.ggsw_ciphertext_bytes == expected


class TestValidation:
    def test_non_power_of_two_degree_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TOY_PARAMETERS, N=100)

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TOY_PARAMETERS, n=0)
        with pytest.raises(ValueError):
            dataclasses.replace(TOY_PARAMETERS, lb=0)

    def test_message_modulus_must_fit_polynomial(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TOY_PARAMETERS, message_bits=9)

    def test_get_parameters_lookup(self):
        assert get_parameters("I") is PARAM_SET_I
        assert get_parameters("TOY") is TOY_PARAMETERS
        assert get_parameters("NN-2048").N == 2048

    def test_get_parameters_unknown_name(self):
        with pytest.raises(KeyError):
            get_parameters("does-not-exist")

    def test_parameters_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PARAM_SET_I.n = 1  # type: ignore[misc]
