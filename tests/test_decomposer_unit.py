"""Tests for the streaming decomposer microarchitecture model (Fig. 6)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.decomposer_unit import DecomposerLaneConfig, StreamingDecomposerLane
from repro.params import PARAM_SET_I, PARAM_SET_IV, TOY_PARAMETERS
from repro.tfhe.decomposition import decompose

Q = TOY_PARAMETERS.q


class TestLaneConfig:
    def test_masks_for_set_i(self):
        cfg = DecomposerLaneConfig(q_bits=32, levels=PARAM_SET_I.lb, log2_base=PARAM_SET_I.log2_base_pbs)
        assert cfg.kept_bits == 20
        assert cfg.dropped_bits == 12
        assert cfg.keep_mask == ((1 << 20) - 1) << 12
        assert cfg.round_bit_mask == 1 << 11
        assert cfg.digit_mask == (1 << 10) - 1
        assert cfg.half_base == 512

    def test_full_width_decomposition_has_no_rounding(self):
        cfg = DecomposerLaneConfig(q_bits=32, levels=4, log2_base=8)
        assert cfg.dropped_bits == 0
        assert cfg.round_bit_mask == 0


class TestStreamingDecomposerLane:
    @pytest.fixture(scope="class")
    def lane(self):
        return StreamingDecomposerLane(TOY_PARAMETERS)

    def test_matches_reference_on_random_coefficients(self, lane, rng):
        coefficients = rng.integers(0, Q, 512)
        assert lane.matches_reference(coefficients)

    def test_matches_reference_on_boundary_values(self, lane):
        cfg = lane.config
        boundary = np.array(
            [
                0,
                1,
                Q - 1,
                Q // 2,
                Q // 2 - 1,
                Q // 2 + 1,
                1 << cfg.dropped_bits,
                (1 << cfg.dropped_bits) - 1,
                cfg.round_bit_mask,
                cfg.round_bit_mask - 1,
                cfg.keep_mask,
            ],
            dtype=np.int64,
        )
        assert lane.matches_reference(boundary)

    def test_digits_within_signed_range(self, lane, rng):
        coefficients = rng.integers(0, Q, 256)
        digits = lane.decompose_polynomial(coefficients)
        base = 1 << lane.config.log2_base
        assert digits.min() >= -(base // 2)
        assert digits.max() <= base // 2

    def test_keyswitch_lane_uses_keyswitch_parameters(self, rng):
        lane = StreamingDecomposerLane(TOY_PARAMETERS, keyswitch=True)
        assert lane.config.levels == TOY_PARAMETERS.lk
        assert lane.config.log2_base == TOY_PARAMETERS.log2_base_ks
        coefficients = rng.integers(0, Q, 128)
        reference = decompose(
            coefficients, TOY_PARAMETERS.lk, TOY_PARAMETERS.log2_base_ks
        )
        np.testing.assert_array_equal(lane.decompose_polynomial(coefficients), reference)

    def test_set_iv_parameters_supported(self, rng):
        lane = StreamingDecomposerLane(PARAM_SET_IV)
        coefficients = rng.integers(0, PARAM_SET_IV.q, 128)
        assert lane.matches_reference(coefficients)

    def test_rejects_decomposition_wider_than_torus(self):
        import dataclasses

        bad = dataclasses.replace(TOY_PARAMETERS, lb=5, log2_base_pbs=8)
        with pytest.raises(ValueError):
            StreamingDecomposerLane(bad)

    @given(st.integers(min_value=0, max_value=Q - 1))
    @settings(max_examples=300, deadline=None)
    def test_mask_shift_add_datapath_matches_reference(self, coefficient):
        """The multiplier-free datapath is bit-exact with the arithmetic
        reference for every coefficient — the claim of Section V-B."""
        lane = StreamingDecomposerLane(TOY_PARAMETERS)
        reference = decompose(
            np.array([coefficient], dtype=np.int64),
            TOY_PARAMETERS.lb,
            TOY_PARAMETERS.log2_base_pbs,
        )[:, 0]
        assert lane.decompose_coefficient(coefficient) == list(reference)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=200, deadline=None)
    def test_set_i_datapath_matches_reference(self, coefficient):
        lane = StreamingDecomposerLane(PARAM_SET_I)
        reference = decompose(
            np.array([coefficient], dtype=np.int64),
            PARAM_SET_I.lb,
            PARAM_SET_I.log2_base_pbs,
        )[:, 0]
        assert lane.decompose_coefficient(coefficient) == list(reference)

