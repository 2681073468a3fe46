"""Tests for the Strix configuration and the pipelined FFT unit model."""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch.config import STRIX_DEFAULT, STRIX_UNFOLDED, StrixConfig
from repro.arch.fft_unit import PipelinedFFTUnit


class TestStrixConfig:
    def test_default_matches_paper_design_point(self):
        assert STRIX_DEFAULT.tvlp == 8
        assert STRIX_DEFAULT.clp == 4
        assert STRIX_DEFAULT.plp == 2
        assert STRIX_DEFAULT.colp == 2
        assert STRIX_DEFAULT.clock_ghz == pytest.approx(1.2)
        assert STRIX_DEFAULT.hbm_bandwidth_gbps == pytest.approx(300.0)
        assert STRIX_DEFAULT.global_scratchpad_mb == pytest.approx(21.0)
        assert STRIX_DEFAULT.local_scratchpad_mb == pytest.approx(0.625)

    def test_effective_lanes_doubled_by_folding(self):
        assert STRIX_DEFAULT.effective_lanes == 8
        assert STRIX_UNFOLDED.effective_lanes == 4

    def test_fft_points_halved_by_folding(self):
        assert PipelinedFFTUnit.from_config(STRIX_DEFAULT).points == 8192
        assert PipelinedFFTUnit.from_config(STRIX_UNFOLDED).points == 16384

    def test_cycle_conversions(self):
        assert STRIX_DEFAULT.cycles_to_seconds(1.2e9) == pytest.approx(1.0)
        assert STRIX_DEFAULT.cycles_to_ms(1.2e6) == pytest.approx(1.0)
        assert STRIX_DEFAULT.cycle_time_ns == pytest.approx(1 / 1.2)

    def test_with_parallelism_returns_new_config(self):
        changed = STRIX_DEFAULT.with_parallelism(tvlp=2, clp=16)
        assert (changed.tvlp, changed.clp) == (2, 16)
        assert (STRIX_DEFAULT.tvlp, STRIX_DEFAULT.clp) == (8, 4)

    def test_without_folding(self):
        assert STRIX_DEFAULT.without_folding().fft_folding is False

    def test_validation(self):
        with pytest.raises(ValueError):
            StrixConfig(tvlp=0)
        with pytest.raises(ValueError):
            StrixConfig(clock_ghz=0)
        with pytest.raises(ValueError):
            StrixConfig(bsk_channels=10, ksk_channels=10, ciphertext_channels=10)

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            STRIX_DEFAULT.tvlp = 4  # type: ignore[misc]


class TestPipelinedFFTUnit:
    def test_folded_unit_has_half_points(self):
        unit = PipelinedFFTUnit(16384, clp=4, folding=True)
        assert unit.points == 8192
        assert unit.num_stages == 13

    def test_unfolded_unit_keeps_full_points(self):
        unit = PipelinedFFTUnit(16384, clp=4, folding=False)
        assert unit.points == 16384
        assert unit.num_stages == 14

    def test_butterflies_per_stage_is_half_clp(self):
        unit = PipelinedFFTUnit(1024, clp=4)
        assert unit.butterflies_per_stage == 2

    def test_initiation_interval_matches_paper_formula(self):
        # Paper: a new N-point polynomial every N/CLP cycles (per physical
        # size); with folding an N=1024 polynomial uses 512 points.
        unit = PipelinedFFTUnit(16384, clp=4, folding=True)
        assert unit.initiation_interval(1024) == 128
        assert unit.initiation_interval(16384) == 2048

    def test_latency_equals_initiation_interval(self):
        unit = PipelinedFFTUnit(16384, clp=4, folding=True)
        assert unit.latency(1024) == unit.initiation_interval(1024)

    def test_degree_exceeding_maximum_rejected(self):
        unit = PipelinedFFTUnit(1024, clp=4)
        with pytest.raises(ValueError):
            unit.initiation_interval(2048)

    def test_stage_shuffle_delays_shrink(self):
        unit = PipelinedFFTUnit(1024, clp=4)
        delays = [stage.shuffle_delay for stage in unit.stages()]
        assert delays[-1] == 0
        assert all(a >= b for a, b in zip(delays[:-2], delays[1:-1]))

    def test_large_delays_use_sram(self):
        unit = PipelinedFFTUnit(16384, clp=4)
        stages = unit.stages()
        assert stages[0].uses_sram_delay is True
        assert stages[-2].uses_sram_delay is False

    def test_area_matches_table_vi(self):
        folded = PipelinedFFTUnit(16384, clp=4, folding=True)
        unfolded = PipelinedFFTUnit(16384, clp=4, folding=False)
        assert folded.area_mm2 == pytest.approx(1.81, rel=0.05)
        assert unfolded.area_mm2 == pytest.approx(3.13, rel=0.05)
        assert unfolded.area_mm2 / folded.area_mm2 == pytest.approx(1.73, rel=0.05)

    def test_power_scales_with_area(self):
        small = PipelinedFFTUnit(1024, clp=4)
        large = PipelinedFFTUnit(16384, clp=4)
        assert large.power_w > small.power_w

    def test_from_config(self):
        unit = PipelinedFFTUnit.from_config(STRIX_DEFAULT)
        assert unit.points == STRIX_DEFAULT.max_fft_points // 2
        assert unit.clp == STRIX_DEFAULT.clp

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PipelinedFFTUnit(100, clp=4)
        with pytest.raises(ValueError):
            PipelinedFFTUnit(1024, clp=3)
        with pytest.raises(ValueError):
            PipelinedFFTUnit(4, clp=16)
