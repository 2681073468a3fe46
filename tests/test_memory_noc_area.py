"""Tests for the memory system, NoC and area/power models."""

from __future__ import annotations

import pytest

from repro.arch.area_power import AreaPowerModel
from repro.arch.config import STRIX_DEFAULT, STRIX_UNFOLDED, StrixConfig
from repro.arch.hsc import HomomorphicStreamingCore
from repro.arch.memory import (
    GlobalScratchpad,
    HBMModel,
    LocalScratchpad,
    FOURIER_POINT_BYTES,
)
from repro.arch.noc import MulticastNetwork, NocCost
from repro.params import PAPER_PARAMETER_SETS, PARAM_SET_I, PARAM_SET_IV


class TestLocalScratchpad:
    def test_capacity_split(self):
        scratchpad = LocalScratchpad(STRIX_DEFAULT)
        assert scratchpad.capacity_bytes == int(0.625 * 2**20)
        assert (
            scratchpad.pbs_capacity_bytes + scratchpad.keyswitch_capacity_bytes
            == scratchpad.capacity_bytes
        )

    def test_core_batch_decreases_with_degree(self):
        scratchpad = LocalScratchpad(STRIX_DEFAULT)
        batches = [
            scratchpad.core_batch_size(PAPER_PARAMETER_SETS[name]) for name in ("I", "III", "IV")
        ]
        assert batches[0] > batches[1] > batches[2] >= 1

    def test_accumulator_bytes(self):
        scratchpad = LocalScratchpad(STRIX_DEFAULT)
        assert scratchpad.accumulator_bytes(PARAM_SET_I) == 2 * 1024 * 4


class TestGlobalScratchpad:
    def test_bsk_fragment_bytes_set_i(self):
        scratchpad = GlobalScratchpad(STRIX_DEFAULT)
        expected = (1 + 1) * 2 * (1 + 1) * 512 * FOURIER_POINT_BYTES
        assert scratchpad.bootstrapping_key_fragment_bytes(PARAM_SET_I) == expected

    def test_unfolded_fragment_twice_as_large(self):
        folded = GlobalScratchpad(STRIX_DEFAULT)
        unfolded = GlobalScratchpad(STRIX_UNFOLDED)
        assert (
            unfolded.bootstrapping_key_fragment_bytes(PARAM_SET_I)
            == 2 * folded.bootstrapping_key_fragment_bytes(PARAM_SET_I)
        )

    def test_double_buffering_fits_for_all_paper_sets(self):
        scratchpad = GlobalScratchpad(STRIX_DEFAULT)
        for params in PAPER_PARAMETER_SETS.values():
            assert scratchpad.fits_double_buffered(params), params.name

    def test_keyswitching_key_matches_params(self):
        scratchpad = GlobalScratchpad(STRIX_DEFAULT)
        assert (
            scratchpad.keyswitching_key_bytes(PARAM_SET_I)
            == PARAM_SET_I.keyswitching_key_bytes
        )


class TestHbmModel:
    @pytest.fixture(scope="class")
    def hbm(self):
        return HBMModel(STRIX_DEFAULT)

    @pytest.fixture(scope="class")
    def core(self):
        return HomomorphicStreamingCore(STRIX_DEFAULT)

    def test_demand_components_positive(self, hbm, core):
        timing = core.pipeline_timing(PARAM_SET_I)
        demand = hbm.bandwidth_demand(PARAM_SET_I, timing.initiation_interval)
        assert demand.bootstrapping_key > 0
        assert demand.keyswitching_key > 0
        assert demand.ciphertexts > 0
        assert demand.total == pytest.approx(
            demand.bootstrapping_key + demand.keyswitching_key + demand.ciphertexts
        )

    def test_bootstrapping_key_dominates(self, hbm, core):
        """The paper's Fig. 8: HBM traffic is primarily bsk during blind rotation."""
        timing = core.pipeline_timing(PARAM_SET_I)
        demand = hbm.bandwidth_demand(PARAM_SET_I, timing.initiation_interval)
        assert demand.bootstrapping_key > demand.keyswitching_key
        assert demand.bootstrapping_key > demand.ciphertexts

    def test_default_design_point_compute_bound(self, hbm, core):
        for params in PAPER_PARAMETER_SETS.values():
            timing = core.pipeline_timing(params)
            demand = hbm.bandwidth_demand(params, timing.initiation_interval)
            assert not hbm.is_memory_bound(demand), params.name

    def test_shorter_iterations_raise_demand(self, hbm):
        low = hbm.bandwidth_demand(PARAM_SET_IV, 8192)
        high = hbm.bandwidth_demand(PARAM_SET_IV, 1024)
        assert high.bootstrapping_key > low.bootstrapping_key

    def test_compute_scaling_capped_at_one(self, hbm, core):
        timing = core.pipeline_timing(PARAM_SET_I)
        demand = hbm.bandwidth_demand(PARAM_SET_I, timing.initiation_interval)
        assert hbm.compute_scaling(demand) == 1.0

    def test_memory_bound_scaling_below_one(self):
        config = STRIX_DEFAULT.with_parallelism(tvlp=1, clp=32)
        hbm = HBMModel(config)
        core = HomomorphicStreamingCore(config)
        timing = core.pipeline_timing(PARAM_SET_IV)
        demand = hbm.bandwidth_demand(PARAM_SET_IV, timing.initiation_interval)
        assert hbm.is_memory_bound(demand)
        assert hbm.compute_scaling(demand) < 1.0


class TestNoc:
    def test_bsk_bus_matches_paper_width(self):
        noc = MulticastNetwork(STRIX_DEFAULT)
        assert noc.bsk_link.width_bits == 512
        assert noc.ksk_link.width_bits == 256

    def test_bsk_bus_sustains_pbs_with_core_level_batching(self):
        """With the core-level batch streaming through each iteration, the
        512-bit multicast bus delivers the next GGSW fragment in time."""
        noc = MulticastNetwork(STRIX_DEFAULT)
        core = HomomorphicStreamingCore(STRIX_DEFAULT)
        for params in PAPER_PARAMETER_SETS.values():
            timing = core.pipeline_timing(params)
            batch = max(core.core_batch_size(params), 3)
            iteration_cycles = batch * timing.initiation_interval
            assert noc.can_sustain_pbs(params, iteration_cycles), params.name

    def test_noc_cost_matches_table_iii(self):
        cost = NocCost()
        assert cost.area_mm2 == pytest.approx(0.04)
        assert cost.power_w == pytest.approx(0.01)

    def test_link_bandwidth(self):
        noc = MulticastNetwork(STRIX_DEFAULT)
        assert noc.bsk_link.bytes_per_cycle * STRIX_DEFAULT.clock_ghz == pytest.approx(76.8)


class TestAreaPower:
    def test_core_area_matches_table_iii(self):
        model = AreaPowerModel(STRIX_DEFAULT)
        _, area, power = model.core_cost()
        assert area == pytest.approx(9.38, rel=0.03)
        assert power == pytest.approx(6.21, rel=0.05)

    def test_chip_totals_match_table_iii(self):
        cost = AreaPowerModel(STRIX_DEFAULT).chip_cost()
        assert cost.total_area_mm2 == pytest.approx(141.37, rel=0.03)
        assert cost.total_power_w == pytest.approx(77.14, rel=0.05)

    def test_chip_is_much_smaller_than_ckks_accelerators(self):
        """Related-work claim: Strix needs ~26 MB on-chip memory and a die far
        below the ~418 mm^2 of CKKS accelerators."""
        cost = AreaPowerModel(STRIX_DEFAULT).chip_cost()
        assert cost.total_area_mm2 < 200
        onchip_mb = STRIX_DEFAULT.global_scratchpad_mb + 8 * STRIX_DEFAULT.local_scratchpad_mb
        assert onchip_mb == pytest.approx(26.0)

    def test_component_lookup(self):
        cost = AreaPowerModel(STRIX_DEFAULT).chip_cost()
        assert cost.component("Global scratchpad").area_mm2 == pytest.approx(51.4, rel=0.01)
        with pytest.raises(KeyError):
            cost.component("nonexistent")

    def test_table_rows_include_totals(self):
        cost = AreaPowerModel(STRIX_DEFAULT).chip_cost()
        names = [row[0] for row in cost.as_table()]
        assert "1 core" in names and "8 cores" in names and "Total" in names

    def test_unfolded_core_is_larger(self):
        folded = AreaPowerModel(STRIX_DEFAULT).chip_cost()
        unfolded = AreaPowerModel(STRIX_UNFOLDED).chip_cost()
        assert unfolded.core_area_mm2 > folded.core_area_mm2

    def test_fft_unit_area_accessor(self):
        model = AreaPowerModel(STRIX_DEFAULT)
        assert model.fft_unit_area() == pytest.approx(1.81, rel=0.05)

    def test_smaller_scratchpad_smaller_chip(self):
        small = StrixConfig(global_scratchpad_mb=10.0)
        assert (
            AreaPowerModel(small).chip_cost().total_area_mm2
            < AreaPowerModel(STRIX_DEFAULT).chip_cost().total_area_mm2
        )
