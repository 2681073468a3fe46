"""Tests for the functional-unit timing models and the HSC pipeline."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch.accelerator import StrixAccelerator
from repro.arch.config import STRIX_DEFAULT, STRIX_UNFOLDED, StrixConfig
from repro.arch.fft_unit import PipelinedFFTUnit
from repro.arch.functional_units import build_keyswitch_cluster, build_pbs_cluster
from repro.arch.hsc import HomomorphicStreamingCore
from repro.params import (
    DEEP_NN_PARAMETER_SETS,
    PAPER_PARAMETER_SETS,
    PARAM_SET_I,
    PARAM_SET_IV,
    SMALL_PARAMETERS,
    TOY_PARAMETERS,
)
from repro.sim.trace import build_occupancy_trace

PIPELINE = ("rotator", "decomposer", "fft", "vma", "ifft", "accumulator")


class TestPbsCluster:
    def test_cluster_has_six_stages_in_order(self):
        assert tuple(build_pbs_cluster(STRIX_DEFAULT)) == PIPELINE

    def test_rotator_busy_half_of_fft(self):
        """The rotator handles (k+1) polys vs (k+1)*lb for the wide units, so
        for lb=2 it is busy half the time — the ~50 % utilization of Fig. 8."""
        cluster = build_pbs_cluster(STRIX_DEFAULT)
        rotator = cluster["rotator"].busy_cycles_per_lwe(PARAM_SET_I)
        fft = cluster["fft"].busy_cycles_per_lwe(PARAM_SET_I)
        assert rotator * 2 == fft

    def test_wide_units_balanced_for_set_i(self):
        """Decomposer, FFT, VMA, IFFT and accumulator all take the same time
        per LWE per iteration — the paper's balanced six-stage pipeline."""
        cluster = build_pbs_cluster(STRIX_DEFAULT)
        busy = {name: unit.busy_cycles_per_lwe(PARAM_SET_I) for name, unit in cluster.items()}
        wide = [busy[name] for name in ("decomposer", "fft", "vma", "ifft", "accumulator")]
        assert len(set(wide)) == 1

    @pytest.mark.parametrize("name", PAPER_PARAMETER_SETS)
    def test_busy_cycles_positive_for_all_sets(self, name):
        params = PAPER_PARAMETER_SETS[name]
        cluster = build_pbs_cluster(STRIX_DEFAULT)
        for unit in cluster.values():
            assert unit.busy_cycles_per_lwe(params) >= 1

    def test_unfolded_units_are_slower(self):
        folded = build_pbs_cluster(STRIX_DEFAULT)
        unfolded = build_pbs_cluster(STRIX_UNFOLDED)
        for name in PIPELINE:
            assert (
                unfolded[name].busy_cycles_per_lwe(PARAM_SET_I)
                >= folded[name].busy_cycles_per_lwe(PARAM_SET_I)
            )

    def test_unit_areas_match_table_iii(self):
        cluster = build_pbs_cluster(STRIX_DEFAULT)
        assert cluster["rotator"].area_mm2 == pytest.approx(0.02, abs=0.01)
        assert cluster["decomposer"].area_mm2 == pytest.approx(0.28, rel=0.05)
        assert cluster["vma"].area_mm2 == pytest.approx(0.63, rel=0.05)
        assert cluster["accumulator"].area_mm2 == pytest.approx(0.32, rel=0.05)
        ifftu = cluster["fft"].area_mm2 + cluster["ifft"].area_mm2
        assert ifftu == pytest.approx(7.23, rel=0.05)

    def test_instance_counts_follow_parallelism(self):
        cluster = build_pbs_cluster(STRIX_DEFAULT)
        assert cluster["fft"].lanes == STRIX_DEFAULT.plp


class TestKeyswitchCluster:
    def test_mac_count_matches_algorithm_2(self):
        cluster = build_keyswitch_cluster()
        params = PARAM_SET_I
        expected = params.k * params.N * params.lk * (params.n + 1)
        assert cluster.items(params) == expected

    def test_busy_cycles_divide_by_lane_product(self):
        cluster = build_keyswitch_cluster()
        macs = cluster.items(PARAM_SET_I)
        assert cluster.busy_cycles_per_lwe(PARAM_SET_I) == -(-macs // 64)

    def test_the_lane_count_is_no_chip_knob(self):
        """Table III prices no keyswitch lanes, so no chip may choose another count."""
        for knob in ("ks_clp", "ks_colp"):
            with pytest.raises(TypeError):
                StrixConfig(**{knob: 16})

    def test_keyswitch_hidden_behind_pbs_for_paper_sets(self):
        strix = StrixAccelerator(STRIX_DEFAULT)
        for params in PAPER_PARAMETER_SETS.values():
            plan = strix.plan_epoch(params, strix.epoch_capacity(params))
            assert plan.keyswitch_hidden, params.name


class TestHscPipeline:
    @pytest.fixture(scope="class")
    def core(self):
        return HomomorphicStreamingCore(STRIX_DEFAULT)

    def test_initiation_interval_set_i(self, core):
        """ceil((k+1)*lb / PLP) * N / (2*CLP) = 2 * 128 = 256 cycles."""
        timing = core.pipeline_timing(PARAM_SET_I)
        assert timing.initiation_interval == 256

    def test_initiation_interval_set_iv(self, core):
        timing = core.pipeline_timing(PARAM_SET_IV)
        assert timing.initiation_interval == 4096

    def test_iteration_latency_exceeds_initiation_interval(self, core):
        timing = core.pipeline_timing(PARAM_SET_I)
        assert timing.iteration_latency > timing.initiation_interval

    def test_utilization_near_one_for_wide_units(self, core):
        utilization = core.pipeline_timing(PARAM_SET_I).utilization()
        for name in ("decomposer", "fft", "vma", "ifft", "accumulator"):
            assert utilization[name] == pytest.approx(1.0)
        assert utilization["rotator"] == pytest.approx(0.5)

    def test_bottleneck_is_a_wide_unit(self, core):
        timing = core.pipeline_timing(PARAM_SET_I)
        assert timing.bottleneck_unit != "rotator"

    def test_core_batch_size_set_by_scratchpad(self, core):
        # 0.625 MB * 80 % / (2 * 1024 * 4 B) = 64 accumulators for set I.
        assert core.core_batch_size(PARAM_SET_I) == 64
        assert core.core_batch_size(PARAM_SET_IV) == 4

    def test_streaming_beats_single_latency(self, core):
        timing = core.pipeline_timing(PARAM_SET_I)
        batch = core.core_batch_size(PARAM_SET_I)
        streamed = StrixAccelerator().core_iteration_cycles(PARAM_SET_I, batch)
        assert streamed < batch * timing.iteration_latency

    def test_occupancy_trace_structure(self, core):
        intervals = core.occupancy_trace(PARAM_SET_I, lwes_per_core=3, iterations=2)
        units = {interval.unit for interval in intervals}
        assert units == set(PIPELINE)
        assert len(intervals) == 6 * 3 * 2
        for interval in intervals:
            assert interval.end_cycle > interval.start_cycle
            assert 0 <= interval.lwe_index < 3
            assert 0 <= interval.iteration < 2

    def test_occupancy_trace_units_never_double_booked(self, core):
        intervals = core.occupancy_trace(PARAM_SET_I, lwes_per_core=3, iterations=2)
        by_unit: dict[str, list] = {}
        for interval in intervals:
            by_unit.setdefault(interval.unit, []).append(interval)
        for unit_intervals in by_unit.values():
            unit_intervals.sort(key=lambda entry: entry.start_cycle)
            for earlier, later in zip(unit_intervals, unit_intervals[1:]):
                assert later.start_cycle >= earlier.end_cycle

    def test_trace_utilization_high_for_fft(self, core):
        accelerator = StrixAccelerator(core.config)
        utilization = build_occupancy_trace(accelerator, PARAM_SET_I, 8, 3).utilization
        assert utilization["fft"] > 0.8
        assert utilization["rotator"] < utilization["fft"]

    def test_occupancy_trace_rejects_bad_arguments(self, core):
        with pytest.raises(ValueError):
            core.occupancy_trace(PARAM_SET_I, 0, 1)
        with pytest.raises(ValueError):
            core.occupancy_trace(PARAM_SET_I, 1, 0)


# -- Section V's per-unit formulas, stated once more -------------------------------

SETS = [*PAPER_PARAMETER_SETS.values(), *DEEP_NN_PARAMETER_SETS.values()]
SETS += [TOY_PARAMETERS, SMALL_PARAMETERS]
TABLE_VII = [STRIX_DEFAULT.with_parallelism(tvlp=32 // clp, clp=clp) for clp in (2, 4, 8, 16, 32)]
CHIPS = [STRIX_DEFAULT, STRIX_UNFOLDED, *TABLE_VII, replace(STRIX_DEFAULT, plp=4, colp=1)]


def section_v(config: StrixConfig, params) -> dict[str, tuple[int, float, float]]:
    """(busy cycles per LWE per iteration, area, power) of every unit of one HSC."""
    k1, lb, n_coeffs, folded = params.k + 1, params.lb, params.N, config.fft_folding
    lanes, points = (2 * config.clp, n_coeffs // 2) if folded else (config.clp, n_coeffs)
    fft = PipelinedFFTUnit(config.max_fft_points, config.clp, folded)
    vma = config.clp * config.plp

    def cycles(items, width):
        return max(-(-items // width), 1)

    def column(items, area, power):
        scale = [a * lanes / 8.0 * config.colp / 2.0 for a in (area, power)]
        return (cycles(items, lanes * config.colp), *scale)

    transform = -(-k1 * lb // config.plp) * max(points // config.clp, 1)
    transform = (transform, fft.area_mm2 * config.plp, fft.power_w * config.plp)
    keyswitch = params.k * n_coeffs * params.lk * (params.n + 1)
    return {
        "rotator": column(k1 * n_coeffs, 0.02, 0.01),
        "decomposer": column(k1 * lb * n_coeffs, 0.28, 0.02),
        "fft": transform,
        "vma": (cycles(k1 * lb * points, vma), 0.63 * vma / 8.0, 0.10 * vma / 8.0),
        "ifft": transform,
        "accumulator": column(k1 * lb * n_coeffs, 0.32, 0.13),
        "keyswitch": (cycles(keyswitch, 8 * 8), 0.0, 0.0),
    }


def assert_table_is_section_v(config: StrixConfig) -> None:
    core = HomomorphicStreamingCore(config)
    units = [*core.pbs_cluster.values(), core.keyswitch_cluster]
    for params in SETS:
        table = {u.name: (u.busy_cycles_per_lwe(params), u.area_mm2, u.power_w) for u in units}
        assert table == section_v(config, params), params.name


@pytest.mark.parametrize("config", CHIPS)
def test_the_unit_table_is_section_v(config):
    assert_table_is_section_v(config)


@given(st.sampled_from([1, 2, 4, 8, 16]), *[st.integers(1, 8)] * 2, st.booleans())
def test_the_unit_table_is_section_v_on_any_chip(clp, plp, colp, folding):
    assert_table_is_section_v(StrixConfig(clp=clp, plp=plp, colp=colp, fft_folding=folding))
