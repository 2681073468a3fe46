"""Tests for the CPU / GPU baseline models and published reference points."""

from __future__ import annotations

import pytest

from repro.apps.workloads import pbs_batch_graph
from repro.baselines.cpu_model import ConcreteCpuModel
from repro.baselines.gpu_model import NuFheGpuModel
from repro.baselines.reference_platforms import (
    PUBLISHED_PBS_RESULTS,
    published_results_for,
)
from repro.params import PAPER_PARAMETER_SETS, PARAM_SET_I, PARAM_SET_II, PARAM_SET_III


class TestCpuModel:
    @pytest.fixture(scope="class")
    def cpu(self):
        return ConcreteCpuModel(threads=1)

    def test_calibrated_to_concrete_set_i(self, cpu):
        assert cpu.pbs_latency_ms(PARAM_SET_I) == pytest.approx(14.0, rel=1e-6)

    def test_latency_increases_with_parameter_size(self, cpu):
        latencies = [cpu.pbs_latency_ms(PAPER_PARAMETER_SETS[name]) for name in ("I", "II", "III", "IV")]
        assert latencies == sorted(latencies)

    def test_published_order_of_magnitude(self, cpu):
        """Modelled CPU latencies stay within ~2x of the published Table V rows."""
        published = {"I": 14.0, "II": 19.0, "III": 38.0, "IV": 969.0}
        for name, expected in published.items():
            modelled = cpu.pbs_latency_ms(PAPER_PARAMETER_SETS[name])
            assert expected / 2 <= modelled <= expected * 2, name

    def test_throughput_is_inverse_latency_times_threads(self):
        single = ConcreteCpuModel(threads=1)
        multi = ConcreteCpuModel(threads=16)
        assert multi.pbs_throughput(PARAM_SET_I) == pytest.approx(
            16 * single.pbs_throughput(PARAM_SET_I)
        )

    def test_breakdown_matches_fig1_shape(self, cpu):
        breakdown = cpu.workload_breakdown(PARAM_SET_I)
        assert breakdown.gate_shares["pbs"] == pytest.approx(0.65, abs=0.10)
        assert breakdown.gate_shares["keyswitch"] == pytest.approx(0.30, abs=0.10)
        assert breakdown.gate_shares["linear"] == pytest.approx(0.05, abs=0.03)
        assert breakdown.pbs_shares["blind_rotation"] > 0.95
        assert max(breakdown.gate_shares, key=breakdown.gate_shares.get) == "pbs"

    def test_breakdown_shares_sum_to_one(self, cpu):
        breakdown = cpu.workload_breakdown(PARAM_SET_II)
        for shares in (breakdown.gate_shares, breakdown.pbs_shares, breakdown.blind_rotation_shares):
            assert sum(shares.values()) == pytest.approx(1.0)

    def test_fft_dominates_blind_rotation_iteration(self, cpu):
        breakdown = cpu.workload_breakdown(PARAM_SET_I)
        shares = breakdown.blind_rotation_shares
        assert shares["fft"] == max(shares.values())
        # IFFT processes fewer polynomials than the forward FFT (lb:1 ratio).
        assert shares["accumulate_ifft"] < shares["fft"]

    def test_keyswitch_latency_smaller_than_pbs(self, cpu):
        assert cpu.keyswitch_latency_ms(PARAM_SET_I) < cpu.pbs_latency_ms(PARAM_SET_I)

    def test_execute_graph_scales_with_threads(self):
        graph = pbs_batch_graph(PARAM_SET_I, 64)
        single = ConcreteCpuModel(threads=1).execute_graph(graph)
        multi = ConcreteCpuModel(threads=8).execute_graph(graph)
        assert single == pytest.approx(8 * multi, rel=0.01)

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            ConcreteCpuModel(threads=0)


class TestGpuModel:
    @pytest.fixture(scope="class")
    def gpu(self):
        return NuFheGpuModel()

    def test_calibrated_to_nufhe_set_i(self, gpu):
        assert gpu.pbs_latency_ms(PARAM_SET_I) == pytest.approx(37.0, rel=0.05)
        assert gpu.pbs_throughput(PARAM_SET_I) == pytest.approx(2000, rel=0.05)

    def test_larger_parameters_slower(self, gpu):
        assert gpu.batch_time_ms(PARAM_SET_III) > gpu.batch_time_ms(PARAM_SET_II) > 0

    def test_device_level_profile_is_a_staircase(self, gpu):
        profile = gpu.device_level_profile([36, 72, 73, 144, 145, 216, 217, 288])
        by_count = {point.ciphertexts: point for point in profile}
        assert by_count[36].normalized_time == pytest.approx(by_count[72].normalized_time)
        assert by_count[73].normalized_time == pytest.approx(2 * by_count[72].normalized_time)
        assert by_count[145].normalized_time == pytest.approx(3 * by_count[72].normalized_time)
        assert by_count[217].normalized_time == pytest.approx(4 * by_count[72].normalized_time)
        assert by_count[288].fragments == 3

    def test_core_level_profile_grows_linearly(self, gpu):
        profile = gpu.core_level_profile([1, 2, 3])
        times = [point.execution_time_ms for point in profile]
        assert times[1] == pytest.approx(2 * times[0])
        assert times[2] == pytest.approx(3 * times[0])

    def test_execute_graph_fragmentation_penalty(self, gpu):
        fits = gpu.execute_graph(pbs_batch_graph(PARAM_SET_I, 72))
        overflows = gpu.execute_graph(pbs_batch_graph(PARAM_SET_I, 73))
        assert overflows == pytest.approx(2 * fits, rel=0.01)

    def test_custom_sm_count(self):
        small_gpu = NuFheGpuModel(streaming_multiprocessors=8)
        assert small_gpu.sms == 8
        assert small_gpu.pbs_throughput(PARAM_SET_I) < NuFheGpuModel().pbs_throughput(PARAM_SET_I)


class TestPublishedResults:
    def test_every_row_has_positive_throughput(self):
        for row in PUBLISHED_PBS_RESULTS:
            assert row.throughput_pbs_per_s > 0

    def test_filtering(self):
        strix_rows = published_results_for("Strix")
        assert {row.parameter_set for row in strix_rows} == {"I", "II", "III", "IV"}
        set1 = published_results_for(parameter_set="I")
        assert {row.platform for row in set1} >= {"Concrete", "NuFHE", "Matcha", "Strix"}

    def test_published_strix_lookup(self):
        (row,) = published_results_for("Strix", "I")
        assert row.throughput_pbs_per_s == 74696
        assert published_results_for("Strix", "V") == []

    def test_xhec_rows_have_no_latency(self):
        for row in published_results_for("XHEC"):
            assert row.latency_ms is None

    def test_strix_dominates_all_published_platforms(self):
        strix = {row.parameter_set: row for row in published_results_for("Strix")}
        for row in PUBLISHED_PBS_RESULTS:
            if row.platform == "Strix" or row.parameter_set not in strix:
                continue
            assert strix[row.parameter_set].throughput_pbs_per_s > row.throughput_pbs_per_s
