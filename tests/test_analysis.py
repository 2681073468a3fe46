"""Tests for the analysis layer — every table/figure reproduction."""

from __future__ import annotations

import pytest

from repro.analysis.breakdown import cpu_workload_breakdown
from repro.analysis.deep_nn_benchmark import deep_nn_benchmark
from repro.analysis.folding_ablation import folding_ablation
from repro.analysis.fragmentation import gpu_fragmentation_study
from repro.analysis.tables import (
    area_power_table,
    pbs_comparison_table,
    render_area_power_table,
)
from repro.analysis.tradeoffs import tvlp_clp_tradeoff
from repro.arch.accelerator import StrixAccelerator
from repro.baselines.gpu_model import NuFheGpuModel
from repro.params import PARAM_SET_I, PARAM_SET_II
from repro.sim.fragments import blind_rotation_fragments


class TestFig1Breakdown:
    def test_shares_match_paper(self):
        report = cpu_workload_breakdown(PARAM_SET_I)
        assert report.gate_shares["pbs"] == pytest.approx(0.65, abs=0.10)
        assert report.gate_shares["keyswitch"] == pytest.approx(0.30, abs=0.10)
        assert report.pbs_shares["blind_rotation"] == pytest.approx(0.98, abs=0.02)
        shares = report.blind_rotation_shares
        assert shares["fft"] == max(shares.values())

    def test_render_mentions_components(self):
        text = cpu_workload_breakdown(PARAM_SET_I).render()
        for keyword in ("pbs", "keyswitch", "blind_rotation", "fft"):
            assert keyword in text

    def test_other_parameter_sets_keep_the_shape(self):
        report = cpu_workload_breakdown(PARAM_SET_II)
        assert report.gate_shares["pbs"] > report.gate_shares["keyswitch"]
        assert report.pbs_shares["blind_rotation"] > 0.9


class TestFig2Fragmentation:
    def test_device_level_staircase(self):
        study = gpu_fragmentation_study(max_ciphertexts=288, step=72)
        times = {point.ciphertexts: point.normalized_time for point in study.device_level}
        assert times[72] == pytest.approx(1.0)
        assert times[144] == pytest.approx(2.0)
        assert times[216] == pytest.approx(3.0)
        assert times[288] == pytest.approx(4.0)

    def test_core_level_on_gpu_does_not_help(self):
        study = gpu_fragmentation_study(max_lwes_per_core=3)
        normalized = [point.normalized_time for point in study.core_level]
        assert normalized == pytest.approx([1.0, 2.0, 3.0])

    def test_render_contains_both_curves(self):
        text = gpu_fragmentation_study().render()
        assert "Device-level" in text and "Core-level" in text

    def test_strix_batching_removes_fragments(self):
        accelerator = StrixAccelerator()
        strix_batch = accelerator.epoch_capacity(PARAM_SET_I)
        gpu_sms = NuFheGpuModel().sms
        for count in (288, 784):
            assert blind_rotation_fragments(count, strix_batch) <= blind_rotation_fragments(
                count, gpu_sms
            )
        assert blind_rotation_fragments(288, strix_batch) == 0
        assert blind_rotation_fragments(288, gpu_sms) == 3


class TestTable3AreaPower:
    def test_totals(self):
        cost = area_power_table()
        assert cost.total_area_mm2 == pytest.approx(141.37, rel=0.03)
        assert cost.total_power_w == pytest.approx(77.14, rel=0.05)
        assert cost.core_area_mm2 == pytest.approx(9.38, rel=0.03)
        scratchpad, phy = cost.component("Global scratchpad"), cost.component("HBM2 PHY")
        assert scratchpad.area_mm2 > phy.area_mm2

    def test_render(self):
        text = render_area_power_table(area_power_table())
        assert "Global scratchpad" in text and "Total" in text


class TestTable5Comparison:
    @pytest.fixture(scope="class")
    def table(self):
        return pbs_comparison_table()

    def test_contains_all_platforms(self, table):
        platforms = {row.platform for row in table.rows}
        assert platforms >= {"Concrete", "NuFHE", "YKP", "XHEC", "Matcha", "Strix"}

    def test_strix_speedups_match_paper_headlines(self, table):
        assert table.speedup_over("Concrete", "I") == pytest.approx(1067, rel=0.15)
        assert table.speedup_over("NuFHE", "I") == pytest.approx(37, rel=0.15)
        assert table.speedup_over("Matcha", "I") == pytest.approx(7.4, rel=0.10)

    def test_strix_rows_carry_the_headline_numbers(self, table):
        assert table.strix_row("I").latency_ms < 0.25
        assert table.strix_row("I").throughput_pbs_per_s > 70000
        assert table.strix_row("IV").throughput_pbs_per_s > 2000

    def test_strix_fastest_on_every_set(self, table):
        for name in ("I", "II", "III", "IV"):
            strix = table.strix_row(name)
            rivals = [
                row
                for row in table.rows
                if row.parameter_set == name and row.platform != "Strix"
            ]
            assert all(strix.throughput_pbs_per_s > row.throughput_pbs_per_s for row in rivals)

    def test_render(self, table):
        text = table.render()
        assert "Strix" in text and "Matcha" in text and "throughput" in text

    def test_missing_row_raises(self, table):
        with pytest.raises(KeyError):
            table.speedup_over("Concrete", "V")


class TestTable6Folding:
    @pytest.fixture(scope="class")
    def ablation(self):
        return folding_ablation()

    def test_improvement_factors_match_paper(self, ablation):
        assert ablation.throughput_improvement == pytest.approx(1.99, rel=0.05)
        assert ablation.fft_area_improvement == pytest.approx(1.73, rel=0.05)
        assert ablation.core_area_improvement == pytest.approx(1.48, rel=0.10)
        assert 1.5 <= ablation.latency_improvement <= 2.1

    def test_folded_design_strictly_better(self, ablation):
        assert ablation.latency_ms_folded < ablation.latency_ms_unfolded
        assert ablation.throughput_folded > ablation.throughput_unfolded
        assert ablation.fft_area_folded_mm2 < ablation.fft_area_unfolded_mm2

    def test_render(self, ablation):
        assert "FFT" in ablation.render()


class TestTable7Tradeoff:
    @pytest.fixture(scope="class")
    def study(self):
        return tvlp_clp_tradeoff()

    def test_five_operating_points(self, study):
        assert [(p.tvlp, p.clp) for p in study.points] == [
            (16, 2), (8, 4), (4, 8), (2, 16), (1, 32)
        ]

    def test_sweet_spot_is_paper_design_point(self, study):
        spot = study.sweet_spot()
        assert (spot.tvlp, spot.clp) == (8, 4)

    def test_bandwidth_monotone_in_clp(self, study):
        bandwidths = [point.required_bandwidth_gbps for point in study.points]
        assert bandwidths == sorted(bandwidths)

    def test_high_clp_becomes_memory_bound_and_loses_throughput(self, study):
        by_clp = {point.clp: point for point in study.points}
        assert not by_clp[2].memory_bound
        assert not by_clp[4].memory_bound
        assert by_clp[16].memory_bound and by_clp[32].memory_bound
        assert by_clp[32].required_bandwidth_gbps > 1000
        assert by_clp[32].throughput_pbs_per_s < by_clp[4].throughput_pbs_per_s / 2

    def test_low_clp_has_higher_latency(self, study):
        by_clp = {point.clp: point for point in study.points}
        assert by_clp[2].latency_ms > by_clp[4].latency_ms

    def test_render(self, study):
        text = study.render()
        assert "Sweet spot" in text and "TvLP=8" in text


class TestFig7DeepNN:
    @pytest.fixture(scope="class")
    def deepnn(self):
        return deep_nn_benchmark()  # the full sweep: three models x three degrees

    def test_strix_always_fastest(self, deepnn):
        for result in deepnn.results:
            assert result.strix_time_ms < result.gpu_time_ms < result.cpu_time_ms

    def test_speedups_in_paper_band(self, deepnn):
        cpu_low, cpu_high = deepnn.speedup_range_vs_cpu()
        gpu_low, gpu_high = deepnn.speedup_range_vs_gpu()
        assert 20 <= cpu_low and cpu_high <= 80
        assert 5 <= gpu_low and gpu_high <= 25

    def test_time_grows_with_polynomial_degree(self, deepnn):
        nn20 = {r.polynomial_degree: r for r in deepnn.results if r.model == "NN-20"}
        assert nn20[1024].strix_time_ms < nn20[2048].strix_time_ms < nn20[4096].strix_time_ms
        # ... and so does the advantage over the CPU.
        assert nn20[4096].speedup_vs_cpu >= nn20[1024].speedup_vs_cpu

    def test_render(self, deepnn):
        text = deepnn.render()
        assert "NN-20" in text and "Strix" in text
