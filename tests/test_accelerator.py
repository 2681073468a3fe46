"""Tests for the top-level Strix accelerator model (Table V behaviour)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.arch.accelerator import StrixAccelerator
from repro.arch.config import STRIX_DEFAULT, STRIX_UNFOLDED
from repro.baselines.reference_platforms import PUBLISHED_PBS_RESULTS
from repro.params import PAPER_PARAMETER_SETS, PARAM_SET_I, PARAM_SET_IV


class TestPbsMicrobenchmark:
    @pytest.mark.parametrize(
        "name, expected_throughput",
        [("I", 74696), ("II", 39600), ("III", 21104), ("IV", 2368)],
    )
    def test_throughput_matches_paper_within_five_percent(self, strix, name, expected_throughput):
        params = PAPER_PARAMETER_SETS[name]
        modelled = strix.pbs_throughput(params)
        assert modelled == pytest.approx(expected_throughput, rel=0.05)

    @pytest.mark.parametrize(
        "name, expected_latency_ms, tolerance",
        [("I", 0.16, 0.15), ("II", 0.23, 0.25), ("III", 0.44, 0.25), ("IV", 3.31, 0.60)],
    )
    def test_latency_matches_paper_shape(self, strix, name, expected_latency_ms, tolerance):
        params = PAPER_PARAMETER_SETS[name]
        assert strix.pbs_latency_ms(params) == pytest.approx(expected_latency_ms, rel=tolerance)

    def test_latency_ordering_across_sets(self, strix):
        latencies = [strix.pbs_latency_ms(PAPER_PARAMETER_SETS[name]) for name in ("I", "II", "III", "IV")]
        assert latencies == sorted(latencies)

    def test_throughput_ordering_across_sets(self, strix):
        throughputs = [strix.pbs_throughput(PAPER_PARAMETER_SETS[name]) for name in ("I", "II", "III", "IV")]
        assert throughputs == sorted(throughputs, reverse=True)

    def test_performance_summary_fields(self, strix):
        performance = strix.pbs_performance(PARAM_SET_I)
        assert performance.parameter_set == "I"
        assert performance.compute_bound is True
        assert performance.device_batch_size == 8
        assert performance.core_batch_size == 64
        assert performance.required_bandwidth_gbps < STRIX_DEFAULT.hbm_bandwidth_gbps

    def test_required_bandwidth_within_hbm_for_default_config(self, strix):
        for params in PAPER_PARAMETER_SETS.values():
            demand = strix.required_bandwidth(params)
            assert demand.total < STRIX_DEFAULT.hbm_bandwidth_gbps, params.name

    def test_unfolded_variant_half_throughput(self):
        folded = StrixAccelerator(STRIX_DEFAULT)
        unfolded = StrixAccelerator(STRIX_UNFOLDED)
        ratio = folded.pbs_throughput(PARAM_SET_I) / unfolded.pbs_throughput(PARAM_SET_I)
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_more_cores_means_more_throughput(self):
        four_cores = StrixAccelerator(STRIX_DEFAULT.with_parallelism(tvlp=4))
        eight_cores = StrixAccelerator(STRIX_DEFAULT)
        assert eight_cores.pbs_throughput(PARAM_SET_I) == pytest.approx(
            2 * four_cores.pbs_throughput(PARAM_SET_I), rel=0.01
        )

    def test_iteration_latency_floor_applies_when_memory_bound(self):
        fast = StrixAccelerator(STRIX_DEFAULT.with_parallelism(tvlp=1, clp=32))
        timing = fast.pipeline_timing(PARAM_SET_IV)
        assert fast.iteration_latency_cycles(PARAM_SET_IV) > timing.iteration_latency


class TestEpochPlanning:
    def test_small_batch_uses_all_cores_round_robin(self, strix):
        plan = strix.plan_epoch(PARAM_SET_I, 12)
        assert plan.lwes == 12
        assert sum(plan.lwes_per_core) == 12
        assert max(plan.lwes_per_core) - min(plan.lwes_per_core) <= 1

    def test_epoch_capacity_clamps_oversized_requests(self, strix):
        capacity = strix.config.tvlp * strix.core.core_batch_size(PARAM_SET_I)
        plan = strix.plan_epoch(PARAM_SET_I, capacity * 3)
        assert plan.lwes == capacity

    def test_keyswitch_hidden_in_full_epoch(self, strix):
        plan = strix.plan_epoch(PARAM_SET_I, 512)
        assert plan.keyswitch_hidden is True
        assert plan.epoch_cycles == plan.blind_rotation_cycles

    def test_plan_rejects_empty_epoch(self, strix):
        with pytest.raises(ValueError):
            strix.plan_epoch(PARAM_SET_I, 0)

    def test_batch_cycles_scale_with_lwes(self, strix):
        one = strix.pbs_batch_cycles(PARAM_SET_I, 1)
        many = strix.pbs_batch_cycles(PARAM_SET_I, 512)
        assert many > one
        # Two-level batching amortization: 512 LWEs cost far less than 512x.
        assert many < 512 * one

    def test_batch_time_of_zero_lwes_is_zero(self, strix):
        assert strix.pbs_batch_cycles(PARAM_SET_I, 0) == 0
        assert strix.pbs_batch_time_ms(PARAM_SET_I, 0) == 0.0

    def test_batch_throughput_consistent_with_microbenchmark(self, strix):
        lwes = 4096
        time_s = strix.pbs_batch_time_ms(PARAM_SET_I, lwes) / 1e3
        achieved = lwes / time_s
        assert achieved == pytest.approx(strix.pbs_throughput(PARAM_SET_I), rel=0.1)


def epoch_by_epoch_cycles(accelerator, params, lwes):
    """The two-pipeline recurrence ``pbs_batch_cycles`` is the closed form of."""
    capacity = accelerator.config.tvlp * accelerator.core.core_batch_size(params)
    blind_rotation_end = keyswitch_end = 0
    for done in range(0, lwes, capacity):
        plan = accelerator.plan_epoch(params, min(lwes - done, capacity))
        blind_rotation_end += plan.blind_rotation_cycles
        keyswitch_end = max(keyswitch_end, blind_rotation_end) + plan.keyswitch_cycles
    return max(blind_rotation_end, keyswitch_end)


def batch_sizes(capacity):
    """1 … 40 × capacity: every multiple of the capacity ± 1, and a stride between."""
    around = {k * capacity + d for k in range(41) for d in (-1, 0, 1)}
    return sorted(n for n in around | set(range(1, 40 * capacity, 61)) if 1 <= n <= 40 * capacity)


class SlowKeyswitch(StrixAccelerator):
    """No shipped configuration has an epoch whose keyswitch outlasts its blind
    rotation; this one stretches every plan's so that it does."""

    def plan_epoch(self, params, lwes):
        plan = super().plan_epoch(params, lwes)
        slow = plan.blind_rotation_cycles + plan.blind_rotation_cycles // 3 + 1
        return replace(plan, keyswitch_cycles=slow, keyswitch_hidden=False)


class TestBatchCyclesClosedForm:
    @pytest.mark.parametrize("tvlp", [1, 2, 8])
    @pytest.mark.parametrize("name", ["I", "II", "III", "IV"])
    @pytest.mark.parametrize("model", [StrixAccelerator, SlowKeyswitch])
    def test_equals_the_epoch_by_epoch_recurrence(self, model, name, tvlp):
        accelerator = model(STRIX_DEFAULT.with_parallelism(tvlp=tvlp))
        params = PAPER_PARAMETER_SETS[name]
        capacity = tvlp * accelerator.core.core_batch_size(params)
        assert accelerator.plan_epoch(params, capacity).keyswitch_hidden is (
            model is StrixAccelerator
        )  # one regime each: ks <= br as shipped, ks > br stretched
        for lwes in batch_sizes(capacity):
            assert accelerator.pbs_batch_cycles(params, lwes) == epoch_by_epoch_cycles(
                accelerator, params, lwes
            ), lwes

    def test_modeled_numbers_to_the_last_digit(self, strix):
        """What the observatory reports as ``arch.model_pbs_per_s_*`` and
        ``model_table5_max_rel_err``, and three batch times per set."""
        expected = {
            "I": (75000.0, [0.18003999999999998, 8.109226666666666, 21.7826]),
            "II": (39682.53968253968, [0.3024533333333333, 15.056213333333334, 40.89466666666667]),
            "III": (21114.864864864863, [0.5684266666666666, 14.148266666666666, 38.45984]),
            "IV": (2365.0353178607465, [5.920426666666667, 16.91648, 46.511786666666666]),
        }
        for name, (throughput, batch_ms) in expected.items():
            params = PAPER_PARAMETER_SETS[name]
            capacity = strix.config.tvlp * strix.core.core_batch_size(params)
            assert strix.pbs_throughput(params) == throughput
            assert [
                strix.pbs_batch_time_ms(params, lwes) for lwes in (1, capacity, 3 * capacity + 1)
            ] == batch_ms
        assert max(
            abs(expected[row.parameter_set][0] - row.throughput_pbs_per_s) / row.throughput_pbs_per_s
            for row in PUBLISHED_PBS_RESULTS
            if row.platform == "Strix"
        ) == 0.004069829709756881


class TestPaperHeadlineClaims:
    """The abstract's headline comparisons, evaluated with our models."""

    def test_speedup_over_cpu_exceeds_1000x(self, strix):
        from repro.baselines.cpu_model import ConcreteCpuModel

        cpu = ConcreteCpuModel(threads=1)
        speedup = strix.pbs_throughput(PARAM_SET_I) / cpu.pbs_throughput(PARAM_SET_I)
        assert speedup > 1000

    def test_speedup_over_gpu_tens_of_times(self, strix):
        from repro.baselines.gpu_model import NuFheGpuModel

        gpu = NuFheGpuModel()
        speedup = strix.pbs_throughput(PARAM_SET_I) / gpu.pbs_throughput(PARAM_SET_I)
        assert 20 < speedup < 60

    def test_speedup_over_matcha_about_7x(self, strix):
        from repro.baselines.reference_platforms import published_results_for

        matcha = published_results_for("Matcha", "I")[0]
        speedup = strix.pbs_throughput(PARAM_SET_I) / matcha.throughput_pbs_per_s
        assert speedup == pytest.approx(7.4, rel=0.1)

    def test_latency_better_than_matcha(self, strix):
        from repro.baselines.reference_platforms import published_results_for

        matcha = published_results_for("Matcha", "I")[0]
        assert strix.pbs_latency_ms(PARAM_SET_I) < matcha.latency_ms

    def test_set_iv_speedup_over_concrete(self, strix):
        """Paper: 2,368x throughput and ~292x latency gain over Concrete on set IV."""
        from repro.baselines.cpu_model import ConcreteCpuModel

        cpu = ConcreteCpuModel(threads=1)
        throughput_gain = strix.pbs_throughput(PARAM_SET_IV) / cpu.pbs_throughput(PARAM_SET_IV)
        latency_gain = cpu.pbs_latency_ms(PARAM_SET_IV) / strix.pbs_latency_ms(PARAM_SET_IV)
        assert throughput_gain > 1000
        assert latency_gain > 100
