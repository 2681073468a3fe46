"""Tests for the epoch scheduler and the Fig. 8 occupancy trace."""

from __future__ import annotations

import pytest
from test_scheduler_spec import pbs_per_second

from repro.apps.workloads import gate_workload_graph, lut_pipeline_graph, pbs_batch_graph
from repro.arch.accelerator import StrixAccelerator
from repro.arch.config import STRIX_DEFAULT
from repro.params import PARAM_SET_I, PARAM_SET_IV
from repro.sim.scheduler import StrixScheduler
from repro.sim.trace import build_occupancy_trace


@pytest.fixture(scope="module")
def scheduler(strix_module):
    return StrixScheduler(strix_module)


@pytest.fixture(scope="module")
def strix_module():
    return StrixAccelerator(STRIX_DEFAULT)


class TestStrixScheduler:
    def test_single_pbs_matches_latency_model(self, scheduler, strix_module):
        result = scheduler.run(pbs_batch_graph(PARAM_SET_I, 1))
        # One LWE: no batching possible, so the node takes the PBS latency
        # plus the (non-hidden) final keyswitch.
        expected_min = strix_module.pbs_latency_ms(PARAM_SET_I)
        assert result.total_time_s * 1e3 >= expected_min
        assert result.total_time_s * 1e3 < expected_min * 1.5
        assert result.total_pbs == 1

    def test_large_batch_achieves_peak_throughput(self, scheduler, strix_module):
        lwes = 4096
        result = scheduler.run(pbs_batch_graph(PARAM_SET_I, lwes))
        assert pbs_per_second(result) == pytest.approx(
            strix_module.pbs_throughput(PARAM_SET_I), rel=0.1
        )

    def test_dependent_stages_serialize(self, scheduler):
        parallel = scheduler.run(pbs_batch_graph(PARAM_SET_I, 16))
        chained = scheduler.run(lut_pipeline_graph(PARAM_SET_I, stages=4, ciphertexts_per_stage=4))
        # Same total PBS count, but the chained version exposes only four
        # ciphertexts at a time: half the cores idle and every stage pays the
        # full single-LWE blind-rotation latency.
        assert chained.total_pbs == parallel.total_pbs
        assert chained.total_time_s > parallel.total_time_s

    def test_core_utilization_balanced_for_full_batches(self, scheduler):
        result = scheduler.run(pbs_batch_graph(PARAM_SET_I, 512))
        values = list(result.core_utilization.values())
        assert len(values) == 8
        assert max(values) - min(values) < 0.05

    def test_epoch_count_follows_capacity(self, scheduler, strix_module):
        capacity = strix_module.epoch_capacity(PARAM_SET_I)
        result = scheduler.run(pbs_batch_graph(PARAM_SET_I, capacity * 2 + 1))
        assert result.total_epochs == 3

    def test_linear_nodes_much_cheaper_than_pbs(self, scheduler):
        graph = gate_workload_graph(PARAM_SET_I, gates=64, parallelism=64)
        pbs_only = scheduler.run(graph)
        from repro.sim.graph import ComputationGraph

        linear_graph = ComputationGraph(PARAM_SET_I, name="linear-only")
        linear_graph.add_linear_layer("lin", 64, 1000)
        linear_only = scheduler.run(linear_graph)
        assert linear_only.total_time_s < 0.01 * pbs_only.total_time_s

    def test_schedule_records_every_node(self, scheduler):
        graph = lut_pipeline_graph(PARAM_SET_I, stages=3, ciphertexts_per_stage=8)
        result = scheduler.run(graph)
        assert len(result.node_schedules) == 3
        ends = [schedule.end_s for schedule in result.node_schedules]
        assert ends == sorted(ends)
        assert result.total_time_s == pytest.approx(max(ends), rel=1e-9)

    def test_workload_and_parameter_metadata(self, scheduler):
        result = scheduler.run(pbs_batch_graph(PARAM_SET_IV, 8, name="iv-batch"))
        assert result.workload == "iv-batch"
        assert result.parameter_set == "IV"


class TestOccupancyTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return build_occupancy_trace(StrixAccelerator(), PARAM_SET_I, lwes_per_core=3, iterations=2)

    def test_rows_include_compute_and_memory(self, trace):
        rows = trace.rows()
        for expected in (
            "rotator", "decomposer", "fft", "vma", "ifft", "accumulator", "local_scratchpad", "hbm"
        ):
            assert expected in rows

    def test_wide_units_highly_utilized(self, trace):
        for unit in ("decomposer", "fft", "vma", "ifft", "accumulator"):
            assert trace.utilization[unit] > 0.8, unit

    def test_rotator_about_half_utilized(self, trace):
        assert 0.3 < trace.utilization["rotator"] < 0.7

    def test_scratchpad_heavily_used(self, trace):
        assert trace.utilization["local_scratchpad"] > 0.7

    def test_hbm_partially_used(self, trace):
        """Fig. 8: HBM busy well below 100 % (≈60 %) for set I."""
        assert 0.2 < trace.utilization["hbm"] < 0.9

    def test_render_contains_all_rows(self, trace):
        text = trace.render()
        assert "rotator" in text and "hbm" in text
        assert "parameter set I" in text

    def test_horizon_positive(self, trace):
        assert trace.horizon_cycles() > 0

    def test_two_iterations_traced(self, trace):
        iterations = {interval.iteration for interval in trace.intervals if interval.unit == "fft"}
        assert iterations == {0, 1}
