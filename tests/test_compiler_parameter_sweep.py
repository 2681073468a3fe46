"""Tests for the netlist compiler and the TFHE parameter sweep."""

from __future__ import annotations

import pytest

from repro.analysis.parameter_sweep import parameter_sweep
from repro.apps.boolean_circuits import RippleCarryAdder
from repro.arch.accelerator import StrixAccelerator
from repro.params import PARAM_SET_I, TOY_PARAMETERS
from repro.sim.compiler import Netlist, compile_netlist, full_adder_netlist
from repro.sim.scheduler import StrixScheduler


class TestNetlist:
    def _tiny_netlist(self) -> Netlist:
        netlist = Netlist(TOY_PARAMETERS, name="tiny")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        c = netlist.add_input("c")
        ab = netlist.add_gate("and", "ab", a, b)
        netlist.add_gate("xor", "out", ab, c)
        return netlist

    def test_pbs_count(self):
        assert self._tiny_netlist().pbs_count() == 2

    def test_not_gates_are_free(self):
        netlist = Netlist(TOY_PARAMETERS)
        a = netlist.add_input("a")
        netlist.add_gate("not", "na", a)
        assert netlist.pbs_count() == 0

    def test_levelize_respects_dependencies(self):
        levels = self._tiny_netlist().levelize()
        assert len(levels) == 2
        assert levels[0][0].output == "ab"
        assert levels[1][0].output == "out"

    def test_duplicate_wire_rejected(self):
        netlist = Netlist(TOY_PARAMETERS)
        netlist.add_input("a")
        with pytest.raises(ValueError):
            netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_gate("and", "c", "a", "b")
        with pytest.raises(ValueError):
            netlist.add_gate("or", "c", "a", "b")

    def test_undefined_wire_rejected(self):
        netlist = Netlist(TOY_PARAMETERS)
        with pytest.raises(ValueError):
            netlist.add_gate("and", "x", "ghost", "ghost2")

    def test_unknown_gate_rejected(self):
        netlist = Netlist(TOY_PARAMETERS)
        netlist.add_input("a")
        with pytest.raises(ValueError):
            netlist.add_gate("nandxor", "x", "a", "a")

    def test_linear_operations_do_not_add_levels(self):
        netlist = Netlist(TOY_PARAMETERS)
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        s = netlist.add_linear("s", (a, b), cost=10)
        netlist.add_gate("and", "out", s, a)
        assert len(netlist.levelize()) == 2  # linear level 0, gate level 1


class TestCompileNetlist:
    def test_adder_netlist_matches_circuit_gate_count(self):
        bits = 8
        netlist = full_adder_netlist(PARAM_SET_I, bits)
        # The netlist form saves the gates of the first (carry-in-free) bit.
        assert netlist.pbs_count() == RippleCarryAdder.gate_count(bits) - 3

    def test_compiled_graph_preserves_pbs_count(self):
        netlist = full_adder_netlist(PARAM_SET_I, 8)
        graph = compile_netlist(netlist, instances=10)
        assert graph.total_pbs() == 10 * netlist.pbs_count()

    def test_instances_must_be_positive(self):
        with pytest.raises(ValueError):
            compile_netlist(full_adder_netlist(PARAM_SET_I, 4), instances=0)

    def test_compiled_graph_runs_on_the_scheduler(self):
        scheduler = StrixScheduler(StrixAccelerator())
        graph = compile_netlist(full_adder_netlist(PARAM_SET_I, 16), instances=64)
        result = scheduler.run(graph)
        assert result.total_time_s > 0
        assert result.total_pbs == graph.total_pbs()

    def test_more_instances_never_reduce_throughput(self):
        scheduler = StrixScheduler(StrixAccelerator())
        netlist = full_adder_netlist(PARAM_SET_I, 8)
        small = scheduler.run(compile_netlist(netlist, instances=8))
        large = scheduler.run(compile_netlist(netlist, instances=512))
        assert large.pbs_throughput >= small.pbs_throughput


class TestParameterSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return parameter_sweep(degrees=[1024, 2048, 4096], levels=[2, 3])

    def test_covers_grid(self, sweep):
        assert len(sweep.points) == 6
        assert len(sweep.by_degree(1024)) == 2

    def test_throughput_decreases_with_degree(self, sweep):
        lb2 = [point for point in sweep.points if point.decomposition_levels == 2]
        throughputs = [point.throughput_pbs_per_s for point in sorted(lb2, key=lambda p: p.polynomial_degree)]
        assert throughputs == sorted(throughputs, reverse=True)

    def test_default_grid_throughput_decreases_with_degree_at_every_level(self):
        points = parameter_sweep().points
        for levels in sorted({point.decomposition_levels for point in points}):
            column = [point for point in points if point.decomposition_levels == levels]
            column.sort(key=lambda point: point.polynomial_degree)
            throughputs = [point.throughput_pbs_per_s for point in column]
            assert len(column) > 1 and throughputs == sorted(throughputs, reverse=True)

    def test_throughput_decreases_with_levels(self, sweep):
        n1024 = {point.decomposition_levels: point for point in sweep.by_degree(1024)}
        assert n1024[2].throughput_pbs_per_s > n1024[3].throughput_pbs_per_s

    def test_bandwidth_grows_with_degree(self, sweep):
        lb2 = sorted(
            (p for p in sweep.points if p.decomposition_levels == 2),
            key=lambda p: p.polynomial_degree,
        )
        bandwidths = [point.required_bandwidth_gbps for point in lb2]
        assert bandwidths == sorted(bandwidths)

    def test_core_batch_shrinks_with_degree(self, sweep):
        lb2 = sorted(
            (p for p in sweep.points if p.decomposition_levels == 2),
            key=lambda p: p.polynomial_degree,
        )
        batches = [point.core_batch for point in lb2]
        assert batches == sorted(batches, reverse=True)

    def test_set_i_point_matches_table_v(self, sweep):
        point = next(
            p for p in sweep.points
            if p.polynomial_degree == 1024 and p.decomposition_levels == 2
        )
        assert point.throughput_pbs_per_s == pytest.approx(75000, rel=0.05)

    def test_render(self, sweep):
        assert "sensitivity" in sweep.render()
