"""Tests for the netlist compiler."""

from __future__ import annotations

import pytest
from test_scheduler_spec import pbs_per_second

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
        # Five gates per full adder; the first (carry-in-free) bit is a two-gate half adder.
        assert netlist.pbs_count() == 5 * bits - 3

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
        assert pbs_per_second(large) >= pbs_per_second(small)

