"""Tests for computation graphs and fragments."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.params import TOY_PARAMETERS
from repro.sim.fragments import blind_rotation_fragments, fragmented_execution_time
from repro.sim.graph import ComputationGraph, ComputationNode, NodeKind


class TestComputationGraph:
    def _simple_graph(self) -> ComputationGraph:
        graph = ComputationGraph(TOY_PARAMETERS, name="simple")
        graph.add_linear_layer("lin", 10, 100)
        graph.add_pbs_layer("act", 10, depends_on=["lin"])
        graph.add_pbs_layer("act2", 5, depends_on=["act"])
        return graph

    def test_counts(self):
        graph = self._simple_graph()
        assert len(graph) == 3
        assert graph.total_pbs() == 15
        assert graph.total_linear_operations() == 1000

    def test_topological_order_respects_dependencies(self):
        graph = self._simple_graph()
        names = [node.name for node in graph.topological_order()]
        assert names.index("lin") < names.index("act") < names.index("act2")

    def test_levels_group_independent_nodes(self):
        graph = ComputationGraph(TOY_PARAMETERS)
        graph.add_pbs_layer("a", 1)
        graph.add_pbs_layer("b", 1)
        graph.add_pbs_layer("c", 1, depends_on=["a", "b"])
        levels = graph.levels()
        assert [sorted(node.name for node in level) for level in levels] == [["a", "b"], ["c"]]

    def test_duplicate_name_rejected(self):
        graph = ComputationGraph(TOY_PARAMETERS)
        graph.add_pbs_layer("a", 1)
        with pytest.raises(ValueError):
            graph.add_pbs_layer("a", 1)

    def test_unknown_dependency_rejected(self):
        graph = ComputationGraph(TOY_PARAMETERS)
        with pytest.raises(ValueError):
            graph.add_pbs_layer("a", 1, depends_on=["ghost"])

    def test_cycle_detection(self):
        graph = ComputationGraph(TOY_PARAMETERS)
        graph.add_pbs_layer("a", 1)
        graph.add_pbs_layer("b", 1, depends_on=["a"])
        # Introduce a cycle behind the API's back to exercise the check.
        graph.node("a").depends_on.append("b")
        with pytest.raises(ValueError):
            graph.topological_order()

    def test_node_kind_counting(self):
        node = ComputationNode("x", NodeKind.PBS, ciphertexts=7)
        assert node.pbs_count() == 7
        node = ComputationNode("y", NodeKind.KEYSWITCH, ciphertexts=3)
        assert node.pbs_count() == 0
        node = ComputationNode("z", NodeKind.LINEAR, ciphertexts=3, operations_per_ciphertext=5)
        assert node.pbs_count() == 0

    def test_node_lookup(self):
        graph = self._simple_graph()
        assert graph.node("act").ciphertexts == 10
        with pytest.raises(KeyError):
            graph.node("missing")


class TestFragments:
    def test_equation_2_examples(self):
        # Fig. 2: 72 SMs — 72 ciphertexts fit in one pass, 73 need a second.
        assert blind_rotation_fragments(72, 72) == 0
        assert blind_rotation_fragments(73, 72) == 1
        assert blind_rotation_fragments(144, 72) == 1
        assert blind_rotation_fragments(145, 72) == 2
        assert blind_rotation_fragments(288, 72) == 3

    def test_equation_1_total_time(self):
        assert fragmented_execution_time(73, 72, 10.0) == pytest.approx(20.0)
        assert fragmented_execution_time(72, 72, 10.0) == pytest.approx(10.0)
        assert fragmented_execution_time(0, 72, 10.0) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            blind_rotation_fragments(-1, 72)
        with pytest.raises(ValueError):
            blind_rotation_fragments(10, 0)

    @given(st.integers(min_value=1, max_value=100000), st.integers(min_value=1, max_value=4096))
    @settings(max_examples=200, deadline=None)
    def test_larger_batches_never_increase_fragments(self, ciphertexts, batch):
        assert blind_rotation_fragments(ciphertexts, batch) >= blind_rotation_fragments(
            ciphertexts, batch * 2
        )

    @given(st.integers(min_value=1, max_value=10000))
    @settings(max_examples=100, deadline=None)
    def test_two_level_batching_eliminates_fragments_up_to_capacity(self, ciphertexts):
        """Strix's 512-LWE batch (set I) has no fragmentation up to capacity."""
        strix_batch = 8 * 64
        fragments = blind_rotation_fragments(ciphertexts, strix_batch)
        if ciphertexts <= strix_batch:
            assert fragments == 0
        else:
            assert fragments == -(-ciphertexts // strix_batch) - 1
