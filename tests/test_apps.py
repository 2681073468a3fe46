"""Tests for the application workloads (Deep-NN, boolean circuits, generators)."""

from __future__ import annotations

import itertools
import operator

import pytest
from test_compiler import model_graph

from repro import run
from repro.apps.boolean_circuits import equals_netlist, greater_than_netlist
from repro.apps.deep_nn import (
    DeepNNModel,
    ZAMA_DEEP_NN_MODELS,
    forward_plaintext,
    mlp_netlist,
    mlp_weights,
)
from repro.apps.workloads import (
    gate_workload_graph,
    lut_pipeline_graph,
    pbs_batch_graph,
    random_layered_graph,
)
from repro.params import DEEP_NN_N1024, PARAM_SET_I, TOY_PARAMETERS
from repro.sim.compiler import compile_netlist, full_adder_netlist
from repro.sim.graph import NodeKind


class TestDeepNNModel:
    def test_paper_model_shapes(self):
        nn20 = ZAMA_DEEP_NN_MODELS["NN-20"]
        assert nn20.image_size**2 == 784
        assert nn20.conv_activations == 840
        assert nn20.dense_layers == 19
        assert nn20.dense_neurons == 92

    @pytest.mark.parametrize(
        "name, expected_pbs",
        [("NN-20", 840 + 19 * 92), ("NN-50", 840 + 49 * 92), ("NN-100", 840 + 99 * 92)],
    )
    def test_pbs_counts(self, name, expected_pbs):
        assert ZAMA_DEEP_NN_MODELS[name].pbs_count() == expected_pbs

    def test_linear_operations_grow_with_depth(self):
        ops = [
            model_graph(name, DEEP_NN_N1024).total_linear_operations()
            for name in ("NN-20", "NN-50", "NN-100")
        ]
        assert ops == sorted(ops)

    def test_graph_matches_model_counts(self):
        model = ZAMA_DEEP_NN_MODELS["NN-20"]
        graph = model_graph("NN-20", DEEP_NN_N1024)
        assert graph.total_pbs() == model.pbs_count()
        # A 10x11 kernel per conv activation, one dense layer fed by the conv
        # activations, the other 18 dense layers square.
        assert graph.total_linear_operations() == 840 * 110 + 92 * 840 + 18 * 92 * 92
        # 2 nodes per layer (linear + relu).
        assert len(graph) == 2 * model.depth

    def test_graph_layers_are_sequential(self):
        graph = model_graph("NN-20", DEEP_NN_N1024)
        levels = graph.levels()
        assert len(levels) == len(graph)
        assert all(len(level) == 1 for level in levels)

    def test_custom_model(self):
        tiny = DeepNNModel("NN-3", depth=3)
        assert tiny.pbs_count() == 840 + 2 * 92


class TestMLPNetlist:
    def test_decrypts_to_the_plaintext_reference_over_its_input_space(self, toy_session):
        weights = mlp_weights([3, 3, 2], seed=0)
        netlist = mlp_netlist(TOY_PARAMETERS, weights)
        space = list(itertools.product(range(TOY_PARAMETERS.message_modulus), repeat=3))
        result = run(
            netlist,
            backend="reference",
            session=toy_session,
            inputs=[{f"x{i}": value for i, value in enumerate(x)} for x in space],
        )
        expected = [forward_plaintext(TOY_PARAMETERS, weights, list(x)) for x in space]
        assert len(result.outputs) == len(space) == 64
        assert [[outputs["y0"], outputs["y1"]] for outputs in result.outputs] == expected
        assert any(any(outputs) for outputs in expected)

    def test_one_linear_and_one_relu_lut_per_neuron(self):
        weights = mlp_weights([3, 3, 2], seed=0)
        assert [weight.shape for weight in weights] == [(3, 3), (2, 3)]
        netlist = mlp_netlist(TOY_PARAMETERS, weights)
        kinds = [operation.kind for operation in netlist.operations]
        assert kinds == ["linear", "lut"] * 5
        assert netlist.pbs_count() == 5
        assert netlist.output_wires() == ["y0", "y1"]
        first = netlist.operations[0]
        assert first.coefficients == tuple(weights[0][0]) and first.cost == 3

    def test_a_missing_input_is_refused(self, toy_session):
        netlist = mlp_netlist(TOY_PARAMETERS, mlp_weights([3, 2], seed=3))
        # The missing wires default to a boolean, which a linear operation refuses.
        with pytest.raises(ValueError):
            run(netlist, backend="reference", session=toy_session, inputs={"x0": 1})

    def test_needs_two_layers(self):
        with pytest.raises(ValueError):
            mlp_weights([4])


def _operands(a: int, b: int, bits: int) -> dict[str, bool]:
    """The little-endian operand wires ``a{i}`` / ``b{i}`` of the circuit builders."""
    return {
        f"{name}{i}": bool(value >> i & 1)
        for name, value in (("a", a), ("b", b))
        for i in range(bits)
    }


class TestBooleanCircuits:
    def test_two_bit_addition(self, toy_session):
        cases = [(0, 0), (1, 2), (3, 3), (2, 1)]
        netlist = full_adder_netlist(TOY_PARAMETERS, 2)
        result = run(
            netlist,
            backend="reference",
            session=toy_session,
            inputs=[_operands(a, b, 2) for a, b in cases],
        )
        for (a, b), outputs in zip(cases, result.outputs):
            total = sum(int(outputs[wire]) << i for i, wire in enumerate(netlist.output_wires()))
            assert total == a + b

    @pytest.mark.parametrize(
        "build, relation, gt_in",
        [
            (equals_netlist, operator.eq, None),
            (greater_than_netlist, operator.gt, None),
            (greater_than_netlist, operator.ge, True),
        ],
    )
    def test_comparators_over_every_two_bit_pair(self, toy_session, build, relation, gt_in):
        pairs = list(itertools.product(range(4), repeat=2))
        extra = {} if gt_in is None else {"gt_in": gt_in}
        netlist = build(TOY_PARAMETERS, 2)
        result = run(
            netlist,
            backend="reference",
            session=toy_session,
            inputs=[{**_operands(a, b, 2), **extra} for a, b in pairs],
        )
        (wire,) = netlist.output_wires()
        assert [outputs[wire] for outputs in result.outputs] == [relation(a, b) for a, b in pairs]

    def test_gate_counts(self):
        assert full_adder_netlist(PARAM_SET_I, 8).pbs_count() == 37
        assert equals_netlist(PARAM_SET_I, 8).pbs_count() == 15
        assert greater_than_netlist(PARAM_SET_I, 8).pbs_count() == 32

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_compiled_totals_are_the_builders_counts(self, bits):
        # The adder prices its half-adder bit 0 as built: no constant carry-in.
        for build in (full_adder_netlist, equals_netlist, greater_than_netlist):
            graph = compile_netlist(build(PARAM_SET_I, bits), instances=16)
            assert graph.total_pbs() == build(PARAM_SET_I, bits).pbs_count() * 16

    def test_compiled_circuit_levels(self):
        # Every first gate of every bit batches into one level; then the carry
        # (or comparison) ripples one or two gates per bit.
        levels = {
            full_adder_netlist: [16] + [2, 1] * 7,
            greater_than_netlist: [16] + [1] * 16,
            equals_netlist: [8] + [1] * 7,
        }
        for build, gates in levels.items():
            graph = compile_netlist(build(PARAM_SET_I, 8), instances=16)
            assert [node.pbs_count() for node in graph] == [16 * count for count in gates]
            assert len(graph.levels()) == len(gates)


class TestWorkloadGenerators:
    def test_pbs_batch_graph(self):
        graph = pbs_batch_graph(PARAM_SET_I, 100)
        assert graph.total_pbs() == 100
        assert len(graph) == 1

    def test_lut_pipeline_graph_is_sequential(self):
        graph = lut_pipeline_graph(PARAM_SET_I, stages=5, ciphertexts_per_stage=10)
        assert graph.total_pbs() == 50
        assert len(graph.levels()) == 5

    def test_gate_workload_graph_splits_by_parallelism(self):
        graph = gate_workload_graph(PARAM_SET_I, gates=100, parallelism=32)
        assert graph.total_pbs() == 100
        assert len(graph.levels()) == 4

    def test_gate_workload_rejects_bad_parallelism(self):
        with pytest.raises(ValueError):
            gate_workload_graph(PARAM_SET_I, gates=10, parallelism=0)

    def test_random_layered_graph_is_valid_dag(self):
        graph = random_layered_graph(TOY_PARAMETERS, levels=5, max_width=4, seed=11)
        order = [node.name for node in graph.topological_order()]
        assert len(order) == len(graph)
        kinds = {node.kind for node in graph}
        assert kinds <= {NodeKind.PBS_KS, NodeKind.LINEAR}

    def test_random_layered_graph_deterministic_per_seed(self):
        first = random_layered_graph(TOY_PARAMETERS, 4, 3, seed=5)
        second = random_layered_graph(TOY_PARAMETERS, 4, 3, seed=5)
        assert [node.name for node in first] == [node.name for node in second]
        assert first.total_pbs() == second.total_pbs()
