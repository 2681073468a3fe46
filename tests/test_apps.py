"""Tests for the application workloads (Deep-NN, boolean circuits, generators)."""

from __future__ import annotations

import pytest

from repro.apps.boolean_circuits import Comparator, RippleCarryAdder, boolean_circuit_graph
from repro.apps.deep_nn import (
    DeepNNModel,
    EncryptedMLP,
    ZAMA_DEEP_NN_MODELS,
    build_deep_nn_graph,
)
from repro.apps.workloads import (
    gate_workload_graph,
    lut_pipeline_graph,
    pbs_batch_graph,
    random_layered_graph,
)
from repro.params import DEEP_NN_N1024, PARAM_SET_I, TOY_PARAMETERS
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
            build_deep_nn_graph(ZAMA_DEEP_NN_MODELS[name], DEEP_NN_N1024).total_linear_operations()
            for name in ("NN-20", "NN-50", "NN-100")
        ]
        assert ops == sorted(ops)

    def test_graph_matches_model_counts(self):
        model = ZAMA_DEEP_NN_MODELS["NN-20"]
        graph = build_deep_nn_graph(model, DEEP_NN_N1024)
        assert graph.total_pbs() == model.pbs_count()
        # A 10x11 kernel per conv activation, one dense layer fed by the conv
        # activations, the other 18 dense layers square.
        assert graph.total_linear_operations() == 840 * 110 + 92 * 840 + 18 * 92 * 92
        # 2 nodes per layer (linear + relu).
        assert len(graph) == 2 * model.depth

    def test_graph_layers_are_sequential(self):
        graph = build_deep_nn_graph(ZAMA_DEEP_NN_MODELS["NN-20"], DEEP_NN_N1024)
        levels = graph.levels()
        assert len(levels) == len(graph)
        assert all(len(level) == 1 for level in levels)

    def test_custom_model(self):
        tiny = DeepNNModel("NN-3", depth=3)
        assert tiny.pbs_count() == 840 + 2 * 92


class TestEncryptedMLP:
    @pytest.fixture(scope="class")
    def mlp(self, toy_context_class):
        return EncryptedMLP(toy_context_class, layer_sizes=[3, 2], weight_magnitude=1, seed=3)

    @pytest.fixture(scope="class")
    def toy_context_class(self, request):
        # Reuse the session fixture through the class-scoped request.
        return request.getfixturevalue("toy_context")

    def test_weight_shapes(self, mlp):
        assert len(mlp.weights) == 1
        assert mlp.weights[0].shape == (2, 3)

    def test_encrypted_inference_matches_plaintext_reference(self, mlp):
        inputs = [1, 0, 1]
        assert mlp.infer(inputs) == mlp.infer_plaintext(inputs)

    def test_two_layer_network(self, toy_context):
        mlp = EncryptedMLP(toy_context, layer_sizes=[2, 2, 1], weight_magnitude=1, seed=7)
        inputs = [1, 1]
        assert mlp.infer(inputs) == mlp.infer_plaintext(inputs)

    def test_input_length_validated(self, mlp):
        with pytest.raises(ValueError):
            mlp.forward_encrypted([])

    def test_needs_two_layers(self, toy_context):
        with pytest.raises(ValueError):
            EncryptedMLP(toy_context, layer_sizes=[4])


class TestBooleanCircuits:
    @pytest.fixture(scope="class")
    def circuits(self, request):
        context = request.getfixturevalue("toy_context")
        gates = context.gates()
        return context, RippleCarryAdder(gates), Comparator(gates)

    def _encrypt_number(self, context, value, bits):
        return [context.encrypt_boolean(bool((value >> i) & 1)) for i in range(bits)]

    def _decrypt_number(self, context, ciphertexts):
        return sum(int(context.decrypt_boolean(ct)) << i for i, ct in enumerate(ciphertexts))

    @pytest.mark.parametrize("a, b", [(0, 0), (1, 2), (3, 3), (2, 1)])
    def test_two_bit_addition(self, circuits, a, b):
        context, adder, _ = circuits
        result = adder.add(
            self._encrypt_number(context, a, 2), self._encrypt_number(context, b, 2)
        )
        assert self._decrypt_number(context, result) == a + b

    def test_adder_requires_equal_width(self, circuits):
        context, adder, _ = circuits
        with pytest.raises(ValueError):
            adder.add(self._encrypt_number(context, 1, 2), self._encrypt_number(context, 1, 3))

    @pytest.mark.parametrize("a, b, expected", [(2, 2, True), (1, 3, False)])
    def test_equality(self, circuits, a, b, expected):
        context, _, comparator = circuits
        result = comparator.equals(
            self._encrypt_number(context, a, 2), self._encrypt_number(context, b, 2)
        )
        assert context.decrypt_boolean(result) is expected

    @pytest.mark.parametrize("a, b, expected", [(3, 1, True), (1, 3, False), (2, 2, False)])
    def test_greater_than(self, circuits, a, b, expected):
        context, _, comparator = circuits
        result = comparator.greater_than(
            self._encrypt_number(context, a, 2), self._encrypt_number(context, b, 2)
        )
        assert context.decrypt_boolean(result) is expected

    def test_gate_counts(self):
        assert RippleCarryAdder.gate_count(8) == 40
        assert Comparator.gate_count_equals(8) == 15
        assert Comparator.gate_count_greater_than(8) == 32

    def test_circuit_graph_pbs_total(self):
        graph = boolean_circuit_graph(PARAM_SET_I, "adder", bits=8, instances=16)
        assert graph.total_pbs() == RippleCarryAdder.gate_count(8) // 8 * 8 * 16
        assert len(graph.levels()) == 8

    def test_circuit_graph_unknown_circuit(self):
        with pytest.raises(ValueError):
            boolean_circuit_graph(PARAM_SET_I, "divider", bits=8)


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
