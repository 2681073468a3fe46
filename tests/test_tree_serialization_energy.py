"""Tests for tree inference, serialization and the energy model."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run
from repro.apps.tree_inference import (
    DecisionNode,
    DecisionTree,
    Leaf,
    forest_netlist,
    tree_netlist,
)
from repro.arch.accelerator import StrixAccelerator
from repro.arch.energy import EnergyModel
from repro.params import PARAM_SET_I, TOY_PARAMETERS
from repro.sim.compiler import compile_netlist
from repro.tfhe import serialization


class TestDecisionTree:
    def _xor_like_tree(self) -> DecisionTree:
        """feature0 >= 2 XOR feature1 >= 2 as a depth-2 tree."""
        return DecisionTree(
            root=DecisionNode(
                feature=0,
                threshold=2,
                left=DecisionNode(feature=1, threshold=2, left=Leaf(0), right=Leaf(1)),
                right=DecisionNode(feature=1, threshold=2, left=Leaf(1), right=Leaf(0)),
            ),
            num_features=2,
        )

    def test_plaintext_prediction(self):
        tree = self._xor_like_tree()
        assert tree.predict([0, 0]) == 0
        assert tree.predict([3, 0]) == 1
        assert tree.predict([0, 3]) == 1
        assert tree.predict([3, 3]) == 0

    def test_shape_accessors(self):
        tree = self._xor_like_tree()
        assert tree.depth() == 2
        # One comparison and a two-PBS select per internal node.
        assert tree_netlist(tree, TOY_PARAMETERS).pbs_count() == 3 * 3

    def test_random_tree_is_complete(self):
        tree = DecisionTree.random(depth=3, num_features=4, params=TOY_PARAMETERS, seed=1)
        assert tree.depth() == 3
        assert tree_netlist(tree, TOY_PARAMETERS).pbs_count() == 3 * 7

    def _predictions(self, session, tree, features) -> list[int]:
        result = run(
            tree_netlist(tree, TOY_PARAMETERS),
            backend="reference",
            session=session,
            inputs=[{f"x{i}": value for i, value in enumerate(row)} for row in features],
        )
        return [outputs["label"] for outputs in result.outputs]

    def test_homomorphic_inference_matches_plaintext(self, toy_session):
        tree = self._xor_like_tree()
        features = [list(row) for row in itertools.product([0, 1, 2, 3], repeat=2)]
        predictions = self._predictions(toy_session, tree, features)
        assert predictions == [tree.predict(row) for row in features]

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_random_tree_homomorphic_inference(self, toy_session, depth):
        tree = DecisionTree.random(depth=depth, num_features=3, params=TOY_PARAMETERS, seed=4)
        rng = np.random.default_rng(0)
        features = [[int(value) for value in rng.integers(0, 4, size=3)] for _ in range(4)]
        predictions = self._predictions(toy_session, tree, features)
        assert predictions == [tree.predict(row) for row in features]

    def test_missing_and_undeclared_features_are_refused(self, toy_session):
        netlist = tree_netlist(self._xor_like_tree(), TOY_PARAMETERS)
        # A missing feature defaults to a boolean, which the comparison LUT refuses.
        for inputs in ({"x0": 1}, {"x0": 1, "x1": 2, "x2": 3}):
            with pytest.raises(ValueError):
                run(netlist, backend="reference", session=toy_session, inputs=inputs)

    def test_a_bare_leaf_has_no_netlist(self):
        with pytest.raises(ValueError):
            tree_netlist(DecisionTree(root=Leaf(1), num_features=1), TOY_PARAMETERS)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_a_compiled_tree_prices_three_pbs_per_node(self, depth):
        tree = DecisionTree.random(depth=depth, num_features=4, params=PARAM_SET_I, seed=depth)
        compiled = compile_netlist(tree_netlist(tree, PARAM_SET_I), instances=10)
        # One comparison and two gating LUTs per internal node.
        assert compiled.total_pbs() == 3 * (2**depth - 1) * 10

    def test_every_tree_of_a_depth_compiles_to_one_forest_graph(self):
        graphs = [
            compile_netlist(
                tree_netlist(DecisionTree.random(3, 4, PARAM_SET_I, seed=seed), PARAM_SET_I),
                instances=1000,
            )
            for seed in (3, 4)
        ]
        shapes = [[vars(node) for node in graph] for graph in graphs]
        assert shapes[0] == shapes[1]
        # Every comparison batches into one level; the gates follow leaves first.
        pbs = [node.pbs_count() for node in graphs[0] if node.pbs_count()]
        assert pbs == [7000, 8000, 4000, 2000]
        assert len(graphs[0].levels()) == 9


class TestForest:
    def _forest(self, params, depth: int, num_features: int) -> list[DecisionTree]:
        return [DecisionTree.random(depth, num_features, params, seed=seed) for seed in range(3)]

    def test_stacked_run_scores_every_feature_vector(self, toy_session):
        forest = self._forest(TOY_PARAMETERS, depth=2, num_features=3)
        netlist = forest_netlist(forest, TOY_PARAMETERS)
        # The votes are summed encrypted: the score is the only wire decrypted.
        assert netlist.output_wires() == ["score"]
        features = [list(row) for row in itertools.product(range(4), repeat=3)]
        result = run(
            netlist,
            backend="reference",
            session=toy_session,
            inputs=[{f"x{i}": value for i, value in enumerate(row)} for row in features],
        )
        expected = [sum(tree.predict(row) for tree in forest) for row in features]
        assert len(set(expected)) > 1
        assert [outputs["score"] for outputs in result.outputs] == expected

    def test_a_score_past_the_message_modulus_is_refused(self):
        p = TOY_PARAMETERS.message_modulus
        forest = [DecisionTree.random(1, 2, TOY_PARAMETERS, seed=seed) for seed in range(p)]
        with pytest.raises(ValueError, match=f"p = {p}.* at most p - 1 = {p - 1}"):
            forest_netlist(forest, TOY_PARAMETERS)
        with pytest.raises(ValueError):
            forest_netlist([], TOY_PARAMETERS)

    @pytest.mark.parametrize("num_trees, depth", [(1, 3), (2, 1), (3, 1)])
    def test_stacked_run_scores_random_forests(self, toy_session, num_trees, depth):
        forest = [
            DecisionTree.random(depth, 3, TOY_PARAMETERS, seed=10 + seed)
            for seed in range(num_trees)
        ]
        rng = np.random.default_rng(num_trees)
        features = [[int(value) for value in rng.integers(0, 4, size=3)] for _ in range(6)]
        result = run(
            forest_netlist(forest, TOY_PARAMETERS),
            backend="reference",
            session=toy_session,
            inputs=[{f"x{i}": value for i, value in enumerate(row)} for row in features],
        )
        expected = [sum(tree.predict(row) for tree in forest) for row in features]
        assert [outputs["score"] for outputs in result.outputs] == expected

    def test_a_forest_refuses_what_a_tree_refuses(self):
        with pytest.raises(ValueError, match="bare leaf"):
            forest_netlist(
                [
                    DecisionTree.random(1, 2, TOY_PARAMETERS, seed=0),
                    DecisionTree(root=Leaf(1), num_features=2),
                ],
                TOY_PARAMETERS,
            )
        binary = dataclasses.replace(TOY_PARAMETERS, message_bits=1)
        tree = DecisionTree.random(1, 2, TOY_PARAMETERS, seed=0)
        with pytest.raises(ValueError, match="message modulus of at least 4"):
            forest_netlist([tree], binary)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_a_one_tree_forest_is_the_tree_plus_its_score(self, depth):
        tree = DecisionTree.random(depth, 4, TOY_PARAMETERS, seed=depth)
        single = tree_netlist(tree, TOY_PARAMETERS)
        forest = forest_netlist([tree], TOY_PARAMETERS)
        *grown, score = forest.operations

        def prefixed(wire: str) -> str:
            return wire if wire in single.primary_inputs else f"t0_{wire}"

        assert [(op.kind, op.output, op.inputs) for op in grown] == [
            (op.kind, prefixed(op.output), tuple(map(prefixed, op.inputs)))
            for op in single.operations
        ]
        assert (score.kind, score.output, score.inputs) == ("linear", "score", ("t0_label",))
        assert forest.pbs_count() == single.pbs_count()

    def test_trees_share_the_feature_wires(self):
        trees = [
            DecisionTree.random(2, num_features, TOY_PARAMETERS, seed=num_features)
            for num_features in (2, 5, 3)
        ]
        netlist = forest_netlist(trees, TOY_PARAMETERS)
        assert netlist.primary_inputs == {f"x{index}" for index in range(5)}
        assert netlist.name == "forest-3x-d2"
        score = netlist.operations[-1]
        assert score.inputs == ("t0_label", "t1_label", "t2_label")
        grown = [op.output for op in netlist.operations[:-1]]
        for index, tree in enumerate(trees):
            prefixed = [wire for wire in grown if wire.startswith(f"t{index}_")]
            assert len(prefixed) == len(tree_netlist(tree, TOY_PARAMETERS).operations)
        assert len(grown) == sum(len(tree_netlist(t, TOY_PARAMETERS).operations) for t in trees)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 6])
    def test_a_compiled_forest_prices_every_tree(self, depth):
        forest = self._forest(PARAM_SET_I, depth=depth, num_features=8)
        tree_pbs = tree_netlist(forest[0], PARAM_SET_I).pbs_count()
        compiled = compile_netlist(forest_netlist(forest, PARAM_SET_I), instances=100)
        assert compiled.total_pbs() == len(forest) * tree_pbs * 100


class TestSerialization:
    def test_lwe_bytes_roundtrip(self, toy_context):
        ciphertexts = [toy_context.encrypt(m) for m in (0, 1, 2, 3)]
        blob = serialization.lwe_to_bytes(ciphertexts)
        header = serialization._LWE_WIRE_HEADER.size + len(TOY_PARAMETERS.name)
        assert len(blob) == header + len(ciphertexts) * (ciphertexts[0].dimension + 1) * 8
        loaded = serialization.lwe_from_bytes(blob, TOY_PARAMETERS)
        assert [toy_context.decrypt(ct) for ct in loaded] == [0, 1, 2, 3]
        # Byte-deterministic: the same batch encodes to the same bytes.
        assert serialization.lwe_to_bytes(loaded) == blob

    @given(
        masks=st.lists(
            st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=5, max_size=5),
            min_size=1,
            max_size=6,
        ),
        bodies=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_lwe_bytes_roundtrip_property(self, masks, bodies):
        from repro.tfhe.lwe import LweCiphertext

        batch = [
            LweCiphertext(
                np.asarray(mask, dtype=np.int64),
                bodies.draw(st.integers(min_value=-(2**40), max_value=2**40)),
                TOY_PARAMETERS,
            )
            for mask in masks
        ]
        restored = serialization.lwe_from_bytes(serialization.lwe_to_bytes(batch), TOY_PARAMETERS)
        assert len(restored) == len(batch)
        for original, copy in zip(batch, restored):
            assert np.array_equal(original.mask, copy.mask)
            assert original.body == copy.body

    def test_lwe_bytes_params_mismatch_rejected(self, toy_context):
        from repro.params import SMALL_PARAMETERS

        blob = serialization.lwe_to_bytes([toy_context.encrypt(1)])
        with pytest.raises(ValueError, match="parameter"):
            serialization.lwe_from_bytes(blob, SMALL_PARAMETERS)

    def test_lwe_bytes_rejects_corrupt_blobs(self, toy_context):
        blob = serialization.lwe_to_bytes([toy_context.encrypt(1)])
        with pytest.raises(ValueError, match="magic"):
            serialization.lwe_from_bytes(b"XXXX" + blob[4:], TOY_PARAMETERS)
        with pytest.raises(ValueError, match="truncated"):
            serialization.lwe_from_bytes(blob[:6], TOY_PARAMETERS)
        with pytest.raises(ValueError, match="implies"):
            serialization.lwe_from_bytes(blob[:-8], TOY_PARAMETERS)
        with pytest.raises(ValueError, match="implies"):
            serialization.lwe_from_bytes(blob + b"\x00" * 8, TOY_PARAMETERS)
        with pytest.raises(ValueError, match="empty"):
            serialization.lwe_to_bytes([])


class TestEnergyModel:
    @pytest.fixture(scope="class")
    def model(self):
        return EnergyModel(StrixAccelerator())

    def test_workload_energy(self, model):
        assert model.workload_energy_j(2.0) == pytest.approx(2.0 * model.chip_power_w)

    def test_chip_power_from_table_iii(self, model):
        assert model.chip_power_w == pytest.approx(77.14, rel=0.05)
