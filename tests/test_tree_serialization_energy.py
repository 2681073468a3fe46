"""Tests for tree inference, serialization and the energy model."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.tree_inference import (
    DecisionNode,
    DecisionTree,
    HomomorphicTreeEvaluator,
    Leaf,
    tree_inference_graph,
)
from repro.arch.accelerator import StrixAccelerator
from repro.arch.energy import EnergyModel
from repro.params import PARAM_SET_I, TOY_PARAMETERS
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
        assert tree.internal_nodes() == 3

    def test_random_tree_is_complete(self):
        tree = DecisionTree.random(depth=3, num_features=4, params=TOY_PARAMETERS, seed=1)
        assert tree.depth() == 3
        assert tree.internal_nodes() == 7

    def test_homomorphic_inference_matches_plaintext(self, toy_context):
        tree = self._xor_like_tree()
        evaluator = HomomorphicTreeEvaluator(toy_context, tree)
        for features in itertools.product([0, 1, 2, 3], repeat=2):
            assert evaluator.infer(list(features)) == tree.predict(list(features)), features

    def test_random_tree_homomorphic_inference(self, toy_context):
        tree = DecisionTree.random(depth=2, num_features=3, params=TOY_PARAMETERS, seed=4)
        evaluator = HomomorphicTreeEvaluator(toy_context, tree)
        rng = np.random.default_rng(0)
        for _ in range(4):
            features = [int(value) for value in rng.integers(0, 4, size=3)]
            assert evaluator.infer(features) == tree.predict(features)

    def test_pbs_count(self, toy_context):
        tree = self._xor_like_tree()
        evaluator = HomomorphicTreeEvaluator(toy_context, tree)
        assert evaluator.pbs_count() == 3 * tree.internal_nodes()

    def test_feature_count_validated(self, toy_context):
        evaluator = HomomorphicTreeEvaluator(toy_context, self._xor_like_tree())
        with pytest.raises(ValueError):
            evaluator.evaluate([toy_context.encrypt(0)])

    def test_forest_graph(self):
        graph = tree_inference_graph(PARAM_SET_I, depth=3, trees=10, samples=100)
        # comparisons: (1 + 2 + 4) * 1000; selections: 2 * (4 + 2 + 1) * 1000
        assert graph.total_pbs() == 7 * 1000 + 14 * 1000
        assert len(graph.levels()) == 6

    def test_forest_graph_validation(self):
        with pytest.raises(ValueError):
            tree_inference_graph(PARAM_SET_I, depth=0, trees=1, samples=1)


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
        restored = serialization.lwe_from_bytes(
            serialization.lwe_to_bytes(batch), TOY_PARAMETERS
        )
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
