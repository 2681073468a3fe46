"""Homomorphic decision-tree inference.

The paper motivates TFHE with workloads that CKKS handles poorly:
comparisons, branches and look-ups — the building blocks of tree-based
machine-learning models (its reference [41], "Privacy-preserving tree-based
inference with fully homomorphic encryption").  :func:`tree_netlist` turns a
plaintext decision tree into a :class:`~repro.sim.compiler.Netlist` that the
reference backend executes on encrypted features:

* every internal node compares an encrypted feature against a plaintext
  threshold with one programmable bootstrap (a threshold LUT);
* the comparison bit selects between the two subtree results with a
  two-PBS multiplexer (the selector bit is packed into the upper half of the
  message space and a LUT gates each branch), so the decision path never
  leaks.

The client encrypts its features; the server knows the tree in the clear and
learns neither the features nor the decision path.  Leaf labels are binary
(the usual binary-classification setting), which lets every intermediate
value fit in the 2-bit message space of the evaluation parameter sets.
:func:`forest_netlist` puts several trees over the same feature wires and
sums their votes into one encrypted ``score``, so one reference run scores a
forest and ``compile_netlist(forest_netlist(trees, params), samples)`` prices
the same forest for the simulator and the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.params import TFHEParameters
from repro.sim.compiler import Netlist
from repro.tfhe.lut import threshold_lut


@dataclass
class DecisionNode:
    """One internal node: go right when ``feature >= threshold``."""

    feature: int
    threshold: int
    left: "DecisionNode | Leaf"
    right: "DecisionNode | Leaf"


@dataclass
class Leaf:
    """A leaf holding the predicted class label (0 or 1)."""

    label: int


@dataclass
class DecisionTree:
    """A plaintext decision tree over integer features in ``[0, p)``."""

    root: DecisionNode | Leaf
    num_features: int

    def predict(self, features: list[int]) -> int:
        """Plaintext inference (reference for the homomorphic evaluator)."""
        node = self.root
        while isinstance(node, DecisionNode):
            node = node.right if features[node.feature] >= node.threshold else node.left
        return node.label

    def depth(self) -> int:
        """Tree depth (a bare leaf has depth 0)."""

        def _depth(node) -> int:
            if isinstance(node, Leaf):
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self.root)

    @classmethod
    def random(
        cls, depth: int, num_features: int, params: TFHEParameters, seed: int = 0
    ) -> "DecisionTree":
        """Generate a random complete tree of the given depth."""
        rng = np.random.default_rng(seed)
        p = params.message_modulus

        def _build(level: int):
            if level == 0:
                return Leaf(int(rng.integers(0, 2)))
            return DecisionNode(
                feature=int(rng.integers(0, num_features)),
                threshold=int(rng.integers(1, p)),
                left=_build(level - 1),
                right=_build(level - 1),
            )

        return cls(root=_build(depth), num_features=num_features)


def tree_netlist(tree: DecisionTree, params: TFHEParameters) -> Netlist:
    """The tree as a netlist over the feature wires ``x0, x1, ...``.

    The prediction is wire ``label``.  Every internal node costs three PBS:
    the threshold comparison, then one gating LUT per branch, which keeps the
    branch when the comparison bit selects it and zeroes it otherwise.  A
    subtree's 0/1 result is packed beside the bit as ``2 * bit + branch``
    before its gate; a leaf's constant folds into the gate's function of the
    bit alone.  The two gated branches sum to the node's result.
    """
    netlist = Netlist(params, name=f"tree-d{tree.depth()}")
    features = [netlist.add_input(f"x{index}") for index in range(tree.num_features)]
    _grow(netlist, tree, features, prefix="")
    return netlist


def forest_netlist(trees: list[DecisionTree], params: TFHEParameters) -> Netlist:
    """The forest's vote count as a netlist over shared feature wires ``x0, x1, ...``.

    Tree ``i`` is :func:`tree_netlist`'s with its wires prefixed ``t{i}_``; one
    ``linear`` sum of the labels is the output ``score``, a single message, so
    more than ``p - 1`` binary votes are refused rather than given a carry chain.
    """
    if not trees:
        raise ValueError("a forest needs at least one tree")
    p = params.message_modulus
    if len(trees) > p - 1:
        raise ValueError(
            f"{len(trees)} binary votes can sum to {len(trees)}, past the message "
            f"modulus p = {p}: a forest's score holds at most p - 1 = {p - 1} votes"
        )
    depth = max(tree.depth() for tree in trees)
    netlist = Netlist(params, name=f"forest-{len(trees)}x-d{depth}")
    num_features = max(tree.num_features for tree in trees)
    features = [netlist.add_input(f"x{index}") for index in range(num_features)]
    labels = tuple(
        _grow(netlist, tree, features, prefix=f"t{index}_") for index, tree in enumerate(trees)
    )
    netlist.add_linear("score", labels)
    return netlist


def _grow(netlist: Netlist, tree: DecisionTree, features: list[str], prefix: str) -> str:
    """Add ``tree`` over ``features`` to ``netlist``, its wires prefixed; return its label."""
    params = netlist.params
    if params.message_modulus < 4:
        raise ValueError("tree evaluation needs a message modulus of at least 4")
    if isinstance(tree.root, Leaf):
        raise ValueError("a bare leaf is a constant; there is nothing to evaluate")

    def gate(bit: str, branch: DecisionNode | Leaf, taken: int, path: str) -> str:
        """``branch`` when the comparison ``bit`` equals ``taken``, else 0 (one PBS)."""
        name = f"{prefix}{'right' if taken else 'left'}{path}"
        if isinstance(branch, Leaf):
            label = branch.label
            return netlist.add_lut(name, bit, function=lambda b: label if b == taken else 0)
        subtree = evaluate(branch, path + str(taken))
        packed = netlist.add_linear(f"{name}_packed", (bit, subtree), coefficients=(2, 1))
        return netlist.add_lut(name, packed, function=lambda s: s % 2 if s // 2 == taken else 0)

    def evaluate(node: DecisionNode, path: str) -> str:
        bit = netlist.add_lut(
            f"{prefix}bit{path}",
            features[node.feature],
            function=threshold_lut(node.threshold, params),
        )
        branches = (gate(bit, node.right, 1, path), gate(bit, node.left, 0, path))
        return netlist.add_linear(f"{prefix}node{path}" if path else f"{prefix}label", branches)

    return evaluate(tree.root, "")
