"""Computational graphs of homomorphic workloads.

A workload is a DAG whose nodes are groups of homomorphic operations:
``PBS`` (programmable bootstraps over a set of ciphertexts), ``KEYSWITCH``,
``PBS_KS`` (the usual fused pair), and ``LINEAR`` (homomorphic additions and
plaintext multiplications, cheap but not free).  Dependencies encode layer
ordering — e.g. a neural network's activation layer depends on the preceding
linear layer — which is what limits how many ciphertexts can be batched into
one blind rotation and therefore drives the fragmentation behaviour the
paper analyzes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.params import TFHEParameters


class NodeKind(enum.Enum):
    """Kind of work a graph node represents."""

    PBS = "pbs"
    KEYSWITCH = "keyswitch"
    PBS_KS = "pbs+ks"
    LINEAR = "linear"


@dataclass
class ComputationNode:
    """One group of identical homomorphic operations.

    Attributes
    ----------
    name:
        Unique node name.
    kind:
        The operation kind.
    ciphertexts:
        Number of independent ciphertexts the node processes (the available
        test-vector level parallelism).
    operations_per_ciphertext:
        For ``LINEAR`` nodes: multiply-accumulate operations per output
        ciphertext (dot-product length); ignored for PBS/KS nodes.
    depends_on:
        Names of nodes that must complete first.
    """

    name: str
    kind: NodeKind
    ciphertexts: int
    operations_per_ciphertext: int = 0
    depends_on: list[str] = field(default_factory=list)

    def pbs_count(self) -> int:
        """Number of programmable bootstraps the node performs."""
        if self.kind in (NodeKind.PBS, NodeKind.PBS_KS):
            return self.ciphertexts
        return 0


class ScheduleProgram(NamedTuple):
    """A workload as the op list :class:`~repro.sim.scheduler.StrixScheduler` books.

    ``ops[i]`` is ``(kind, ciphertexts, operations_per_ciphertext,
    depends_on)`` of the node named ``names[i]``: its :class:`NodeKind`
    value, and the positions in ``ops`` of its dependencies — all earlier,
    the ops are in topological order.
    """

    name: str
    params: TFHEParameters
    names: list[str]
    ops: list[tuple[str, int, int, tuple[int, ...]]]

    def compile(self) -> "ScheduleProgram":
        """Already lowered (a :class:`ComputationGraph` compiles to this)."""
        return self


class ComputationGraph:
    """A DAG of :class:`ComputationNode` with topological iteration."""

    def __init__(self, params: TFHEParameters, name: str = "workload"):
        self.params = params
        self.name = name
        self._nodes: dict[str, ComputationNode] = {}

    # -- construction ------------------------------------------------------------

    def add_node(self, node: ComputationNode) -> ComputationNode:
        """Add a node, validating name uniqueness and dependency existence."""
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        for dependency in node.depends_on:
            if dependency not in self._nodes:
                raise ValueError(f"node {node.name!r} depends on unknown node {dependency!r}")
        self._nodes[node.name] = node
        return node

    def add_pbs_layer(
        self, name: str, ciphertexts: int, depends_on: list[str] | None = None
    ) -> ComputationNode:
        """Convenience: add a fused PBS+keyswitch node."""
        return self.add_node(
            ComputationNode(
                name=name,
                kind=NodeKind.PBS_KS,
                ciphertexts=ciphertexts,
                depends_on=list(depends_on or []),
            )
        )

    def add_linear_layer(
        self,
        name: str,
        ciphertexts: int,
        operations_per_ciphertext: int,
        depends_on: list[str] | None = None,
    ) -> ComputationNode:
        """Convenience: add a linear (add / plaintext-multiply) node."""
        return self.add_node(
            ComputationNode(
                name=name,
                kind=NodeKind.LINEAR,
                ciphertexts=ciphertexts,
                operations_per_ciphertext=operations_per_ciphertext,
                depends_on=list(depends_on or []),
            )
        )

    # -- inspection --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self):
        return iter(self._nodes.values())

    def node(self, name: str) -> ComputationNode:
        """Look up a node by name."""
        return self._nodes[name]

    @property
    def nodes(self) -> list[ComputationNode]:
        """All nodes in insertion order."""
        return list(self._nodes.values())

    def with_params(self, params: TFHEParameters) -> "ComputationGraph":
        """Rebind the graph to another parameter set (structure unchanged)."""
        clone = ComputationGraph(params, name=self.name)
        for node in self._nodes.values():
            clone.add_node(
                ComputationNode(
                    name=node.name,
                    kind=node.kind,
                    ciphertexts=node.ciphertexts,
                    operations_per_ciphertext=node.operations_per_ciphertext,
                    depends_on=list(node.depends_on),
                )
            )
        return clone

    def topological_order(self) -> list[ComputationNode]:
        """Nodes in an order where every dependency precedes its dependents.

        The dependency :meth:`levels` one after the other, so nodes of one
        level keep their insertion order.
        """
        return [node for level in self.levels() for node in level]

    def compile(self) -> ScheduleProgram:
        """The graph as the scheduler's op list, in :meth:`topological_order`."""
        order = self.topological_order()
        position = {node.name: index for index, node in enumerate(order)}
        ops = []
        for node in order:
            kind, operations = node.kind.value, node.operations_per_ciphertext
            dependencies = tuple(position[name] for name in node.depends_on)
            ops.append((kind, node.ciphertexts, operations, dependencies))
        return ScheduleProgram(self.name, self.params, [node.name for node in order], ops)

    def total_pbs(self) -> int:
        """Total programmable bootstraps across the graph."""
        return sum(node.pbs_count() for node in self._nodes.values())

    def total_linear_operations(self) -> int:
        """Total linear multiply-accumulate operations across the graph."""
        return sum(
            node.ciphertexts * node.operations_per_ciphertext
            for node in self._nodes.values()
            if node.kind is NodeKind.LINEAR
        )

    def levels(self) -> list[list[ComputationNode]]:
        """Group nodes into dependency levels (all of a level can run together).

        Kahn's algorithm, linear in nodes plus dependencies: a node's level
        is one more than that of the last dependency to resolve, and the
        queue resolves levels in order.  Each level lists its nodes in
        insertion order.  A dependency that is not a node of the graph can
        never resolve, so it is reported like a cycle.
        """
        nodes = self._nodes
        dependents: dict[str, list[str]] = {name: [] for name in nodes}
        unresolved: dict[str, int] = {}
        level_of: dict[str, int] = {}
        for name, node in nodes.items():
            # A dependency listed twice is counted twice and released twice.
            unresolved[name] = len(node.depends_on)
            if not node.depends_on:
                level_of[name] = 0
            for dependency in node.depends_on:
                if dependency in dependents:
                    dependents[dependency].append(name)
        queue = list(level_of)
        for name in queue:  # grows while it is walked
            for dependent in dependents[name]:
                unresolved[dependent] -= 1
                if not unresolved[dependent]:
                    level_of[dependent] = level_of[name] + 1
                    queue.append(dependent)
        if len(queue) != len(nodes):
            raise ValueError("computation graph contains a dependency cycle")
        depth = level_of[queue[-1]] + 1 if queue else 0
        grouped: list[list[ComputationNode]] = [[] for _ in range(depth)]
        for name, node in nodes.items():
            grouped[level_of[name]].append(node)
        return grouped
