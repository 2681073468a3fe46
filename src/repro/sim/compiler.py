"""Netlist-to-workload compiler.

The paper frames every TFHE application as "a series of sequential PBS and
keyswitching operations" (Section IV-C).  This module provides the small
front end that turns a program description into such a series: a *netlist*
of homomorphic operations (gates, LUT applications, linear combinations) on
named wires is levelized into a :class:`~repro.sim.graph.ComputationGraph`,
grouping every level's bootstraps into one batched node — exactly the
batching opportunity Strix's epoch scheduler exploits.  It is the only
pricer of an application: the netlist the reference backend decrypts is
the one :func:`compile_netlist` prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.params import TFHEParameters
from repro.sim.graph import ComputationGraph
from repro.tfhe.batch.gates import GATES


@dataclass(frozen=True)
class Operation:
    """One homomorphic operation in a netlist.

    Attributes
    ----------
    kind:
        ``"gate"`` (one PBS unless it is a free NOT), ``"lut"`` (one PBS) or
        ``"linear"`` (no PBS; ``cost`` multiply-accumulates).
    output:
        Name of the wire the operation produces.
    inputs:
        Names of the wires it consumes.
    name:
        For gates: the gate name (``"and"``, ``"xor"``, ``"mux"``, ...).
    cost:
        For linear operations: multiply-accumulate count.
    function:
        For LUT operations: the univariate function the PBS evaluates (the
        identity unless :meth:`Netlist.add_lut` is given one).  Only
        *functional* execution (the reference backend) reads it; the
        simulator and the analytical models cost every LUT as one PBS
        regardless.
    coefficients:
        For linear operations: plaintext coefficients of the combination,
        one per input wire (all ones, a plain homomorphic sum, unless
        :meth:`Netlist.add_linear` is given them).
    """

    kind: str
    output: str
    inputs: tuple[str, ...]
    name: str = ""
    cost: int = 1
    function: Callable[[int], int] | None = None
    coefficients: tuple[int, ...] | None = None

    @property
    def bootstraps(self) -> int:
        """PBS the operation costs: a gate's :data:`~repro.tfhe.batch.GATES` row, one per LUT."""
        if self.kind == "gate":
            return GATES[self.name][1]
        return int(self.kind == "lut")


class Netlist:
    """A DAG of homomorphic operations over named wires."""

    def __init__(self, params: TFHEParameters, name: str = "netlist"):
        self.params = params
        self.name = name
        self._operations: list[Operation] = []
        self._wires: set[str] = set()  # every defined wire, input or output
        self._primary_inputs: set[str] = set()

    # -- construction ------------------------------------------------------------

    def add_input(self, wire: str) -> str:
        """Declare a primary input wire."""
        if wire in self._wires:
            raise ValueError(f"wire {wire!r} is already defined")
        self._wires.add(wire)
        self._primary_inputs.add(wire)
        return wire

    def add_gate(self, gate: str, output: str, *inputs: str) -> str:
        """Add a boolean gate (shaped and costed by :data:`~repro.tfhe.batch.GATES`)."""
        if gate not in GATES:
            raise ValueError(f"unknown gate {gate!r}; known gates: {sorted(GATES)}")
        arity = GATES[gate][0]
        if len(inputs) != arity:
            raise ValueError(f"gate {gate!r} takes {arity} input(s), got {len(inputs)}")
        return self._add(Operation("gate", output, tuple(inputs), name=gate))

    def add_lut(
        self, output: str, *inputs: str, function: Callable[[int], int] | None = None
    ) -> str:
        """Add a programmable LUT application (one PBS).

        ``function`` is optional and only consumed by functional execution
        (the runtime's reference backend); when omitted, the LUT is the
        identity (a noise-refreshing bootstrap).  Multiple inputs are summed
        homomorphically before the PBS.
        """
        function = (lambda m: m) if function is None else function
        return self._add(Operation("lut", output, tuple(inputs), name="lut", function=function))

    def add_linear(
        self,
        output: str,
        inputs: tuple[str, ...],
        cost: int = 1,
        coefficients: tuple[int, ...] | None = None,
    ) -> str:
        """Add a linear combination (adds / plaintext multiplies).

        ``coefficients`` (one per input wire, all ones when omitted) are only
        read by functional execution; the performance models use ``cost`` alone.
        """
        coefficients = (1,) * len(inputs) if coefficients is None else tuple(coefficients)
        if len(coefficients) != len(inputs):
            raise ValueError(f"expected {len(inputs)} coefficients, got {len(coefficients)}")
        return self._add(
            Operation(
                "linear", output, tuple(inputs), name="linear", cost=cost, coefficients=coefficients
            )
        )

    def _add(self, operation: Operation) -> str:
        if not operation.inputs:
            raise ValueError(f"{operation.kind} operation {operation.output!r} has no input wire")
        if operation.output in self._wires:
            raise ValueError(f"wire {operation.output!r} is already defined")
        if not self._wires.issuperset(operation.inputs):
            undefined = next(wire for wire in operation.inputs if wire not in self._wires)
            raise ValueError(f"operation consumes undefined wire {undefined!r}")
        self._operations.append(operation)
        self._wires.add(operation.output)
        return operation.output

    # -- inspection --------------------------------------------------------------

    @property
    def operations(self) -> list[Operation]:
        """All operations in insertion order."""
        return list(self._operations)

    @property
    def primary_inputs(self) -> set[str]:
        """Declared primary input wires."""
        return set(self._primary_inputs)

    def output_wires(self) -> list[str]:
        """Wires produced but never consumed (the netlist's outputs)."""
        consumed = {wire for operation in self._operations for wire in operation.inputs}
        return [
            operation.output
            for operation in self._operations
            if operation.output not in consumed
        ]

    def with_params(self, params: TFHEParameters) -> "Netlist":
        """Rebind the netlist to another parameter set (structure unchanged).

        Operations carry no parameter-dependent state, so the same circuit
        can be costed (or executed) under any parameter set — e.g. built once
        on TOY parameters for functional testing and simulated under set I.
        """
        clone = Netlist(params, name=self.name)
        clone._primary_inputs = set(self._primary_inputs)
        clone._operations = list(self._operations)
        clone._wires = set(self._wires)
        return clone

    def pbs_count(self) -> int:
        """Total programmable bootstraps of the netlist."""
        return sum(operation.bootstraps for operation in self._operations)

    def levelize(self) -> list[list[Operation]]:
        """Group operations into dependency levels (ASAP scheduling)."""
        level_of_wire: dict[str, int] = {wire: 0 for wire in self._primary_inputs}
        levels: list[list[Operation]] = []
        for operation in self._operations:
            level = max(map(level_of_wire.__getitem__, operation.inputs), default=0)
            # A bootstrapping operation occupies a level of its own; linear
            # operations stay on their input level (they are cheap and do not
            # gate batching).
            if operation.bootstraps:
                level += 1
            while len(levels) <= level:
                levels.append([])
            levels[level].append(operation)
            level_of_wire[operation.output] = level
        return [group for group in levels if group]


def compile_netlist(netlist: Netlist, instances: int = 1) -> ComputationGraph:
    """Compile a netlist into a computation graph for the simulator.

    ``instances`` replicates the netlist over independent inputs (e.g. the
    same circuit applied to many records), which multiplies every node's
    batchable ciphertext count.  Each level becomes one PBS node holding the
    level's bootstraps, then the level's linear operations, which consume its
    PBS outputs: one node per ``(depth, cost)`` group, holding the group's
    outputs at their per-output cost, where an operation's depth is how many
    of the level's linear operations are chained before it.  Every node
    depends on the nodes just before it in that order, so the next level's
    PBS node waits for the level's deepest linear nodes.
    """
    if instances < 1:
        raise ValueError("instances must be at least 1")
    graph = ComputationGraph(netlist.params, name=f"{netlist.name}-x{instances}")
    tail: list[str] = []
    for index, level in enumerate(netlist.levelize()):
        pbs = 0
        depth_of: dict[str, int] = {}
        groups: dict[tuple[int, int], int] = {}
        for operation in level:
            if operation.bootstraps:
                pbs += operation.bootstraps
                continue
            # A linear operation sits one deeper than the level's linear
            # operations it consumes; a free NOT passes its input's depth on.
            depth = max(map(depth_of.get, depth_of.keys() & operation.inputs), default=-1)
            if operation.kind == "linear":
                depth += 1
                groups[depth, operation.cost] = groups.get((depth, operation.cost), 0) + 1
            depth_of[operation.output] = depth
        if pbs:
            graph.add_pbs_layer(f"level{index}_pbs", pbs * instances, depends_on=tail)
            tail = [f"level{index}_pbs"]
        for depth in sorted({depth for depth, _ in groups}):
            names = []
            for (group_depth, cost), outputs in groups.items():
                if group_depth == depth:
                    suffix = f"{depth}_cost{cost}" if len(groups) > 1 else ""
                    names.append(f"level{index}_linear{suffix}")
                    graph.add_linear_layer(names[-1], outputs * instances, cost, depends_on=tail)
            tail = names
    return graph


def full_adder_netlist(params: TFHEParameters, bits: int) -> Netlist:
    """Reference netlist: a ``bits``-wide ripple-carry adder."""
    netlist = Netlist(params, name=f"adder{bits}")
    carry = None
    for bit in range(bits):
        a = netlist.add_input(f"a{bit}")
        b = netlist.add_input(f"b{bit}")
        axb = netlist.add_gate("xor", f"axb{bit}", a, b)
        if carry is None:
            carry = netlist.add_gate("and", f"c{bit}", a, b)
        else:
            netlist.add_gate("xor", f"s{bit}", axb, carry)
            overflow_ab = netlist.add_gate("and", f"cab{bit}", a, b)
            overflow_axb = netlist.add_gate("and", f"caxb{bit}", axb, carry)
            carry = netlist.add_gate("or", f"c{bit}", overflow_ab, overflow_axb)
    return netlist
