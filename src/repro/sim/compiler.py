"""Netlist-to-workload compiler.

The paper frames every TFHE application as "a series of sequential PBS and
keyswitching operations" (Section IV-C).  This module provides the small
front end that turns a program description into such a series: a *netlist*
of homomorphic operations (gates, LUT applications, linear combinations) on
named wires is levelized into a :class:`~repro.sim.graph.ComputationGraph`,
grouping every level's bootstraps into one batched node — exactly the
batching opportunity Strix's epoch scheduler exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.params import TFHEParameters
from repro.sim.graph import ComputationGraph
from repro.tfhe.gates import GateBootstrapper


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
        For LUT operations: the univariate function the PBS evaluates.  Only
        needed for *functional* execution (the reference backend); the
        simulator and the analytical models cost every LUT as one PBS
        regardless.
    coefficients:
        For linear operations: plaintext coefficients of the combination,
        one per input wire.  Defaults to all ones (a plain homomorphic sum)
        when functional execution is requested without them.
    """

    kind: str
    output: str
    inputs: tuple[str, ...]
    name: str = ""
    cost: int = 1
    function: Callable[[int], int] | None = None
    coefficients: tuple[int, ...] | None = None


class Netlist:
    """A DAG of homomorphic operations over named wires."""

    def __init__(self, params: TFHEParameters, name: str = "netlist"):
        self.params = params
        self.name = name
        self._operations: list[Operation] = []
        self._producers: dict[str, Operation] = {}
        self._primary_inputs: set[str] = set()

    # -- construction ------------------------------------------------------------

    def add_input(self, wire: str) -> str:
        """Declare a primary input wire."""
        if wire in self._producers or wire in self._primary_inputs:
            raise ValueError(f"wire {wire!r} is already defined")
        self._primary_inputs.add(wire)
        return wire

    def add_gate(self, gate: str, output: str, *inputs: str) -> str:
        """Add a boolean gate (costed from :data:`GateBootstrapper.PBS_COST`)."""
        if gate not in GateBootstrapper.PBS_COST:
            raise ValueError(
                f"unknown gate {gate!r}; known gates: {sorted(GateBootstrapper.PBS_COST)}"
            )
        return self._add(Operation("gate", output, tuple(inputs), name=gate))

    def add_lut(
        self, output: str, *inputs: str, function: Callable[[int], int] | None = None
    ) -> str:
        """Add a programmable LUT application (one PBS).

        ``function`` is optional and only consumed by functional execution
        (the runtime's reference backend); when omitted there, the LUT
        defaults to the identity (a noise-refreshing bootstrap).  Multiple
        inputs are summed homomorphically before the PBS.
        """
        return self._add(Operation("lut", output, tuple(inputs), name="lut", function=function))

    def add_linear(
        self,
        output: str,
        inputs: tuple[str, ...],
        cost: int = 1,
        coefficients: tuple[int, ...] | None = None,
    ) -> str:
        """Add a linear combination (adds / plaintext multiplies).

        ``coefficients`` (one per input wire) are only needed for functional
        execution; the performance models use ``cost`` alone.
        """
        if coefficients is not None and len(coefficients) != len(inputs):
            raise ValueError(f"expected {len(inputs)} coefficients, got {len(coefficients)}")
        return self._add(
            Operation(
                "linear",
                output,
                tuple(inputs),
                name="linear",
                cost=cost,
                coefficients=tuple(coefficients) if coefficients is not None else None,
            )
        )

    def _add(self, operation: Operation) -> str:
        if operation.output in self._producers or operation.output in self._primary_inputs:
            raise ValueError(f"wire {operation.output!r} is already defined")
        for wire in operation.inputs:
            if wire not in self._producers and wire not in self._primary_inputs:
                raise ValueError(f"operation consumes undefined wire {wire!r}")
        self._operations.append(operation)
        self._producers[operation.output] = operation
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
        clone._producers = dict(self._producers)
        return clone

    def pbs_count(self) -> int:
        """Total programmable bootstraps of the netlist."""
        total = 0
        for operation in self._operations:
            if operation.kind == "gate":
                total += GateBootstrapper.PBS_COST[operation.name]
            elif operation.kind == "lut":
                total += 1
        return total

    def levelize(self) -> list[list[Operation]]:
        """Group operations into dependency levels (ASAP scheduling)."""
        level_of_wire: dict[str, int] = {wire: 0 for wire in self._primary_inputs}
        levels: list[list[Operation]] = []
        for operation in self._operations:
            input_levels = [level_of_wire[wire] for wire in operation.inputs]
            level = max(input_levels, default=0)
            # A bootstrapping operation occupies a level of its own; linear
            # operations stay on their input level (they are cheap and do not
            # gate batching).
            if operation.kind in ("gate", "lut") and (
                operation.kind != "gate" or GateBootstrapper.PBS_COST[operation.name] > 0
            ):
                level += 1
            while len(levels) <= level:
                levels.append([])
            levels[level].append(operation)
            level_of_wire[operation.output] = level
        return [group for group in levels if group]


def compile_netlist(netlist: Netlist, instances: int = 1) -> ComputationGraph:
    """Compile a netlist into a computation graph for the simulator.

    ``instances`` replicates the netlist over independent inputs (e.g. the
    same circuit applied to many records), which multiplies every level's
    batchable ciphertext count.
    """
    if instances < 1:
        raise ValueError("instances must be at least 1")
    graph = ComputationGraph(netlist.params, name=f"{netlist.name}-x{instances}")
    previous: str | None = None
    for index, level in enumerate(netlist.levelize()):
        pbs = 0
        linear_ops = 0
        for operation in level:
            if operation.kind == "gate":
                pbs += GateBootstrapper.PBS_COST[operation.name]
            elif operation.kind == "lut":
                pbs += 1
            else:
                linear_ops += operation.cost
        depends = [previous] if previous else []
        if pbs:
            node_name = f"level{index}_pbs"
            graph.add_pbs_layer(node_name, pbs * instances, depends_on=depends)
            previous = node_name
        if linear_ops:
            node_name = f"level{index}_linear"
            graph.add_linear_layer(node_name, instances, linear_ops, depends_on=depends)
            if not pbs:
                previous = node_name
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
