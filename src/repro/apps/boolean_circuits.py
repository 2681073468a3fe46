"""Boolean circuits built from the homomorphic gate set.

TFHE's gate bootstrapping makes arbitrary boolean circuits possible; the
paper motivates this generality (encrypted CPUs, relational operators).
Each circuit is defined once, as a :class:`~repro.sim.compiler.Netlist`
builder over little-endian operand wires ``a0, a1, ...`` and ``b0, b1, ...``:
:func:`~repro.sim.compiler.full_adder_netlist` (the ripple-carry adder),
:func:`equals_netlist` and :func:`greater_than_netlist`.  The reference
backend executes them (``run(netlist, backend="reference", inputs=...)``)
and :func:`~repro.sim.compiler.compile_netlist` prices them for the
simulator, ``instances`` copies batched level by level.
"""

from __future__ import annotations

from repro.params import TFHEParameters
from repro.sim.compiler import Netlist


def _operands(netlist: Netlist, bits: int) -> list[tuple[str, str]]:
    """Declare the ``a{i}`` / ``b{i}`` input wires, least significant bit first."""
    return [(netlist.add_input(f"a{bit}"), netlist.add_input(f"b{bit}")) for bit in range(bits)]


def equals_netlist(params: TFHEParameters, bits: int) -> Netlist:
    """``a == b``: one XNOR per bit, AND-ed together (``2 * bits - 1`` gates)."""
    netlist = Netlist(params, name=f"equals{bits}")
    result = None
    for bit, (a, b) in enumerate(_operands(netlist, bits)):
        equal = netlist.add_gate("xnor", f"eq{bit}", a, b)
        result = equal if result is None else netlist.add_gate("and", f"all{bit}", result, equal)
    return netlist


def greater_than_netlist(params: TFHEParameters, bits: int) -> Netlist:
    """``a > b`` (unsigned), four gates per bit.

    From the least significant bit up, ``gt = (a AND NOT b) OR (gt AND (a XNOR
    b))``, so the highest differing bit decides.  The initial ``gt`` is the
    input wire ``gt_in``, which callers leave at the backend's default
    ``False`` (``True`` turns the circuit into ``a >= b``).
    """
    netlist = Netlist(params, name=f"greater_than{bits}")
    result = netlist.add_input("gt_in")
    for bit, (a, b) in enumerate(_operands(netlist, bits)):
        above = netlist.add_gate("andny", f"above{bit}", b, a)
        equal = netlist.add_gate("xnor", f"eq{bit}", a, b)
        kept = netlist.add_gate("and", f"kept{bit}", result, equal)
        result = netlist.add_gate("or", f"gt{bit}", above, kept)
    return netlist

