"""Batched boolean gate combinations.

The batch twin of :class:`repro.tfhe.gates.GateBootstrapper`'s formulas:
every gate is one small integer linear combination of the operand stacks,
exact ``int64`` arithmetic, which one *batched* sign bootstrap then maps
onto ``±q/8`` — for every gate but ``not``, which is its combination.
:meth:`repro.runtime.Session.bootstrap_level` stacks those bootstraps, so a
batch of 64 AND gates costs one pass through the vectorized PBS chain
instead of 64 scalar passes, and gate outputs equal the scalar gate applied
element by element.  :func:`linear_combination` is the one place operand
stacks are summed: gate rows, LUT rows and linear operations.
"""

from __future__ import annotations

from typing import Sequence

from repro.params import TFHEParameters
from repro.tfhe.batch.types import LweBatch

#: Linear combination defining each gate before the sign bootstrap:
#: ``(operand coefficients, offset sign, offset denominator)`` meaning
#: ``sign * (q // denominator) + sum(c_i * operand_i)``.  The constants match
#: the scalar :class:`repro.tfhe.gates.GateBootstrapper` formulas exactly;
#: ``not`` has no offset and is not bootstrapped.
_GATE_COMBINATIONS: dict[str, tuple[tuple[int, ...], int, int]] = {
    "and": ((1, 1), -1, 8),
    "or": ((1, 1), 1, 8),
    "nand": ((-1, -1), 1, 8),
    "nor": ((-1, -1), -1, 8),
    "xor": ((2, 2), 1, 4),
    "xnor": ((-2, -2), -1, 4),
    "andny": ((-1, 1), -1, 8),
    "not": ((-1,), 0, 8),
}

#: Every gate's ``(operands, bootstraps)``: a combination row's operand count
#: and one sign bootstrap (none for ``not``), and ``mux``'s ``and``, ``andny``
#: and ``or``.  The netlist builder, the pricer and ``Session.gate_batch`` read it.
GATES: dict[str, tuple[int, int]] = {
    **{
        gate: (len(coefficients), int(sign != 0))
        for gate, (coefficients, sign, _) in _GATE_COMBINATIONS.items()
    },
    "mux": (3, 3),
}


def linear_combination(
    coefficients: Sequence[int],
    operands: Sequence[LweBatch],
    params: TFHEParameters,
    offset: int = 0,
) -> LweBatch:
    """``offset + sum(c_i * operand_i)`` over operand stacks of one length, row by row."""
    if len(coefficients) != len(operands):
        raise ValueError(f"{len(coefficients)} coefficients for {len(operands)} operand stacks")
    lengths = sorted({len(operand) for operand in operands})
    if len(lengths) > 1:
        raise ValueError(f"operand stacks have mismatched lengths: {lengths}")
    masks = sum(int(c) * operand.masks for c, operand in zip(coefficients, operands))
    bodies = sum(int(c) * operand.bodies for c, operand in zip(coefficients, operands))
    return LweBatch(masks, bodies + offset, params)


def gate_combination(gate: str, operands: Sequence[LweBatch], params: TFHEParameters) -> LweBatch:
    """What ``gate`` bootstraps to its sign, or is for ``not``: its combination row."""
    try:
        coefficients, offset_sign, denominator = _GATE_COMBINATIONS[gate]
    except KeyError:
        raise ValueError(f"unknown gate {gate!r}") from None
    offset = offset_sign * ((params.q // denominator) % params.q)
    return linear_combination(coefficients, operands, params, offset)
