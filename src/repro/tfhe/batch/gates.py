"""Batched boolean gate combinations.

The batch twin of :class:`repro.tfhe.gates.GateBootstrapper`'s formulas:
every gate is one small integer linear combination of the operand stacks,
exact ``int64`` arithmetic, which one *batched* sign bootstrap then maps
onto ``±q/8`` — for every gate but ``not``, which is its combination.
:meth:`repro.runtime.Session.bootstrap_level` stacks those bootstraps, so a
batch of 64 AND gates costs one pass through the vectorized PBS chain
instead of 64 scalar passes, and gate outputs equal the scalar gate applied
element by element.
"""

from __future__ import annotations

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


def gate_combination(
    gate: str, operands: tuple[LweBatch, ...], params: TFHEParameters
) -> LweBatch:
    """What ``gate`` bootstraps to its sign, or is for ``not``: its :data:`_GATE_COMBINATIONS` row."""
    try:
        coefficients, offset_sign, denominator = _GATE_COMBINATIONS[gate]
    except KeyError:
        raise ValueError(f"unknown gate {gate!r}") from None
    if len(operands) != len(coefficients):
        raise ValueError(
            f"gate {gate!r} takes {len(coefficients)} operands, got {len(operands)}"
        )
    masks = sum(c * operand.masks for c, operand in zip(coefficients, operands))
    bodies = sum(c * operand.bodies for c, operand in zip(coefficients, operands))
    offset = offset_sign * ((params.q // denominator) % params.q)
    return LweBatch(masks, bodies + offset, params)
