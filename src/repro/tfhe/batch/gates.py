"""Batched boolean gate bootstrapping.

The batch twin of :class:`repro.tfhe.gates.GateBootstrapper`: every gate is
one small integer linear combination of the operand stacks followed by one
*batched* sign bootstrap, so a batch of 64 AND gates costs one pass through
the vectorized PBS chain instead of 64 scalar passes.  The linear
combinations are exact ``int64`` arithmetic and the sign bootstrap is the
bit-for-bit honest :func:`repro.tfhe.batch.kernels.batch_bootstrap_to_sign`,
so gate outputs equal the scalar gate applied element by element.
"""

from __future__ import annotations

from repro.params import TFHEParameters
from repro.tfhe.batch.kernels import batch_bootstrap_to_sign
from repro.tfhe.batch.types import LweBatch
from repro.tfhe.keys import BootstrappingKey, KeySwitchingKey

#: Linear combination defining each two-input gate before the sign bootstrap:
#: ``(operand coefficients, offset sign, offset denominator)`` meaning
#: ``sign * (q // denominator) + sum(c_i * operand_i)``.  The constants match
#: the scalar :class:`repro.tfhe.gates.GateBootstrapper` formulas exactly.
_GATE_COMBINATIONS: dict[str, tuple[tuple[int, ...], int, int]] = {
    "and": ((1, 1), -1, 8),
    "or": ((1, 1), 1, 8),
    "nand": ((-1, -1), 1, 8),
    "nor": ((-1, -1), -1, 8),
    "xor": ((2, 2), 1, 4),
    "xnor": ((-2, -2), -1, 4),
    "andny": ((-1, 1), -1, 8),
}


def batch_gate(
    gate: str,
    operands: tuple[LweBatch, ...],
    bootstrapping_key: BootstrappingKey | None,
    keyswitching_key: KeySwitchingKey | None,
    params: TFHEParameters,
) -> LweBatch:
    """Evaluate ``gate`` element-wise across aligned operand batches.

    ``operands`` holds one :class:`LweBatch` per gate input (1 for ``not``,
    2 for the binary gates), all of the same length.  Returns the batch of
    gate outputs, freshly bootstrapped for every gate except ``not`` (the
    one gate that reads neither key, so both may be ``None`` for it).  A
    ``mux`` is two stacks of gate rows: see :meth:`repro.runtime.Session.gate_batch`.
    """
    sizes = {len(operand) for operand in operands}
    if len(sizes) > 1:
        raise ValueError(f"gate operand batches have mixed sizes: {sorted(sizes)}")
    if gate == "not":
        (operand,) = operands
        return LweBatch(-operand.masks, -operand.bodies, params)
    return batch_bootstrap_to_sign(
        gate_combination(gate, operands, params), bootstrapping_key, params, keyswitching_key
    ).ciphertexts


def gate_combination(gate: str, operands: tuple[LweBatch, ...], params: TFHEParameters) -> LweBatch:
    """What a two-input ``gate`` bootstraps to its sign: its :data:`_GATE_COMBINATIONS` row."""
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
