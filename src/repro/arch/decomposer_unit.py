"""Bit-exact model of the streaming decomposer unit (Section V-B, Fig. 6).

The Strix decomposer turns a stream of torus coefficients into ``lb`` signed
digits per coefficient using only masking, shifting and addition — no
multipliers or dividers.  The paper splits the datapath into two steps:

* a **rounding step** that keeps the ``lb * log2(B)`` most significant bits
  of the coefficient with carry-correct rounding (mask the kept bits, add the
  rounding carry extracted from the dropped bits);
* an **extraction step** that walks the rounded value from the least
  significant digit upwards, extracting ``log2(B)`` bits at a time with a
  precomputed mask, re-centering each digit into ``[-B/2, B/2)`` and
  forwarding the +1 carry to the next digit as a plain addition.

This module implements exactly that bit-level datapath (one lane); it is
verified against the reference :func:`repro.tfhe.decomposition.decompose` —
i.e. it demonstrates the paper's claim that the decomposition can be built
from mask/shift/add alone.  The unit's lane count and throughput live in the
timing model, :class:`repro.arch.functional_units.DecomposerUnit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.params import TFHEParameters
from repro.tfhe.decomposition import decompose


@dataclass(frozen=True)
class DecomposerLaneConfig:
    """Precomputed constants of one decomposer lane.

    Everything the hardware needs is derived once from the TFHE parameters:
    bit masks for the rounding and extraction steps, the shift amounts, and
    the sign-threshold constant used to re-center digits.
    """

    q_bits: int
    levels: int
    log2_base: int

    @property
    def kept_bits(self) -> int:
        """Bits kept by the rounding step."""
        return self.levels * self.log2_base

    @property
    def dropped_bits(self) -> int:
        """Low-order bits discarded (with rounding) by the rounding step."""
        return self.q_bits - self.kept_bits

    @property
    def keep_mask(self) -> int:
        """Mask selecting the kept most-significant bits."""
        return ((1 << self.kept_bits) - 1) << self.dropped_bits

    @property
    def round_bit_mask(self) -> int:
        """Mask selecting the highest dropped bit (the rounding carry)."""
        if self.dropped_bits == 0:
            return 0
        return 1 << (self.dropped_bits - 1)

    @property
    def digit_mask(self) -> int:
        """Mask selecting one ``log2(B)``-bit digit."""
        return (1 << self.log2_base) - 1

    @property
    def half_base(self) -> int:
        """The re-centering threshold ``B / 2``."""
        return 1 << (self.log2_base - 1)


class StreamingDecomposerLane:
    """One lane of the decomposer: coefficients in, ``lb`` digits out.

    The implementation deliberately uses only the operations available to the
    hardware datapath of Fig. 6: bitwise AND with precomputed masks, logical
    shifts, and additions.
    """

    def __init__(self, params: TFHEParameters, keyswitch: bool = False):
        levels = params.lk if keyswitch else params.lb
        log2_base = params.log2_base_ks if keyswitch else params.log2_base_pbs
        if levels * log2_base > params.q_bits:
            raise ValueError("decomposition keeps more bits than the torus width")
        self.config = DecomposerLaneConfig(
            q_bits=params.q_bits, levels=levels, log2_base=log2_base
        )

    # -- the two hardware steps ------------------------------------------------

    def rounding_step(self, coefficient: int) -> int:
        """Keep the top ``lb*log2(B)`` bits with carry-correct rounding.

        Returns the rounded value right-aligned (an integer in
        ``[0, B^lb]``); a carry out of the top bit corresponds to wrapping to
        zero modulo ``B^lb`` and is handled by the extraction step's natural
        overflow behaviour.
        """
        cfg = self.config
        kept = coefficient & cfg.keep_mask
        round_carry = 1 if (coefficient & cfg.round_bit_mask) else 0
        return (kept >> cfg.dropped_bits) + round_carry

    def extraction_step(self, rounded: int) -> list[int]:
        """Extract ``lb`` signed digits from the rounded value.

        Works from the least significant digit upwards; each digit above
        ``B/2`` is re-centered by subtracting ``B`` and forwarding a +1 carry
        to the next digit — additions and masks only.
        """
        cfg = self.config
        digits_lsb_first: list[int] = []
        remaining = rounded
        carry = 0
        for _ in range(cfg.levels):
            raw = (remaining & cfg.digit_mask) + carry
            remaining >>= cfg.log2_base
            if raw >= cfg.half_base:
                digit = raw - (1 << cfg.log2_base)
                carry = 1
            else:
                digit = raw
                carry = 0
            digits_lsb_first.append(digit)
        # Level 1 (most significant, multiplying q/B) comes out last.
        return digits_lsb_first[::-1]

    def decompose_coefficient(self, coefficient: int) -> list[int]:
        """Full lane operation: rounding followed by extraction."""
        return self.extraction_step(self.rounding_step(int(coefficient)))

    def decompose_polynomial(self, coefficients: np.ndarray) -> np.ndarray:
        """Decompose every coefficient of a polynomial (shape ``(lb, N)``)."""
        coefficients = np.asarray(coefficients, dtype=np.int64)
        output = np.empty((self.config.levels, coefficients.shape[0]), dtype=np.int64)
        for index, coefficient in enumerate(coefficients):
            output[:, index] = self.decompose_coefficient(int(coefficient))
        return output

    def matches_reference(self, coefficients: np.ndarray) -> bool:
        """Check bit-exact agreement with the reference decomposition."""
        cfg = self.config
        reference = decompose(
            np.asarray(coefficients, dtype=np.int64), cfg.levels, cfg.log2_base, cfg.q_bits
        )
        return bool(np.array_equal(self.decompose_polynomial(coefficients), reference))
