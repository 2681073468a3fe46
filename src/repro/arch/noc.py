"""Network-on-chip model.

Strix uses two fixed-topology networks (Section IV-B): a one-to-all
**multicast** network distributing the bootstrapping / keyswitching keys from
the global scratchpad to every HSC, and **point-to-point** links between each
core and its private section of the global scratchpad.  Because both
patterns are fixed, the model only needs to check that the multicast bus
widths keep up with the compute datapath and to account the (small)
area/power cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import StrixConfig
from repro.params import TFHEParameters


@dataclass(frozen=True)
class NocLink:
    """One on-chip link: width in bits and words delivered per cycle."""

    name: str
    width_bits: int

    @property
    def bytes_per_cycle(self) -> int:
        """Payload bytes the link moves per clock cycle."""
        return self.width_bits // 8


class MulticastNetwork:
    """Fixed multicast tree distributing key material to all HSCs."""

    #: Bus widths from Section VI-A: 512-bit bsk bus, 256-bit ksk bus.
    BSK_BUS_BITS = 512
    KSK_BUS_BITS = 256

    def __init__(self, config: StrixConfig):
        self.config = config
        self.bsk_link = NocLink("bsk-multicast", self.BSK_BUS_BITS)
        self.ksk_link = NocLink("ksk-multicast", self.KSK_BUS_BITS)

    def bsk_words_per_cycle(self) -> int:
        """Fourier-domain bsk points (8 bytes each) delivered per cycle."""
        return self.bsk_link.bytes_per_cycle // 8

    def can_sustain_pbs(self, params: TFHEParameters, iteration_cycles: int) -> bool:
        """Whether one GGSW fragment can be broadcast within one iteration."""
        points = params.N // 2 if self.config.fft_folding else params.N
        fragment_points = (params.k + 1) * params.lb * (params.k + 1) * points
        cycles_needed = fragment_points / max(self.bsk_words_per_cycle(), 1)
        return cycles_needed <= iteration_cycles


@dataclass(frozen=True)
class NocCost:
    """Area / power footprint of the global NoC (Table III)."""

    area_mm2: float = 0.04
    power_w: float = 0.01
