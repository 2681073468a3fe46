"""Pipelined FFT unit model (Section V-A, Figure 5).

The Strix (I)FFT unit is a feed-forward pipelined FFT: ``log2(points)``
butterfly stages connected by shuffle units with exponentially shrinking
delay lines, fed by ``CLP`` coefficient lanes.  A new polynomial can enter
every ``points / CLP`` cycles and the unit's fill latency is of the same
order, so a continuous stream of polynomials keeps it at ~100 % utilization.

With the folding scheme an ``N``-point negacyclic transform is computed on a
physical ``N/2``-point unit, halving both the initiation interval (for fixed
lane count) and the hardware cost.  What the unit computes is the folded
transform of :mod:`repro.fft`; this class models only its timing and area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.config import StrixConfig


@dataclass(frozen=True)
class FFTStage:
    """One butterfly stage of the pipelined FFT.

    Attributes
    ----------
    index:
        Stage number (0-based, from the input side).
    butterflies:
        Number of butterfly units in the stage (``CLP / 2``).
    shuffle_delay:
        Length ``L`` of the shuffle unit delay lines feeding the *next*
        stage (0 for the final stage).
    uses_sram_delay:
        Whether the delay lines are large enough (``L >= 32``) to be built
        from SRAM rather than flip-flop shift registers.
    """

    index: int
    butterflies: int
    shuffle_delay: int
    uses_sram_delay: bool


class PipelinedFFTUnit:
    """Timing, structure and area model of one pipelined (I)FFT unit.

    Parameters
    ----------
    max_polynomial_degree:
        Largest negacyclic polynomial degree ``N`` the unit must transform.
    clp:
        Number of coefficient lanes.
    folding:
        Whether the folding scheme is applied (physical size ``N/2``).
    """

    #: Area coefficients fitted to the paper's synthesis results (Table VI):
    #: a folded 8192-point, 4-lane unit occupies 1.81 mm^2 and the non-folded
    #: 16384-point unit occupies 3.13 mm^2 in TSMC 28 nm.
    _AREA_PER_BUTTERFLY_STAGE_MM2 = 0.0102
    _AREA_PER_DELAY_ELEMENT_MM2 = 1.561e-4

    #: Energy proxy: per-unit power from Table III (5.49 W for the four
    #: transform units of one core, i.e. ~1.37 W per folded unit).
    _POWER_PER_AREA_W_PER_MM2 = 0.76

    def __init__(self, max_polynomial_degree: int, clp: int, folding: bool = True):
        if max_polynomial_degree < 4 or max_polynomial_degree & (max_polynomial_degree - 1):
            raise ValueError("polynomial degree must be a power of two >= 4")
        if clp < 1 or clp & (clp - 1):
            raise ValueError("clp must be a power of two >= 1")
        self.max_polynomial_degree = max_polynomial_degree
        self.clp = clp
        self.folding = folding
        self.points = max_polynomial_degree // 2 if folding else max_polynomial_degree
        if self.clp > self.points:
            raise ValueError("clp cannot exceed the number of FFT points")

    # -- structure -----------------------------------------------------------

    @property
    def num_stages(self) -> int:
        """Number of butterfly stages: ``log2(points)``."""
        return int(math.log2(self.points))

    @property
    def butterflies_per_stage(self) -> int:
        """Butterfly units per stage (``CLP / 2``, at least one)."""
        return max(self.clp // 2, 1)

    def stages(self) -> list[FFTStage]:
        """Describe every stage with its shuffle-unit delay length."""
        described = []
        for index in range(self.num_stages):
            # The shuffle network between stage `index` and `index+1` reorders
            # groups of size points / 2^(index+1), streamed over CLP lanes.
            remaining = self.points >> (index + 1)
            delay = max(remaining // self.clp, 1) if index < self.num_stages - 1 else 0
            described.append(
                FFTStage(
                    index=index,
                    butterflies=self.butterflies_per_stage,
                    shuffle_delay=delay,
                    uses_sram_delay=delay >= 32,
                )
            )
        return described

    # -- timing ---------------------------------------------------------------

    def initiation_interval(self, polynomial_degree: int | None = None) -> int:
        """Cycles between the start of two consecutive polynomial transforms.

        A polynomial of degree ``N`` streams ``points(N)`` values over
        ``clp`` lanes, so a new polynomial can enter every ``points / clp``
        cycles.
        """
        points = self._points_for(polynomial_degree)
        return max(points // self.clp, 1)

    def latency(self, polynomial_degree: int | None = None) -> int:
        """Fill latency of one transform (paper: ``N / CLP`` for an N-point unit)."""
        return self.initiation_interval(polynomial_degree)

    def _points_for(self, polynomial_degree: int | None) -> int:
        if polynomial_degree is None:
            return self.points
        if polynomial_degree > self.max_polynomial_degree:
            raise ValueError(
                f"polynomial degree {polynomial_degree} exceeds the unit's maximum "
                f"{self.max_polynomial_degree}"
            )
        return polynomial_degree // 2 if self.folding else polynomial_degree

    # -- cost -----------------------------------------------------------------

    @property
    def area_mm2(self) -> float:
        """Estimated area in mm^2 (TSMC 28 nm, fitted to Table VI)."""
        butterfly_area = self._AREA_PER_BUTTERFLY_STAGE_MM2 * self.clp * self.num_stages
        # Delay-line and twiddle-ROM storage together track the point count:
        # the shuffle delays sum to ~points/clp elements replicated over clp
        # lanes and each stage holds a twiddle table slice.
        storage_area = self._AREA_PER_DELAY_ELEMENT_MM2 * self.points
        return butterfly_area + storage_area

    @property
    def power_w(self) -> float:
        """Estimated power in W."""
        return self.area_mm2 * self._POWER_PER_AREA_W_PER_MM2

    @classmethod
    def from_config(cls, config: StrixConfig) -> "PipelinedFFTUnit":
        """Build the FFT unit described by a :class:`StrixConfig`."""
        return cls(config.max_fft_points, config.clp, config.fft_folding)
