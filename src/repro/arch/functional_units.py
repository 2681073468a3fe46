"""The functional units of one HSC as rows of one table (Section V).

Every unit streams some work per LWE ciphertext per blind-rotation iteration
over some lanes; ``busy_cycles_per_lwe`` is that work over those lanes.  The
two (I)FFT groups stream whole polynomials over ``PLP`` pipelined transform
units instead, each taking one initiation interval per polynomial.  The HSC
pipeline model (:mod:`repro.arch.hsc`) combines the rows: the slowest unit
sets the per-LWE initiation interval of the streaming pipeline, and the ratio
of each unit's busy time to that interval is its utilization (the quantities
plotted in the paper's Fig. 8 discussion).

The keyswitch cluster is a row too: a plain integer matrix-vector product on
its own :data:`KEYSWITCH_LANES` lanes (Section IV-A: CLP=8, CoLP=8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.arch.config import StrixConfig
from repro.arch.fft_unit import PipelinedFFTUnit, fourier_points
from repro.params import TFHEParameters


@dataclass(frozen=True)
class FunctionalUnit:
    """One unit of an HSC: the work it streams and the lanes it streams on.

    ``items(params)`` is the work per LWE per iteration (coefficients, or
    polynomials for the (I)FFT groups, whose ``fft`` is the transform unit
    replicated ``lanes`` times); ``area_mm2`` / ``power_w`` cover every
    instance inside one HSC.
    """

    name: str
    items: Callable[[TFHEParameters], int]
    lanes: int
    area_mm2: float
    power_w: float
    fft: PipelinedFFTUnit | None = None

    def busy_cycles_per_lwe(self, params: TFHEParameters) -> int:
        """Cycles the unit is busy per LWE per blind-rotation iteration."""
        per_lane = math.ceil(self.items(params) / self.lanes)
        if self.fft is not None:
            return per_lane * self.fft.initiation_interval(params.N)
        return max(per_lane, 1)


def build_pbs_cluster(config: StrixConfig) -> dict[str, FunctionalUnit]:
    """The six-stage PBS cluster of one HSC, in pipeline order.

    The rotator negacyclically rotates and subtracts the ``k + 1``
    accumulator polynomials (~50 % utilized for set I, as the paper
    reports); the decomposer turns them into ``(k+1) * lb`` digit
    polynomials (Fig. 6); the FFT group transforms the digits; the VMA
    multiplies their Fourier points against the bootstrapping key at
    ``CLP * PLP`` points per cycle; the IFFT group — balanced 1:1 with the
    FFT by the frequency/time accumulation split of Section IV-B — brings
    them back; the accumulator adds them into the scratchpad.  Rotator,
    decomposer and accumulator run ``effective_lanes`` lanes in ``CoLP``
    instances.
    """
    wide = config.effective_lanes * config.colp
    vma = config.clp * config.plp
    fft = PipelinedFFTUnit.from_config(config)

    def column_unit(
        name: str, items: Callable[[TFHEParameters], int], area: float, power: float
    ) -> FunctionalUnit:
        return FunctionalUnit(
            name,
            items,
            wide,
            area * config.effective_lanes / 8.0 * config.colp / 2.0,
            power * config.effective_lanes / 8.0 * config.colp / 2.0,
        )

    def transform_group(name: str) -> FunctionalUnit:
        return FunctionalUnit(
            name,
            lambda p: (p.k + 1) * p.lb,
            config.plp,
            fft.area_mm2 * config.plp,
            fft.power_w * config.plp,
            fft,
        )

    units = [
        column_unit("rotator", lambda p: (p.k + 1) * p.N, 0.02, 0.01),
        column_unit("decomposer", lambda p: (p.k + 1) * p.lb * p.N, 0.28, 0.02),
        transform_group("fft"),
        FunctionalUnit(
            "vma",
            lambda p: (p.k + 1) * p.lb * fourier_points(p.N, config.fft_folding),
            vma,
            0.63 * vma / 8.0,
            0.10 * vma / 8.0,
        ),
        transform_group("ifft"),
        column_unit("accumulator", lambda p: (p.k + 1) * p.lb * p.N, 0.32, 0.13),
    ]
    return {unit.name: unit for unit in units}


#: Lanes of the keyswitch cluster: Section IV-A's CLP=8 times CoLP=8.  A
#: fixed figure, because Table III prices no keyswitch lanes, so no other
#: count could be given an area or a power.
KEYSWITCH_LANES = 64


def build_keyswitch_cluster() -> FunctionalUnit:
    """The keyswitch cluster: ``k*N*lk*(n+1)`` MACs over :data:`KEYSWITCH_LANES` lanes.

    Every one of the ``k*N`` input coefficients is decomposed into ``lk``
    digits, each multiplying an ``(n+1)``-element row of the keyswitching
    key.  Table III prices no separate keyswitch row, so neither does this.
    """
    return FunctionalUnit(
        "keyswitch",
        lambda p: p.k * p.N * p.lk * (p.n + 1),
        KEYSWITCH_LANES,
        0.0,
        0.0,
    )
