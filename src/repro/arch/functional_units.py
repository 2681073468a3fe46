"""Timing models of the five Strix functional units (Section V).

Each unit exposes ``busy_cycles_per_lwe(params)`` — the number of cycles the
unit is occupied per LWE ciphertext per blind-rotation iteration inside one
HSC — plus simple lane/area/power accounting.  The HSC pipeline model
(:mod:`repro.arch.hsc`) combines them: the slowest unit sets the per-LWE
initiation interval of the streaming pipeline, and the ratio of each unit's
busy time to that interval is its utilization (the quantities plotted in the
paper's Fig. 8 discussion).

The keyswitch cluster reuses the decomposer / VMA / accumulator models with
its own lane configuration (Section IV-A: CLP=8, CoLP=8, PLP=1).
"""

from __future__ import annotations

import math

from repro.arch.config import StrixConfig
from repro.arch.fft_unit import PipelinedFFTUnit
from repro.params import TFHEParameters


class FunctionalUnit:
    """Base class: a named unit with an area/power footprint."""

    name: str = "unit"

    def __init__(self, config: StrixConfig):
        self.config = config

    def busy_cycles_per_lwe(self, params: TFHEParameters) -> int:
        """Cycles the unit is busy per LWE per blind-rotation iteration."""
        raise NotImplementedError

    @property
    def instances(self) -> int:
        """Number of physical instances of the unit inside one HSC."""
        return 1

    @property
    def area_mm2(self) -> float:
        """Total area of all instances inside one HSC."""
        raise NotImplementedError

    @property
    def power_w(self) -> float:
        """Total power of all instances inside one HSC."""
        raise NotImplementedError


class RotatorUnit(FunctionalUnit):
    """Negacyclic rotation and subtraction of the accumulator polynomials.

    Processes the ``k + 1`` accumulator polynomials with ``2*CLP`` lanes per
    instance and ``CoLP`` instances; the paper reports ~50 % utilization for
    parameter set I, which this model reproduces.
    """

    name = "rotator"
    _AREA_MM2 = 0.02
    _POWER_W = 0.01

    def busy_cycles_per_lwe(self, params: TFHEParameters) -> int:
        coefficients = (params.k + 1) * params.N
        lanes = self.config.effective_lanes * self.config.colp
        return max(math.ceil(coefficients / lanes), 1)

    @property
    def instances(self) -> int:
        return self.config.colp

    @property
    def area_mm2(self) -> float:
        return self._AREA_MM2 * self.config.effective_lanes / 8.0 * self.config.colp / 2.0

    @property
    def power_w(self) -> float:
        return self._POWER_W * self.config.effective_lanes / 8.0 * self.config.colp / 2.0


class DecomposerUnit(FunctionalUnit):
    """Streaming gadget decomposition (rounding + extraction, Fig. 6).

    Consumes ``k + 1`` polynomials and produces ``(k+1) * lb`` digit
    polynomials per LWE per iteration; built without multipliers, its cost is
    dominated by the per-lane mask/shift/add pipelines and digit buffers.
    """

    name = "decomposer"
    _AREA_MM2 = 0.28
    _POWER_W = 0.02

    def busy_cycles_per_lwe(self, params: TFHEParameters) -> int:
        output_coefficients = (params.k + 1) * params.lb * params.N
        lanes = self.config.effective_lanes * self.config.colp
        return max(math.ceil(output_coefficients / lanes), 1)

    @property
    def instances(self) -> int:
        return self.config.colp

    @property
    def area_mm2(self) -> float:
        return self._AREA_MM2 * self.config.effective_lanes / 8.0 * self.config.colp / 2.0

    @property
    def power_w(self) -> float:
        return self._POWER_W * self.config.effective_lanes / 8.0 * self.config.colp / 2.0


class FFTUnitGroup(FunctionalUnit):
    """The ``PLP`` forward-FFT units of the PBS cluster."""

    name = "fft"

    def __init__(self, config: StrixConfig):
        super().__init__(config)
        self.unit = PipelinedFFTUnit.from_config(config)

    def busy_cycles_per_lwe(self, params: TFHEParameters) -> int:
        polynomials = (params.k + 1) * params.lb
        per_unit = math.ceil(polynomials / self.config.plp)
        return per_unit * self.unit.initiation_interval(params.N)

    @property
    def instances(self) -> int:
        return self.config.plp

    @property
    def area_mm2(self) -> float:
        return self.unit.area_mm2 * self.instances

    @property
    def power_w(self) -> float:
        return self.unit.power_w * self.instances


class IFFTUnitGroup(FFTUnitGroup):
    """The ``PLP`` inverse-FFT units.

    The accumulation split between frequency and time domain (Section IV-B)
    balances the IFFT workload 1:1 with the forward FFT, so the busy time
    matches :class:`FFTUnitGroup`.
    """

    name = "ifft"


class VMAUnit(FunctionalUnit):
    """Vector multiply-accumulate against the bootstrapping key spectra.

    Consumes the Fourier-domain digit polynomials at ``CLP * PLP`` complex
    coefficients per cycle per HSC, multiplying each against the ``CoLP``
    output columns of the GGSW matrix.
    """

    name = "vma"
    _AREA_MM2 = 0.63
    _POWER_W = 0.10

    def busy_cycles_per_lwe(self, params: TFHEParameters) -> int:
        points_per_poly = params.N // 2 if self.config.fft_folding else params.N
        coefficients = (params.k + 1) * params.lb * points_per_poly
        lanes = self.config.clp * self.config.plp
        return max(math.ceil(coefficients / lanes), 1)

    @property
    def instances(self) -> int:
        return self.config.plp

    @property
    def area_mm2(self) -> float:
        return self._AREA_MM2 * (self.config.clp * self.config.plp) / 8.0

    @property
    def power_w(self) -> float:
        return self._POWER_W * (self.config.clp * self.config.plp) / 8.0


class AccumulatorUnit(FunctionalUnit):
    """Time-domain accumulation of the IFFT outputs back into the scratchpad."""

    name = "accumulator"
    _AREA_MM2 = 0.32
    _POWER_W = 0.13

    def busy_cycles_per_lwe(self, params: TFHEParameters) -> int:
        coefficients = (params.k + 1) * params.lb * params.N
        lanes = self.config.effective_lanes * self.config.colp
        return max(math.ceil(coefficients / lanes), 1)

    @property
    def instances(self) -> int:
        return self.config.colp

    @property
    def area_mm2(self) -> float:
        return self._AREA_MM2 * self.config.effective_lanes / 8.0 * self.config.colp / 2.0

    @property
    def power_w(self) -> float:
        return self._POWER_W * self.config.effective_lanes / 8.0 * self.config.colp / 2.0


#: Order of the six pipeline stages of the PBS cluster.
PBS_PIPELINE_ORDER = ("rotator", "decomposer", "fft", "vma", "ifft", "accumulator")


def build_pbs_cluster(config: StrixConfig) -> dict[str, FunctionalUnit]:
    """Instantiate the six-stage PBS cluster of one HSC."""
    return {
        "rotator": RotatorUnit(config),
        "decomposer": DecomposerUnit(config),
        "fft": FFTUnitGroup(config),
        "vma": VMAUnit(config),
        "ifft": IFFTUnitGroup(config),
        "accumulator": AccumulatorUnit(config),
    }


class KeyswitchCluster:
    """Timing model of the keyswitch cluster (decomposer → VMA → accumulator).

    Keyswitching is a plain integer matrix-vector product: every one of the
    ``k*N`` input coefficients is decomposed into ``lk`` digits, each
    multiplying an ``(n+1)``-element row of the keyswitching key.  The
    cluster sustains ``ks_clp * ks_colp`` multiply-accumulates per cycle.
    """

    name = "keyswitch"

    def __init__(self, config: StrixConfig):
        self.config = config

    def macs_per_lwe(self, params: TFHEParameters) -> int:
        """Multiply-accumulate operations for one keyswitch."""
        return params.k * params.N * params.lk * (params.n + 1)

    def busy_cycles_per_lwe(self, params: TFHEParameters) -> int:
        """Cycles to keyswitch one LWE ciphertext inside one HSC."""
        throughput = self.config.ks_clp * self.config.ks_colp
        return max(math.ceil(self.macs_per_lwe(params) / throughput), 1)

    def is_hidden_behind_pbs(self, params: TFHEParameters, pbs_cycles_per_lwe: int) -> bool:
        """Whether keyswitching fits inside the PBS time of the next epoch."""
        return self.busy_cycles_per_lwe(params) <= pbs_cycles_per_lwe
