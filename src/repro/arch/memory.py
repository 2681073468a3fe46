"""Memory system model: scratchpads and the HBM interface.

Strix has a two-level on-chip memory hierarchy (Section IV-B):

* a 21 MB **global scratchpad**, double buffered, holding the bootstrapping
  key fragment and keyswitching key tile currently in use (shared section)
  plus per-core LWE/test-vector staging (private section);
* a 0.625 MB **local scratchpad** per HSC holding the intermediate test
  vectors of the in-flight core-level batch and the keyswitch cluster's
  working set.

The HBM model tracks how many bytes each key/ciphertext stream must deliver
per unit of time and reports the aggregate bandwidth demand, which the
accelerator model compares against the available 300 GB/s to decide whether
an operating point is compute- or memory-bound (Fig. 8 discussion and
Table VII).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import StrixConfig
from repro.arch.fft_unit import fourier_points
from repro.params import TFHEParameters

#: Bytes of one Fourier-domain point of a bootstrapping-key polynomial
#: (two 32-bit fixed-point components, matching the VMA datapath).
FOURIER_POINT_BYTES = 8

#: Bytes of one time-domain torus coefficient (32-bit datapath).
COEFFICIENT_BYTES = 4


@dataclass(frozen=True)
class BandwidthDemand:
    """Per-stream external bandwidth demand in GB/s."""

    bootstrapping_key: float
    keyswitching_key: float
    ciphertexts: float

    @property
    def total(self) -> float:
        """Aggregate demand across all streams."""
        return self.bootstrapping_key + self.keyswitching_key + self.ciphertexts


class LocalScratchpad:
    """Per-HSC scratchpad sizing: how many LWEs fit in a core-level batch."""

    def __init__(self, config: StrixConfig):
        self.config = config
        self.capacity_bytes = int(config.local_scratchpad_mb * 2**20)
        self.pbs_capacity_bytes = int(
            self.capacity_bytes * config.local_scratchpad_pbs_fraction
        )
        self.keyswitch_capacity_bytes = self.capacity_bytes - self.pbs_capacity_bytes

    def accumulator_bytes(self, params: TFHEParameters) -> int:
        """Storage for one in-flight accumulator (intermediate test vector)."""
        return (params.k + 1) * params.N * COEFFICIENT_BYTES

    def core_batch_size(self, params: TFHEParameters) -> int:
        """Core-level batch size: intermediate test vectors that fit on chip."""
        return max(self.pbs_capacity_bytes // self.accumulator_bytes(params), 1)


class GlobalScratchpad:
    """Shared key staging buffer feeding the multicast NoC."""

    def __init__(self, config: StrixConfig):
        self.config = config
        self.capacity_bytes = int(config.global_scratchpad_mb * 2**20)

    def bootstrapping_key_fragment_bytes(self, params: TFHEParameters) -> int:
        """Bytes of one GGSW (the bootstrapping-key share of one BR iteration)."""
        polynomials = (params.k + 1) * params.lb * (params.k + 1)
        points = fourier_points(params.N, self.config.fft_folding)
        return polynomials * points * FOURIER_POINT_BYTES

    def keyswitching_key_bytes(self, params: TFHEParameters) -> int:
        """Total keyswitching key size (time-domain 32-bit coefficients)."""
        return params.k * params.N * params.lk * (params.n + 1) * COEFFICIENT_BYTES

    def keyswitching_key_tile_bytes(self, params: TFHEParameters) -> int:
        """Bytes of one keyswitching-key tile (one decomposition level)."""
        return params.k * params.N * (params.n + 1) * COEFFICIENT_BYTES

    def fits_double_buffered(self, params: TFHEParameters) -> bool:
        """Whether two bsk fragments plus a ksk tile fit in the scratchpad."""
        needed = 2 * self.bootstrapping_key_fragment_bytes(params) + min(
            self.keyswitching_key_tile_bytes(params), self.capacity_bytes // 4
        )
        return needed <= self.capacity_bytes


class HBMModel:
    """External-memory bandwidth demand model."""

    def __init__(self, config: StrixConfig):
        self.config = config
        self.global_scratchpad = GlobalScratchpad(config)
        self.local_scratchpad = LocalScratchpad(config)

    def bandwidth_demand(self, params: TFHEParameters, iteration_cycles: int) -> BandwidthDemand:
        """Bandwidth each stream must sustain during blind rotation.

        Parameters
        ----------
        params:
            TFHE parameter set.
        iteration_cycles:
            Cycles one blind-rotation iteration takes for a single LWE in
            steady state (the per-LWE initiation interval).
        """
        core_batch = self.local_scratchpad.core_batch_size(params)
        cycle_s = 1.0 / self.config.clock_hz
        iteration_time_s = iteration_cycles * cycle_s

        # The bootstrapping key fragment for iteration i+1 must arrive while
        # iteration i runs; it is fetched once and multicast to every core.
        # The prefetch window is one *single-LWE* iteration so the design
        # stays compute bound even for the smallest batches.
        bsk_rate = (
            self.global_scratchpad.bootstrapping_key_fragment_bytes(params)
            / iteration_time_s
        )

        # The keyswitching key streams once per epoch: every LWE of the epoch
        # reuses the same tile sequence while the keyswitch cluster works in
        # the shadow of the next epoch's blind rotation.
        epoch_cycles = params.n * iteration_cycles * core_batch
        epoch_time_s = epoch_cycles * cycle_s
        ksk_rate = self.global_scratchpad.keyswitching_key_bytes(params) / epoch_time_s

        # Ciphertext traffic: inputs (LWE + initial test vector) in, LWE out,
        # for every ciphertext of the epoch across all cores.
        epoch_lwes = core_batch * self.config.tvlp
        per_lwe_bytes = (
            (params.n + 1) * COEFFICIENT_BYTES
            + (params.k + 1) * params.N * COEFFICIENT_BYTES
            + (params.n + 1) * COEFFICIENT_BYTES
        )
        ciphertext_rate = epoch_lwes * per_lwe_bytes / epoch_time_s

        return BandwidthDemand(
            bootstrapping_key=bsk_rate / 1e9,
            keyswitching_key=ksk_rate / 1e9,
            ciphertexts=ciphertext_rate / 1e9,
        )

    def is_memory_bound(self, demand: BandwidthDemand) -> bool:
        """Whether the demand exceeds the available external bandwidth."""
        return demand.total > self.config.hbm_bandwidth_gbps

    def compute_scaling(self, demand: BandwidthDemand) -> float:
        """Throughput scaling factor when memory bound (1.0 otherwise)."""
        if demand.total <= 0:
            return 1.0
        return min(1.0, self.config.hbm_bandwidth_gbps / demand.total)
