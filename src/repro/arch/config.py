"""Strix hardware configuration.

The paper exposes four parallelism levels (Section IV-A):

* **TvLP** — test-vector level parallelism: the number of Homomorphic
  Streaming Cores, each processing a different ciphertext.
* **CLP** — coefficient level parallelism: the number of lanes of the FFT
  unit (most other units run ``2*CLP`` lanes to match the folding scheme).
* **PLP** — polynomial level parallelism: replication of the FFT/VMA units.
* **CoLP** — column level parallelism: replication of the rotator,
  decomposer, IFFT and accumulator units.

The shipped design point is TvLP=8, CLP=4, PLP=2, CoLP=2 at 1.2 GHz with a
21 MB global scratchpad, 0.625 MB local scratchpads and one 300 GB/s HBM2e
stack.  :data:`STRIX_DEFAULT` captures it; :data:`STRIX_UNFOLDED` is the
ablation variant of Table VI that disables the FFT folding scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class StrixConfig:
    """Architectural configuration of a Strix instance.

    Attributes
    ----------
    tvlp:
        Number of HSCs (test-vector level parallelism).
    clp:
        FFT-unit lanes (coefficient level parallelism).
    plp:
        FFT/VMA replication (polynomial level parallelism).
    colp:
        Rotator/decomposer/IFFT/accumulator replication (column level
        parallelism).
    clock_ghz:
        Core clock in GHz.
    hbm_bandwidth_gbps:
        External memory bandwidth in GB/s (one HBM2e stack by default).
    hbm_capacity_gb:
        External memory *capacity* in GB (one 16 GB HBM2e stack by
        default).  The serving tier derives per-device key-memory budgets
        from it — every resident tenant pins one BSK + KSK set in HBM, so
        capacity, not bandwidth, bounds how many tenants a device can hold
        (see :mod:`repro.arch.key_cache`).
    global_scratchpad_mb / local_scratchpad_mb:
        On-chip memory capacities.
    local_scratchpad_pbs_fraction:
        Fraction of each local scratchpad reserved for intermediate test
        vectors of the PBS cluster (the rest belongs to the keyswitch
        cluster).
    fft_folding:
        Whether the FFT unit uses the folding scheme (Section V-A).  When
        enabled an ``N``-point transform runs on an ``N/2``-point unit and
        the other units run ``2*clp`` lanes.
    max_fft_points:
        Largest transform the physical FFT unit supports (the paper's unit
        handles 16,384-point polynomials, 8,192 after folding).
    """

    tvlp: int = 8
    clp: int = 4
    plp: int = 2
    colp: int = 2
    clock_ghz: float = 1.2
    hbm_bandwidth_gbps: float = 300.0
    hbm_capacity_gb: float = 16.0
    global_scratchpad_mb: float = 21.0
    local_scratchpad_mb: float = 0.625
    local_scratchpad_pbs_fraction: float = 0.8
    fft_folding: bool = True
    max_fft_points: int = 16384

    def __post_init__(self) -> None:
        if self.tvlp < 1 or self.clp < 1 or self.plp < 1 or self.colp < 1:
            raise ValueError("all parallelism levels must be at least 1")
        if self.clock_ghz <= 0:
            raise ValueError("clock frequency must be positive")
        if self.hbm_bandwidth_gbps <= 0:
            raise ValueError("HBM bandwidth must be positive")
        if self.hbm_capacity_gb <= 0:
            raise ValueError("HBM capacity must be positive")

    # -- derived quantities -------------------------------------------------

    @property
    def clock_hz(self) -> float:
        """Clock frequency in Hz."""
        return self.clock_ghz * 1e9

    @property
    def cycle_time_ns(self) -> float:
        """Duration of one clock cycle in nanoseconds."""
        return 1.0 / self.clock_ghz

    @property
    def effective_lanes(self) -> int:
        """Coefficient lanes seen by the non-FFT units.

        With folding the rotator/decomposer/accumulator run ``2*clp`` lanes
        so a virtual CLP of ``2*clp`` is sustained; without folding every
        unit runs ``clp`` lanes.
        """
        return 2 * self.clp if self.fft_folding else self.clp

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to seconds."""
        return cycles / self.clock_hz

    def cycles_to_ms(self, cycles: float) -> float:
        """Convert a cycle count to milliseconds."""
        return self.cycles_to_seconds(cycles) * 1e3

    def with_parallelism(self, *, tvlp: int | None = None, clp: int | None = None) -> "StrixConfig":
        """Return a copy with a different TvLP / CLP operating point.

        Used by the Table VII trade-off sweep, which keeps the product
        ``tvlp * clp`` constant.
        """
        return replace(
            self,
            tvlp=self.tvlp if tvlp is None else tvlp,
            clp=self.clp if clp is None else clp,
        )

    def without_folding(self) -> "StrixConfig":
        """Return the non-folded ablation variant (Table VI)."""
        return replace(self, fft_folding=False)


#: The design point evaluated throughout the paper.
STRIX_DEFAULT = StrixConfig()

#: Ablation variant without the FFT folding optimization (Table VI).
STRIX_UNFOLDED = STRIX_DEFAULT.without_folding()


@dataclass(frozen=True)
class StrixClusterConfig:
    """The facts every chip of a multi-device Strix deployment shares.

    The paper evaluates a single chip; a serving deployment shards work
    across several identical chips behind one host.  The device count and
    the key-memory knobs belong to the cluster itself
    (:class:`repro.serve.cluster.StrixCluster`); this config holds what
    nothing else does: the chip's architecture and two link costs.

    Attributes
    ----------
    device:
        Architectural configuration shared by every chip.
    interconnect_gbps:
        Host-to-device link bandwidth in **gigabytes** per second, matching
        the ``hbm_bandwidth_gbps`` convention of :class:`StrixConfig` (the
        64.0 default is a PCIe 5.0 x16-class link).  Used to ship ciphertext
        shards on the serving path.
    dispatch_overhead_s:
        Fixed host-side cost per sharded dispatch (scatter + gather).
        Defaults to zero so a one-device cluster reproduces the
        single-device simulator results bit-for-bit.
    """

    device: StrixConfig = STRIX_DEFAULT
    interconnect_gbps: float = 64.0
    dispatch_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if self.interconnect_gbps <= 0:
            raise ValueError("interconnect bandwidth must be positive")
        if self.dispatch_overhead_s < 0:
            raise ValueError("dispatch overhead cannot be negative")
