"""Top-level Strix accelerator model.

:class:`StrixAccelerator` binds a :class:`~repro.arch.config.StrixConfig`
to a TFHE parameter set and answers the evaluation questions of Section VI:
PBS latency and throughput (Table V), required external bandwidth and the
compute-/memory-bound boundary (Table VII), epoch scheduling with two-level
batching, and end-to-end execution-time estimates for workload graphs
(Fig. 7) via the cycle-level simulator of :mod:`repro.sim`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.area_power import AreaPowerModel, ChipCost
from repro.arch.config import STRIX_DEFAULT, StrixConfig
from repro.arch.hsc import HomomorphicStreamingCore, PipelineTiming
from repro.arch.memory import BandwidthDemand, HBMModel
from repro.arch.noc import MulticastNetwork
from repro.params import TFHEParameters


@dataclass(frozen=True)
class PbsPerformance:
    """PBS microbenchmark result for one parameter set (one Table V row)."""

    parameter_set: str
    latency_ms: float
    throughput_pbs_per_s: float
    compute_bound: bool
    required_bandwidth_gbps: float
    core_batch_size: int
    device_batch_size: int


@dataclass(frozen=True)
class EpochPlan:
    """How a batch of LWEs maps onto one scheduling epoch."""

    lwes: int
    device_batch: int
    core_batch: int
    lwes_per_core: tuple[int, ...]
    blind_rotation_cycles: int
    keyswitch_cycles: int
    keyswitch_hidden: bool

    @property
    def epoch_cycles(self) -> int:
        """Cycles the epoch occupies the PBS clusters (KS hides if possible)."""
        if self.keyswitch_hidden:
            return self.blind_rotation_cycles
        return self.blind_rotation_cycles + self.keyswitch_cycles


class StrixAccelerator:
    """Latency / throughput / bandwidth model of a full Strix chip."""

    def __init__(self, config: StrixConfig = STRIX_DEFAULT):
        self.config = config
        self.core = HomomorphicStreamingCore(config)
        self.hbm = HBMModel(config)
        self.noc = MulticastNetwork(config)
        self.area_power = AreaPowerModel(config)
        # Pure functions of (params, config) memoized off the scheduler's
        # per-epoch hot path; config is frozen, so entries can never go
        # stale.  Epoch plans are keyed per (params, lwes) — at most
        # epoch-capacity distinct sizes per parameter set.
        self._iteration_latency: dict[TFHEParameters, int] = {}
        self._epoch_plans: dict[tuple[TFHEParameters, int], EpochPlan] = {}

    # -- microbenchmark (Table V) -------------------------------------------------

    def pipeline_timing(self, params: TFHEParameters) -> PipelineTiming:
        """Per-iteration PBS-cluster timing for the parameter set."""
        return self.core.pipeline_timing(params)

    def iteration_latency_cycles(self, params: TFHEParameters) -> int:
        """Latency of one blind-rotation iteration for a single LWE.

        The compute latency is the pipeline traversal; when the operating
        point is memory bound the iteration additionally cannot complete
        faster than the next bootstrapping-key fragment can be fetched over
        the HBM channels allocated to it.  Memoized per parameter set — the
        epoch scheduler asks once per single-LWE core booking.
        """
        cached = self._iteration_latency.get(params)
        if cached is not None:
            return cached
        timing = self.core.pipeline_timing(params)
        fragment_bytes = self.hbm.global_scratchpad.bootstrapping_key_fragment_bytes(params)
        bsk_bandwidth = (
            self.config.hbm_bandwidth_gbps
            * self.config.bsk_channels
            / (
                self.config.bsk_channels
                + self.config.ksk_channels
                + self.config.ciphertext_channels
            )
        )
        fetch_seconds = fragment_bytes / (bsk_bandwidth * 1e9)
        fetch_cycles = math.ceil(fetch_seconds * self.config.clock_hz)
        latency = max(timing.iteration_latency, fetch_cycles)
        self._iteration_latency[params] = latency
        return latency

    def pbs_latency_ms(self, params: TFHEParameters) -> float:
        """Latency of a single PBS (one LWE, no batching)."""
        cycles = params.n * self.iteration_latency_cycles(params)
        return self.config.cycles_to_ms(cycles)

    def required_bandwidth(self, params: TFHEParameters) -> BandwidthDemand:
        """External bandwidth demand at this operating point."""
        timing = self.core.pipeline_timing(params)
        return self.hbm.bandwidth_demand(
            params,
            timing.initiation_interval,
            core_batch=self.core.core_batch_size(params),
        )

    def pbs_throughput(self, params: TFHEParameters) -> float:
        """Sustained PBS/s with full two-level batching.

        The compute-bound throughput is one LWE per ``n * initiation interval``
        cycles per core times the number of cores; when the bandwidth demand
        exceeds the HBM capability the throughput scales down proportionally
        (the memory-bound regime of Table VII).
        """
        per_core_cycles = self.core.pbs_cycles_per_lwe_streaming(params)
        compute_bound = self.config.clock_hz / per_core_cycles * self.config.tvlp
        scaling = self.hbm.compute_scaling(self.required_bandwidth(params))
        return compute_bound * scaling

    def pbs_performance(self, params: TFHEParameters) -> PbsPerformance:
        """Full PBS microbenchmark summary (one Table V row)."""
        demand = self.required_bandwidth(params)
        return PbsPerformance(
            parameter_set=params.name,
            latency_ms=self.pbs_latency_ms(params),
            throughput_pbs_per_s=self.pbs_throughput(params),
            compute_bound=not self.hbm.is_memory_bound(demand),
            required_bandwidth_gbps=demand.total,
            core_batch_size=self.core.core_batch_size(params),
            device_batch_size=self.config.tvlp,
        )

    # -- epoch scheduling (Section IV-C) ---------------------------------------------

    def plan_epoch(self, params: TFHEParameters, lwes: int) -> EpochPlan:
        """Map ``lwes`` ciphertexts onto one epoch of the chip.

        Ciphertexts are spread across the ``tvlp`` cores; each core streams
        its share through the PBS pipeline (core-level batching), then the
        keyswitch cluster drains while the next epoch's blind rotation runs.

        Plans are memoized per ``(params, lwes)`` — the epoch scheduler and
        ``pbs_batch_cycles`` replan the same epoch sizes constantly — and
        shared, which is safe because :class:`EpochPlan` is immutable
        (frozen dataclass, per-core counts stored as a tuple).
        """
        if lwes < 1:
            raise ValueError("an epoch needs at least one LWE")
        cached = self._epoch_plans.get((params, lwes))
        if cached is not None:
            return cached
        device_batch = self.config.tvlp
        core_batch = self.core.core_batch_size(params)
        capacity = device_batch * core_batch
        scheduled = min(lwes, capacity)
        per_core = [0] * device_batch
        for index in range(scheduled):
            per_core[index % device_batch] += 1
        timing = self.core.pipeline_timing(params)
        busiest = max(per_core)
        if busiest == 1:
            blind_rotation_cycles = params.n * timing.iteration_latency
        else:
            blind_rotation_cycles = params.n * busiest * timing.initiation_interval
        keyswitch_cycles = busiest * self.core.keyswitch_cycles(params)
        plan = EpochPlan(
            lwes=scheduled,
            device_batch=device_batch,
            core_batch=core_batch,
            lwes_per_core=tuple(per_core),
            blind_rotation_cycles=blind_rotation_cycles,
            keyswitch_cycles=keyswitch_cycles,
            keyswitch_hidden=keyswitch_cycles <= blind_rotation_cycles,
        )
        self._epoch_plans[(params, lwes)] = plan
        return plan

    def pbs_batch_cycles(self, params: TFHEParameters, lwes: int) -> int:
        """Cycles to bootstrap ``lwes`` ciphertexts (multiple epochs if needed).

        The PBS clusters run the epochs' blind rotations back to back; the
        keyswitch clusters form a second pipeline that starts an epoch's
        keyswitching once its blind rotation finishes and runs concurrently
        with the next epoch's blind rotation.  The batch completes when both
        pipelines have drained.
        """
        if lwes < 1:
            return 0
        capacity = self.config.tvlp * self.core.core_batch_size(params)
        full, rest = divmod(lwes, capacity)
        blind_rotation_end = keyswitch_end = 0
        if full:
            # Every full epoch has the same plan, so the recurrence
            # ``ks_i = max(ks_{i-1}, i * br) + ks`` over them has a closed form.
            plan = self.plan_epoch(params, capacity)
            blind_rotation_end = full * plan.blind_rotation_cycles
            if plan.keyswitch_hidden:
                keyswitch_end = blind_rotation_end + plan.keyswitch_cycles
            else:
                keyswitch_end = plan.blind_rotation_cycles + full * plan.keyswitch_cycles
        if rest:
            plan = self.plan_epoch(params, rest)
            blind_rotation_end += plan.blind_rotation_cycles
            keyswitch_end = max(keyswitch_end, blind_rotation_end) + plan.keyswitch_cycles
        return max(blind_rotation_end, keyswitch_end)

    def pbs_batch_time_ms(self, params: TFHEParameters, lwes: int) -> float:
        """Milliseconds to bootstrap ``lwes`` ciphertexts."""
        return self.config.cycles_to_ms(self.pbs_batch_cycles(params, lwes))

    # -- chip cost -----------------------------------------------------------------

    def chip_cost(self) -> ChipCost:
        """Area/power summary of the configured chip (Table III)."""
        return self.area_power.chip_cost()
