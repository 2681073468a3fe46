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
from repro.arch.hsc import HomomorphicStreamingCore
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
    lwes_per_core: tuple[int, ...]
    blind_rotation_cycles: int
    keyswitch_cycles: int
    keyswitch_hidden: bool


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
        self._compute_scaling: dict[TFHEParameters, float] = {}
        self._epoch_plans: dict[tuple[TFHEParameters, int], EpochPlan] = {}

    # -- microbenchmark (Table V) -------------------------------------------------

    def core_iteration_cycles(self, params: TFHEParameters, lwes: int) -> int:
        """Cycles one blind-rotation iteration takes on a core streaming ``lwes`` LWEs.

        The longer of two times.  The pipeline's: a lone LWE traverses the
        whole pipeline (``iteration_latency``), more stream one initiation
        interval apart.  The memory wall's (Table VII): the streamed cycles
        stretched by :meth:`~repro.arch.memory.HBMModel.compute_scaling`, the
        chip's whole demand (bootstrapping key, keyswitching key, ciphertexts)
        set against its whole bandwidth.  The scaling is memoized per
        parameter set, off the epoch scheduler's per-epoch path.
        """
        timing = self.core.pipeline_timing(params)
        streamed = lwes * timing.initiation_interval
        scaling = self._compute_scaling.get(params)
        if scaling is None:
            demand = self.required_bandwidth(params)
            scaling = self._compute_scaling[params] = self.hbm.compute_scaling(demand)
        pipeline = timing.iteration_latency if lwes == 1 else streamed
        return max(pipeline, math.ceil(streamed / scaling))

    def pbs_latency_ms(self, params: TFHEParameters) -> float:
        """Latency of a single PBS (one LWE, no batching)."""
        return self.config.cycles_to_ms(params.n * self.core_iteration_cycles(params, 1))

    def required_bandwidth(self, params: TFHEParameters) -> BandwidthDemand:
        """External bandwidth demand at this operating point."""
        timing = self.core.pipeline_timing(params)
        return self.hbm.bandwidth_demand(params, timing.initiation_interval)

    def pbs_throughput(self, params: TFHEParameters) -> float:
        """Sustained PBS/s with full two-level batching.

        Every core streams a full core batch: ``n`` iterations of
        :meth:`core_iteration_cycles` per batch, times the number of cores.
        Where the bandwidth demand exceeds the HBM capability the iterations
        stretch, and throughput falls with them (the memory-bound regime of
        Table VII).
        """
        core_batch = self.core.core_batch_size(params)
        cycles_per_lwe = params.n * self.core_iteration_cycles(params, core_batch) / core_batch
        return self.config.clock_hz / cycles_per_lwe * self.config.tvlp

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

    def epoch_capacity(self, params: TFHEParameters) -> int:
        """Ciphertexts of one epoch: device batch (TvLP) x core batch."""
        return self.config.tvlp * self.core.core_batch_size(params)

    def plan_epoch(self, params: TFHEParameters, lwes: int) -> EpochPlan:
        """Map ``lwes`` ciphertexts onto one epoch of the chip.

        Ciphertexts are spread round-robin across the ``tvlp`` cores (the
        first ``lwes % tvlp`` take one more); each core streams its share
        through the PBS pipeline (core-level batching), then the keyswitch
        cluster drains while the next epoch's blind rotation runs.

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
        scheduled = min(lwes, self.epoch_capacity(params))
        each, extra = divmod(scheduled, self.config.tvlp)
        busiest = each + (extra > 0)
        blind_rotation_cycles = params.n * self.core_iteration_cycles(params, busiest)
        keyswitch_cycles = busiest * self.core.keyswitch_cycles(params)
        plan = EpochPlan(
            lwes=scheduled,
            lwes_per_core=tuple(each + (core < extra) for core in range(self.config.tvlp)),
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
        capacity = self.epoch_capacity(params)
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
