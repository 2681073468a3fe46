"""Homomorphic Streaming Core (HSC) model.

One HSC contains the six-stage fully pipelined PBS cluster, the keyswitch
cluster and a local scratchpad (Fig. 4).  The model answers the questions the
evaluation needs:

* the per-LWE **initiation interval** of the PBS pipeline in steady state
  (which sets throughput under core-level batching);
* the **iteration latency** for a single LWE (which sets PBS latency, since
  blind-rotation iterations are strictly sequential);
* per-unit busy intervals for a batch of LWEs over a number of iterations
  (the Gantt-style occupancy trace of Fig. 8);
* the keyswitch time and whether it hides behind the next epoch's PBS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import StrixConfig
from repro.arch.functional_units import (
    PBS_PIPELINE_ORDER,
    KeyswitchCluster,
    build_pbs_cluster,
)
from repro.arch.memory import LocalScratchpad
from repro.params import TFHEParameters


@dataclass(frozen=True)
class BusyInterval:
    """One busy interval of one functional unit in the occupancy trace."""

    unit: str
    lwe_index: int
    iteration: int
    start_cycle: int
    end_cycle: int

    @property
    def duration(self) -> int:
        """Interval length in cycles."""
        return self.end_cycle - self.start_cycle


@dataclass
class PipelineTiming:
    """Summary of the PBS cluster timing for a parameter set."""

    initiation_interval: int
    iteration_latency: int
    stage_busy_cycles: dict[str, int]
    bottleneck_unit: str

    def utilization(self) -> dict[str, float]:
        """Steady-state utilization of every stage (busy / initiation interval)."""
        return {
            name: busy / self.initiation_interval
            for name, busy in self.stage_busy_cycles.items()
        }


class HomomorphicStreamingCore:
    """Timing model of one HSC."""

    def __init__(self, config: StrixConfig):
        self.config = config
        self.pbs_cluster = build_pbs_cluster(config)
        self.keyswitch_cluster = KeyswitchCluster(config)
        self.local_scratchpad = LocalScratchpad(config)
        # Per-parameter-set memos.  Everything below is a pure function of
        # (params, config) and config is frozen at construction, so caching
        # cannot change any value — it only takes the recomputation off the
        # epoch scheduler's per-node/per-epoch hot path.  Callers treat the
        # returned objects as read-only.
        self._pipeline_timing: dict[TFHEParameters, PipelineTiming] = {}
        self._core_batch_size: dict[TFHEParameters, int] = {}
        self._keyswitch_cycles: dict[TFHEParameters, int] = {}

    # -- PBS cluster ----------------------------------------------------------

    def pipeline_timing(self, params: TFHEParameters) -> PipelineTiming:
        """Per-iteration timing of the PBS cluster for one LWE (memoized)."""
        timing = self._pipeline_timing.get(params)
        if timing is not None:
            return timing
        busy = {
            name: unit.busy_cycles_per_lwe(params)
            for name, unit in self.pbs_cluster.items()
        }
        initiation_interval = max(busy.values())
        bottleneck = max(busy, key=busy.get)
        # A single LWE must stream through the whole pipeline before the next
        # iteration can start (the accumulator feeds the rotator of the next
        # iteration): the dominant fill component is the FFT latency on top of
        # the initiation interval.
        fft_unit = self.pbs_cluster["fft"].unit
        iteration_latency = initiation_interval + fft_unit.latency(params.N)
        timing = PipelineTiming(
            initiation_interval=initiation_interval,
            iteration_latency=iteration_latency,
            stage_busy_cycles=busy,
            bottleneck_unit=bottleneck,
        )
        self._pipeline_timing[params] = timing
        return timing

    def core_batch_size(self, params: TFHEParameters) -> int:
        """Core-level batch size supported by the local scratchpad (memoized)."""
        size = self._core_batch_size.get(params)
        if size is None:
            size = self.local_scratchpad.core_batch_size(params)
            self._core_batch_size[params] = size
        return size

    def pbs_cycles_per_lwe_streaming(self, params: TFHEParameters) -> int:
        """Amortized cycles per LWE when the core streams a full batch."""
        timing = self.pipeline_timing(params)
        return params.n * timing.initiation_interval

    # -- keyswitch cluster ------------------------------------------------------

    def keyswitch_cycles(self, params: TFHEParameters) -> int:
        """Cycles to keyswitch one LWE (memoized)."""
        cycles = self._keyswitch_cycles.get(params)
        if cycles is None:
            cycles = self.keyswitch_cluster.busy_cycles_per_lwe(params)
            self._keyswitch_cycles[params] = cycles
        return cycles

    def keyswitch_hidden(self, params: TFHEParameters) -> bool:
        """Whether keyswitching hides behind the next epoch's blind rotation."""
        return self.keyswitch_cluster.is_hidden_behind_pbs(
            params, self.pbs_cycles_per_lwe_streaming(params)
        )

    # -- occupancy trace ---------------------------------------------------------

    def occupancy_trace(
        self,
        params: TFHEParameters,
        lwes_per_core: int,
        iterations: int,
    ) -> list[BusyInterval]:
        """Generate the functional-unit occupancy trace (Fig. 8).

        The PBS cluster is a dataflow pipeline: within an iteration the
        ``lwes_per_core`` ciphertexts stream back-to-back, each stage starts
        an LWE as soon as both the previous stage has produced it and the
        stage itself is free, and the next iteration of a given LWE starts
        once that LWE has fully drained from the previous iteration.
        """
        if lwes_per_core < 1 or iterations < 1:
            raise ValueError("lwes_per_core and iterations must be positive")
        timing = self.pipeline_timing(params)
        stage_names = list(PBS_PIPELINE_ORDER)
        busy = timing.stage_busy_cycles

        # Offsets of each stage relative to the moment its LWE enters the
        # pipeline: a stage can only start once the previous one has produced
        # enough of the polynomial stream; modelled as the previous stages'
        # fill (one initiation interval each for the transform stages, the
        # busy time otherwise, capped by the initiation interval).
        stage_offsets: dict[str, int] = {}
        offset = 0
        for name in stage_names:
            stage_offsets[name] = offset
            fill = min(busy[name], timing.initiation_interval)
            # Streaming stages overlap heavily; the next stage starts after
            # roughly one bus worth of data, modelled as a quarter of the
            # producer's busy time (at least one cycle).
            offset += max(fill // 4, 1)

        intervals: list[BusyInterval] = []
        stage_free_at = {name: 0 for name in stage_names}
        lwe_ready_at = [0 for _ in range(lwes_per_core)]

        for iteration in range(iterations):
            for lwe in range(lwes_per_core):
                entry = lwe_ready_at[lwe]
                finish = entry
                for name in stage_names:
                    start = max(entry + stage_offsets[name], stage_free_at[name])
                    end = start + busy[name]
                    stage_free_at[name] = end
                    intervals.append(
                        BusyInterval(
                            unit=name,
                            lwe_index=lwe,
                            iteration=iteration,
                            start_cycle=start,
                            end_cycle=end,
                        )
                    )
                    finish = end
                lwe_ready_at[lwe] = finish
        return intervals
