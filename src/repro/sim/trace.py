"""Functional-unit occupancy traces (the Fig. 8 reproduction).

The paper's Fig. 8 shows, for parameter set I with three LWEs per core, the
busy intervals of every functional unit plus the local scratchpad and HBM
over the first two blind-rotation iterations.  This module turns the HSC
occupancy model into that trace, adds the memory rows, renders a textual
Gantt chart and computes the utilization figures quoted in the text
(decomposer / FFT / VMA / IFFT / accumulator ≈ 100 %, rotator ≈ 50 %,
local scratchpad ≈ 90 %, HBM ≈ 60 %).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.accelerator import StrixAccelerator
from repro.arch.hsc import BusyInterval
from repro.params import TFHEParameters


@dataclass
class OccupancyTrace:
    """A Fig. 8-style trace: per-unit busy intervals plus utilizations."""

    parameter_set: str
    lwes_per_core: int
    iterations: int
    intervals: list[BusyInterval]
    utilization: dict[str, float]
    cycle_time_ns: float

    def rows(self) -> list[str]:
        """The resource rows of the trace, in the order they first appear
        (the PBS pipeline's stages, then the scratchpad and HBM)."""
        return list(dict.fromkeys(interval.unit for interval in self.intervals))

    def horizon_cycles(self) -> int:
        """Last busy cycle of the trace."""
        return max(interval.end_cycle for interval in self.intervals) if self.intervals else 0

    def render(self, width: int = 96) -> str:
        """Render the trace as a textual Gantt chart."""
        horizon = max(self.horizon_cycles(), 1)
        scale = width / horizon
        lines = [
            f"Occupancy trace — parameter set {self.parameter_set}, "
            f"{self.lwes_per_core} LWEs/core, {self.iterations} BR iterations "
            f"({horizon} cycles ≈ {horizon * self.cycle_time_ns:.0f} ns)"
        ]
        for row in self.rows():
            chart = [" "] * width
            for interval in self.intervals:
                if interval.unit != row:
                    continue
                start = int(interval.start_cycle * scale)
                end = max(int(interval.end_cycle * scale), start + 1)
                marker = str((interval.lwe_index % 9) + 1)
                for position in range(start, min(end, width)):
                    chart[position] = marker
            busy = self.utilization.get(row, 0.0)
            lines.append(f"{row:>18} |{''.join(chart)}| {busy:5.1%}")
        return "\n".join(lines)


def build_occupancy_trace(
    accelerator: StrixAccelerator,
    params: TFHEParameters,
    lwes_per_core: int = 3,
    iterations: int = 2,
) -> OccupancyTrace:
    """Build the Fig. 8 trace for one HSC of the given accelerator."""
    core = accelerator.core
    intervals = list(core.occupancy_trace(params, lwes_per_core, iterations))
    timing = core.pipeline_timing(params)

    # Local scratchpad: read by the rotator, written by the accumulator.
    scratchpad_intervals = [
        BusyInterval(
            unit="local_scratchpad",
            lwe_index=interval.lwe_index,
            iteration=interval.iteration,
            start_cycle=interval.start_cycle,
            end_cycle=interval.end_cycle,
        )
        for interval in intervals
        if interval.unit in ("rotator", "accumulator")
    ]

    # HBM: the chip's whole demand (bootstrapping key, keyswitching key,
    # ciphertexts) overlaps compute (double buffering): it occupies the bus
    # for demand / bandwidth of each iteration, from the iteration's start.
    demand = accelerator.required_bandwidth(params).total
    iteration_span = lwes_per_core * timing.initiation_interval
    fetch_cycles = int(min(1.0, demand / accelerator.config.hbm_bandwidth_gbps) * iteration_span)
    hbm_intervals = [
        BusyInterval(
            unit="hbm",
            lwe_index=0,
            iteration=iteration,
            start_cycle=iteration * iteration_span,
            end_cycle=iteration * iteration_span + fetch_cycles,
        )
        for iteration in range(iterations)
    ]

    all_intervals = intervals + scratchpad_intervals + hbm_intervals
    utilization = _utilization(all_intervals)
    return OccupancyTrace(
        parameter_set=params.name,
        lwes_per_core=lwes_per_core,
        iterations=iterations,
        intervals=all_intervals,
        utilization=utilization,
        cycle_time_ns=accelerator.config.cycle_time_ns,
    )


def _utilization(intervals: list[BusyInterval]) -> dict[str, float]:
    """Busy fraction per resource, merging overlapping intervals."""
    if not intervals:
        return {}
    horizon = max(interval.end_cycle for interval in intervals)
    start = min(interval.start_cycle for interval in intervals)
    window = max(horizon - start, 1)
    by_unit: dict[str, list[tuple[int, int]]] = {}
    for interval in intervals:
        by_unit.setdefault(interval.unit, []).append((interval.start_cycle, interval.end_cycle))
    utilization = {}
    for unit, spans in by_unit.items():
        spans.sort()
        busy = 0
        current_start, current_end = spans[0]
        for span_start, span_end in spans[1:]:
            if span_start <= current_end:
                current_end = max(current_end, span_end)
            else:
                busy += current_end - current_start
                current_start, current_end = span_start, span_end
        busy += current_end - current_start
        utilization[unit] = busy / window
    return utilization
