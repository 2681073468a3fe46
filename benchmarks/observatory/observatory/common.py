"""Pieces every workload shares: the run result, checks, model accuracy."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.arch.accelerator import StrixAccelerator
from repro.baselines import PUBLISHED_PBS_RESULTS
from repro.params import get_parameters

from observatory.calib import PROBE_REF_S, Calibration, Segment, spread_share
from observatory.spans import Recorder, SpanTotal

#: Set-up is repeated past the minimum while all repeats so far took less.
SETUP_BUDGET_S = 2.0


@dataclass(frozen=True)
class Options:
    """What the command line asked of one workload run."""

    seed: int
    seconds: float
    traced: bool
    #: Shrinks problem sizes for the smoke test; numbers at ``scale < 1`` are
    #: not comparable with anything.
    scale: float = 1.0

    def scaled(self, size: int, floor: int = 1) -> int:
        """``size`` at this run's scale, never below ``floor``."""
        return max(floor, round(size * self.scale))

    @property
    def smoke(self) -> bool:
        """A shrunken run: fixed costs dominate, so repeats are cut to one."""
        return self.scale < 1.0

    @property
    def setup_repeats(self) -> tuple[int, int]:
        """Fewest and most fresh set-ups timed for ``setup_s``; the traced run
        does not report it, so it sets up once."""
        return (1, 1) if self.traced or self.smoke else (3, 7)

    def calibration(self, kind: str) -> Calibration:
        """Probe readings scaled by ``kind``; a single repeat at smoke scale."""
        return Calibration(kind, repeats=1) if self.smoke else Calibration(kind)

    @property
    def measured_seconds(self) -> float:
        """Untraced measuring time: the traced run only needs a baseline."""
        return 0.0 if self.traced else self.seconds


@dataclass
class Result:
    """Outcome of one workload run: counts, failed checks, metrics."""

    attempted: int = 0
    failed: int = 0
    #: Human-readable description of every check that did not hold.
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Diagnostics printed beside the metrics but not part of the result.
    notes: dict[str, float] = field(default_factory=dict)
    #: Spans of the traced pass (written out on ``--trace-out``).
    recorder: Recorder | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def count(self, attempted: int, failed: int, what: str) -> None:
        """Add ``attempted`` checked operations of which ``failed`` were wrong."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} of {attempted} {what}")

    def require(self, holds: bool, what: str) -> None:
        """Record a whole-run check that is not a count of operations."""
        if not holds:
            self.problems.append(what)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def strix_model_pbs_per_s() -> dict[str, float]:
    """Modeled Strix PBS/s for parameter sets I-IV (the Table V column)."""
    accelerator = StrixAccelerator()
    return {
        name: accelerator.pbs_performance(get_parameters(name)).throughput_pbs_per_s
        for name in ("I", "II", "III", "IV")
    }


def table5_max_rel_err(modeled: dict[str, float]) -> float:
    """Largest relative error of modeled Strix PBS/s (by set) against Table V."""
    return max(
        abs(modeled[row.parameter_set] - row.throughput_pbs_per_s) / row.throughput_pbs_per_s
        for row in PUBLISHED_PBS_RESULTS
        if row.platform == "Strix"
    )


def finish(result: Result) -> Result:
    """The numbers every workload reports the same way."""
    modeled = strix_model_pbs_per_s()
    result.metrics["model_table5_max_rel_err"] = table5_max_rel_err(modeled)
    for parameter_set, value in modeled.items():
        result.metrics[f"arch.model_pbs_per_s_{parameter_set}"] = value
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    return result


def attribution_metrics(
    result: Result, options: Options, root: SpanTotal, untraced_wall_s: float, required: bool
) -> None:
    """Share of the traced wall time that lies in a named layer, and what
    tracing cost against the same work untraced."""
    share = 1.0 - root.self_s / root.total_s
    result.metrics["harness.attributed_share"] = share
    result.metrics["harness.trace_overhead_share"] = 1.0 - untraced_wall_s / root.total_s
    if required and not options.smoke:
        result.require(share >= 0.95, f"only {share:.1%} of the traced wall time is attributed")


def timed_set_up(
    options: Options,
    calibration: Calibration,
    set_up: Callable[[], Any],
    tear_down: Callable[[Any], None] | None = None,
) -> tuple[Any, float]:
    """Set up repeatedly; returns the last state and the calibrated median
    set-up time.  A short set-up is repeated more often (up to
    ``SETUP_BUDGET_S`` in total): it is the noisier measurement.  The previous
    state is released before the next set-up, so peak RSS never holds two."""
    fewest, most = options.setup_repeats
    before = calibration.read()
    times: list[float] = []
    state = None
    while len(times) < fewest or (len(times) < most and sum(times) < SETUP_BUDGET_S):
        if state is not None and tear_down is not None:
            tear_down(state)
        state = None
        start = time.perf_counter()
        state = set_up()
        times.append(time.perf_counter() - start)
    return state, statistics.median(times) * calibration.scale(before, calibration.read())


def throughput_metrics(
    result: Result, calibration: Calibration, segments: list[Segment], raw_name: str, group: int = 1
) -> None:
    """Fill ``host_ops_per_s`` and the ``harness.*`` numbers of a segment run.

    Segments ``i``, ``i + group``, ... repeat the same work; the calibrated
    time of that work is the median over its repeats, and the reported rate
    is one group's operations over the sum of those medians.
    """

    def rate(wall_s) -> float:
        slots = [segments[slot::group] for slot in range(group)]
        ops = sum(repeats[0].ops for repeats in slots)
        return ops / sum(statistics.median(map(wall_s, repeats)) for repeats in slots)

    result.metrics["host_ops_per_s"] = rate(lambda segment: segment.calibrated_wall_s)
    groups = [segments[start : start + group] for start in range(0, len(segments), group)]
    for name, metric in (
        ("py", "harness.calib_py_s"),
        ("np_small", "harness.calib_np_s"),
        ("np_large", "harness.calib_np_large_s"),
    ):
        result.metrics[metric] = statistics.median(s.probes[name] for s in segments)
    result.metrics[raw_name] = rate(lambda segment: segment.wall_s)
    result.metrics["harness.segment_iqr_share"] = spread_share(
        [
            sum(s.ops for s in members) / sum(s.calibrated_wall_s for s in members)
            for members in groups
        ]
    )
    result.notes["harness.segments"] = len(segments)
    result.notes[f"harness.probe_ref_{calibration.kind}_s"] = PROBE_REF_S[calibration.kind]
