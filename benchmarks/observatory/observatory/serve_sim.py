"""``serve-sim-analytical`` and ``serve-sim-event``: ``Server.simulate()``.

Three seeded traces (steady, bursty, heavy-tail) each go through a fresh
``Server(devices=4, params="I")``; one pass is the three ``simulate()`` calls.
The traces are served separately because every generator numbers
``request_id`` from 1.  The traced pass wraps the serving classes' methods —
``simulate()`` builds a fresh queue and batcher per run, so instances cannot
be wrapped — and puts the originals back in ``finally``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from repro.apps.traffic import bursty_trace, heavy_tail_trace, steady_trace
from repro.arch.key_cache import KeyResidencyManager
from repro.sched.cost import AnalyticalCostModel, EventDrivenCostModel
from repro.sched.layouts import DataParallelLayout
from repro.sched.memo import ScheduleCache
from repro.serve import Server, StrixCluster
from repro.serve.batcher import AdaptiveBatcher
from repro.serve.metrics import MetricsCollector, ServeMetrics
from repro.serve.queue import RequestQueue
from repro.serve.request import Request
from repro.sim.scheduler import StrixScheduler

from observatory.calib import measure_segments
from observatory.common import (
    Options,
    Result,
    attribution_metrics,
    finish,
    throughput_metrics,
    timed_set_up,
)
from observatory.spans import Recorder, layer_totals


@dataclass(frozen=True)
class ServeSpec:
    """Shape of one serving-simulation workload."""

    cost_model: str
    #: Simulated seconds of each of the three traces.
    duration_s: float
    #: Whether the traced run adds a pass under ``Server.enable_tracing()``.
    obs_pass: bool


SPECS = {
    "serve-sim-analytical": ServeSpec("analytical", duration_s=40.0, obs_pass=True),
    "serve-sim-event": ServeSpec("event", duration_s=20.0, obs_pass=False),
}

#: Every class method the traced pass wraps, by span name.  Nested spans of
#: one layer share a prefix, so a layer's busy time is its spans' self time.
_WRAPS = (
    (Server, "simulate", "serve.server.simulate"),
    (RequestQueue, "push", "serve.queue.push"),
    (RequestQueue, "pop", "serve.queue.pop"),
    (RequestQueue, "pop_for_tenant", "serve.queue.pop_for_tenant"),
    (RequestQueue, "oldest", "serve.queue.oldest"),
    (RequestQueue, "oldest_for_tenant", "serve.queue.oldest_for_tenant"),
    (RequestQueue, "tenant_heads", "serve.queue.tenant_heads"),
    (AdaptiveBatcher, "poll", "serve.batcher.poll"),
    (AdaptiveBatcher, "next_deadline", "serve.batcher.next_deadline"),
    (AdaptiveBatcher, "drain", "serve.batcher.drain"),
    (StrixCluster, "dispatch", "serve.cluster.dispatch"),
    (MetricsCollector, "summarize", "serve.metrics.summarize"),
    (DataParallelLayout, "dispatch", "sched.layouts.dispatch"),
    (AnalyticalCostModel, "batch_cost", "sched.cost.batch_cost"),
    (ScheduleCache, "batch_cost", "sched.cost.batch_cost"),
    (EventDrivenCostModel, "batch_cost", "sched.cost.batch_cost"),
    (KeyResidencyManager, "place", "arch.key_cache.place"),
)


def make_traces(seed: int, duration_s: float) -> list[list[Request]]:
    """The three seeded traces of a serving workload."""
    return [
        steady_trace(1500.0, duration_s, seed=seed),
        bursty_trace(6000.0, duration_s, seed=seed + 1_000_003),
        heavy_tail_trace(1200.0, duration_s, seed=seed + 2_000_003, tenants=12),
    ]


def _server(spec: ServeSpec) -> Server:
    return Server(devices=4, params="I", cost_model=spec.cost_model)


@dataclass
class Served:
    """One ``Server()`` + ``simulate()`` call, reduced to what the checks and
    metrics need: the report itself (one outcome object per request) is
    dropped at once, so peak RSS is the program's, not the harness's."""

    metrics: ServeMetrics
    answered: int
    #: ``repro.obs`` request spans (only under ``Server.enable_tracing()``).
    obs_spans: list


def _simulate(spec: ServeSpec, trace: list[Request], tracing: bool = False) -> Served:
    server = _server(spec)
    tracer = server.enable_tracing() if tracing else None
    report = server.simulate(trace)
    return Served(
        report.metrics, len(report.outcomes), tracer.spans() if tracer is not None else []
    )


def _modeled(served: list[Served]) -> tuple[float, float, float]:
    """(p99 latency, PBS/s, PBS per busy device-second) of one pass, simulated."""
    metrics = [one.metrics for one in served]
    busy_s = sum(sum(m.device_utilization.values()) * m.horizon_s for m in metrics)
    return (
        max(m.latency.p99_s for m in metrics),
        sum(m.pbs_per_s for m in metrics),
        sum(m.total_pbs for m in metrics) / busy_s,
    )


def run(name: str, options: Options) -> Result:
    """Run one serving-simulation workload."""
    spec = SPECS[name]
    result = Result()
    calibration = options.calibration("py")

    def set_up() -> list[list[Request]]:
        made = make_traces(options.seed, spec.duration_s * options.scale)
        for _trace in made:
            _server(spec)
        return made

    traces, result.metrics["setup_s"] = timed_set_up(options, calibration, set_up)
    requests = sum(len(trace) for trace in traces)

    # Warm-up on a prefix: imports, the Deep-NN model templates and the
    # per-parameter-set timing caches fill on the first batches.
    for trace in traces:
        _simulate(spec, trace[: max(50, len(trace) // 20)])

    # One segment is one trace through one fresh server, so every simulate()
    # call has its own pair of probes; a pass is three consecutive segments.
    served: list[Served] = []

    def segment(index: int) -> int:
        trace = traces[index % len(traces)]
        served.append(_simulate(spec, trace))
        return len(trace)

    group = len(traces)
    segments = measure_segments(
        calibration, segment, options.measured_seconds, min_segments=2 * group, group=group
    )
    throughput_metrics(
        result, calibration, segments, "harness.raw_sim_req_per_wall_s", group=group
    )
    # Mean over the three traces of a pass, median over passes: the traces
    # differ in size and cost, so a median over single calls jumps between
    # kinds of trace from run to run.
    result.metrics["host_op_p50_s"] = statistics.median(
        statistics.fmean(one.calibrated_wall_s for one in segments[start : start + group])
        for start in range(0, len(segments), group)
    )
    passes = [served[start : start + group] for start in range(0, len(served), group)]

    if options.traced:
        untraced_wall_s = sum(one.wall_s for one in segments[:group])
        passes.append(_traced_pass(spec, traces, options, untraced_wall_s, result))
        if spec.obs_pass:
            passes.append(_obs_pass(spec, traces, untraced_wall_s, result))

    for done in passes:
        answered = sum(one.answered for one in done)
        result.count(requests, requests - answered, "requests got no outcome")
    modeled = {_modeled(done) for done in passes}
    result.require(
        len(modeled) == 1, f"modeled metrics differ between passes of one run: {sorted(modeled)}"
    )
    p99_s, pbs_per_s, pbs_per_device_s = _modeled(passes[0])
    result.metrics["serve.modeled_p99_latency_s"] = p99_s
    result.metrics["serve.modeled_pbs_per_s"] = pbs_per_s
    result.metrics["modeled_pbs_per_device_s"] = pbs_per_device_s
    result.notes["serve.requests_per_pass"] = requests
    return finish(result)


def _traced_pass(
    spec: ServeSpec,
    traces: list[list[Request]],
    options: Options,
    untraced_wall_s: float,
    result: Result,
) -> list[Served]:
    """One pass with every serving class method under a span."""
    recorder = Recorder()
    epochs = {"total": 0}

    def count_epochs(_args: tuple, schedule: object) -> None:
        epochs["total"] += schedule.total_epochs

    try:
        for owner, attr, name in _WRAPS:
            recorder.wrap(owner, attr, name)
        recorder.wrap(StrixScheduler, "run", "sim.scheduler.run", observe=count_epochs)
        with recorder.span("harness.pass"):
            done = []
            for op, trace in enumerate(traces):
                recorder.op = op
                done.append(_simulate(spec, trace))
    finally:
        recorder.restore()

    totals = recorder.totals()
    requests = sum(len(trace) for trace in traces)
    metrics = result.metrics
    queue = layer_totals(totals, "serve.queue.")
    batcher = layer_totals(totals, "serve.batcher.")
    metrics["serve.queue.busy_s"] = queue.self_s
    metrics["serve.queue.calls"] = queue.calls
    metrics["serve.queue.oldest_calls_per_req"] = totals["serve.queue.oldest"].calls / requests
    metrics["serve.batcher.busy_s"] = batcher.self_s
    metrics["serve.batcher.poll_calls"] = totals["serve.batcher.poll"].calls
    metrics["serve.cluster.dispatch_self_s"] = totals["serve.cluster.dispatch"].self_s
    metrics["serve.metrics.summarize_s"] = totals["serve.metrics.summarize"].total_s
    metrics["serve.server.loop_self_s"] = totals["serve.server.simulate"].self_s
    metrics["sched.layouts.dispatch_self_s"] = totals["sched.layouts.dispatch"].self_s
    metrics["sched.cost.batch_cost_self_s"] = totals["sched.cost.batch_cost"].self_s
    metrics["arch.key_cache.place_self_s"] = totals["arch.key_cache.place"].self_s
    scheduler = totals["sim.scheduler.run"]
    metrics["sim.scheduler.run_s"] = scheduler.total_s
    metrics["sim.scheduler.runs"] = scheduler.calls
    if epochs["total"]:
        metrics["sim.scheduler.host_us_per_epoch"] = scheduler.total_s / epochs["total"] * 1e6

    served = [one.metrics for one in done]
    batches = sum(m.batches for m in served)
    metrics["serve.batcher.batches"] = batches
    metrics["serve.batcher.mean_fill"] = (
        sum(m.mean_batch_fill * m.batches for m in served) / batches
    )
    metrics["serve.batcher.flush_full_share"] = (
        sum(m.flush_reasons.get("full", 0) for m in served) / batches
    )
    for prefix, counters in (
        ("sched.memo", [m.cost_cache for m in served]),
        ("arch.key_cache", [m.key_cache for m in served]),
    ):
        hits, misses = (sum(c.get(key, 0) for c in counters) for key in ("hits", "misses"))
        if hits + misses:
            metrics[f"{prefix}.hit_share"] = hits / (hits + misses)
        metrics[f"{prefix}.evictions"] = sum(c.get("evictions", 0) for c in counters)
    metrics["sched.memo.misses"] = sum(m.cost_cache.get("misses", 0) for m in served)
    metrics["arch.key_cache.reships"] = sum(m.key_cache.get("reships", 0) for m in served)

    attribution_metrics(result, options, totals["harness.pass"], untraced_wall_s, required=True)
    result.notes["harness.spans"] = len(recorder)
    result.recorder = recorder
    return done


def _obs_pass(
    spec: ServeSpec, traces: list[list[Request]], untraced_wall_s: float, result: Result
) -> list[Served]:
    """One pass under the library's own request tracer (``repro.obs``)."""
    start = time.perf_counter()
    done = [_simulate(spec, trace, tracing=True) for trace in traces]
    wall_s = time.perf_counter() - start
    spans = [span for one in done for span in one.obs_spans]
    queue_s = [span.queue_s for span in spans if span.queue_s is not None]
    service_s = [span.service_s for span in spans if span.service_s is not None]
    result.metrics["obs.tracer_overhead_share"] = 1.0 - untraced_wall_s / wall_s
    result.metrics["obs.spans_recorded"] = len(spans)
    result.metrics["obs.modeled_queue_s_p50"] = statistics.median(queue_s)
    result.metrics["obs.modeled_service_s_p50"] = statistics.median(service_s)
    return done
