"""The observatory's contract: workload names, metric names, units, bounds.

``BENCHMARK.json`` at the repository root is generated from (and tested
against) :func:`benchmark_manifest`, so the names a run emits, the names the
manifest lists and the names the README explains cannot drift apart.

Every run prints *every* metric of its kind (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``).  An end-to-end metric therefore has one
definition per workload (see ``README.md``); a per-layer metric of a layer
the workload does not exercise reads 0 — "this layer did no work here" is
itself the prediction the workload table makes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One named set of inputs the benchmark runs."""

    name: str
    why: str


@dataclass(frozen=True)
class Metric:
    """One named number a run reports."""

    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only; per-layer metrics are diagnostics).
    bound: float | None = None


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "pbs-set-I-batch64",
        "Paper set I (n=500, N=1024), one batch-64 NAND per segment: FFT + einsum + "
        "decompose inside 500 CMux iterations; tfhe.batch and fft do all the work.",
    ),
    Workload(
        "pbs-small-single",
        "SMALL (N=256), batch 1, 2-bit LUT: Python dispatch and per-iteration "
        "allocation dominate, FFT flops do not; also the scalar == vectorized gate.",
    ),
    Workload(
        "serve-sim-analytical",
        "Steady + bursty + heavy-tail traces (40 simulated s) through Server.simulate "
        "with the closed-form cost model: queue, batcher, loop and layouts dominate.",
    ),
    Workload(
        "serve-sim-event",
        "Same three traces (20 simulated s) with cost_model=event and a cold schedule "
        "cache per pass: sched.cost into sim.scheduler is most of the time.",
    ),
    Workload(
        "wire-open-loop",
        "Loopback TCP, 2 connections: trace replay vs in-process, open loop at 4000 "
        "req/s timed from due time, pipelined saturation; net and async serve work.",
    ),
)

END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("host_ops_per_s", "1/s", "higher", 0.20),
    Metric("host_op_p50_s", "s", "lower", 0.20),
    Metric("modeled_pbs_per_device_s", "1/s", "higher", 0.02),
    Metric("model_table5_max_rel_err", "ratio", "lower", 0.01),
)


def _layer(prefix: str, *fields: tuple[str, str, str]) -> tuple[Metric, ...]:
    return tuple(Metric(f"{prefix}.{name}", unit, better) for name, unit, better in fields)


PER_LAYER: tuple[Metric, ...] = (
    *_layer(
        "tfhe.batch",
        ("modulus_switch_s", "s", "lower"),
        ("blind_rotate_s", "s", "lower"),
        ("blind_rotate_self_s", "s", "lower"),
        ("sample_extract_s", "s", "lower"),
        ("keyswitch_s", "s", "lower"),
        ("gate_linear_s", "s", "lower"),
        ("pbs_calls", "count", "higher"),
        ("cmux_iterations", "count", "lower"),
        ("bit_exact_share", "ratio", "higher"),
        ("call_p99_s", "s", "lower"),
    ),
    Metric("tfhe.scalar_pbs_per_s", "1/s", "higher"),
    *_layer(
        "fft",
        ("forward_s", "s", "lower"),
        ("inverse_s", "s", "lower"),
        ("forward_calls", "count", "lower"),
        ("inverse_calls", "count", "lower"),
        ("polys_transformed", "count", "lower"),
        ("flops_computed", "count", "lower"),
    ),
    *_layer(
        "runtime",
        ("keygen_s", "s", "lower"),
        ("encrypt_s", "s", "lower"),
        ("decrypt_s", "s", "lower"),
        ("session_marshal_s", "s", "lower"),
    ),
    *_layer(
        "serve",
        ("queue.busy_s", "s", "lower"),
        ("queue.calls", "count", "lower"),
        ("queue.oldest_calls_per_req", "ratio", "lower"),
        ("batcher.busy_s", "s", "lower"),
        ("batcher.poll_calls", "count", "lower"),
        ("batcher.batches", "count", "lower"),
        ("batcher.mean_fill", "ratio", "higher"),
        ("batcher.flush_full_share", "ratio", "higher"),
        ("cluster.dispatch_self_s", "s", "lower"),
        ("metrics.summarize_s", "s", "lower"),
        ("server.loop_self_s", "s", "lower"),
        ("modeled_p99_latency_s", "s", "lower"),
        ("modeled_pbs_per_s", "1/s", "higher"),
    ),
    *_layer(
        "sched",
        ("layouts.dispatch_self_s", "s", "lower"),
        ("cost.batch_cost_self_s", "s", "lower"),
        ("memo.hit_share", "ratio", "higher"),
        ("memo.misses", "count", "lower"),
        ("memo.evictions", "count", "lower"),
    ),
    *_layer(
        "sim",
        ("scheduler.run_s", "s", "lower"),
        ("scheduler.runs", "count", "lower"),
        ("scheduler.host_us_per_epoch", "us", "lower"),
    ),
    *_layer(
        "arch",
        ("key_cache.place_self_s", "s", "lower"),
        ("key_cache.hit_share", "ratio", "higher"),
        ("key_cache.evictions", "count", "lower"),
        ("key_cache.reships", "count", "lower"),
        ("model_pbs_per_s_I", "1/s", "higher"),
        ("model_pbs_per_s_II", "1/s", "higher"),
        ("model_pbs_per_s_III", "1/s", "higher"),
        ("model_pbs_per_s_IV", "1/s", "higher"),
    ),
    *_layer(
        "obs",
        ("tracer_overhead_share", "ratio", "lower"),
        ("spans_recorded", "count", "lower"),
        ("modeled_queue_s_p50", "s", "lower"),
        ("modeled_service_s_p50", "s", "lower"),
    ),
    *_layer(
        "net",
        ("codec.encode_submit_ns", "ns", "lower"),
        ("codec.decode_submit_ns", "ns", "lower"),
        ("codec.encode_result_ns", "ns", "lower"),
        ("codec.decode_result_ns", "ns", "lower"),
        ("codec.busy_s", "s", "lower"),
        ("protocol.encode_frame_ns", "ns", "lower"),
        ("protocol.decode_frame_ns", "ns", "lower"),
        ("protocol.busy_s", "s", "lower"),
        ("wire.bytes_per_req", "B", "lower"),
        ("wire.frames_per_req", "ratio", "lower"),
        ("replay_req_per_s", "1/s", "higher"),
        ("replay_transport_overhead_x", "ratio", "lower"),
        ("open_loop_p99_s", "s", "lower"),
        ("loadgen_late_p99_s", "s", "lower"),
        ("server.busy_sent", "count", "lower"),
        ("client.credit_stalls", "count", "lower"),
        ("live_batches", "count", "lower"),
        ("live_mean_fill", "ratio", "higher"),
    ),
    *_layer(
        "harness",
        ("calib_py_s", "s", "lower"),
        ("calib_np_s", "s", "lower"),
        ("calib_np_large_s", "s", "lower"),
        ("raw_host_pbs_per_s", "1/s", "higher"),
        ("raw_sim_req_per_wall_s", "1/s", "higher"),
        ("raw_wire_sat_req_per_s", "1/s", "higher"),
        ("segment_iqr_share", "ratio", "lower"),
        ("trace_overhead_share", "ratio", "lower"),
        ("attributed_share", "ratio", "higher"),
    ),
)

#: How long one driver run measures; every workload sizes its segment count
#: from ``--seconds`` and never its problem size.
RUN_SECONDS = 10


def workload_names() -> list[str]:
    """Workload names in catalogue order."""
    return [workload.name for workload in WORKLOADS]


def benchmark_manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/observatory/run.py"],
        "paths": ["benchmarks/observatory"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
