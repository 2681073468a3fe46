"""Serving-layer benchmark: the modeled, deterministic serving records.

Writes ``BENCH_serve.json``.  Every record is an output of the Strix model
on a seeded trace — a pure function of the code, so two runs write the same
``records`` and ``check_regression.py`` gates them at a tight tolerance.
Nothing here reads a clock: how fast this software runs on the host is
measured by ``benchmarks/observatory/`` (``BENCHMARK.json``), not here.

* ``serve/<pattern>`` — the serving simulation (queue → adaptive batcher →
  sharded cluster) under the steady, bursty and heavy-tail arrival patterns:
  p50/p99 latency, request and PBS throughput, mean batch fill and
  per-device utilization;
* ``cluster/...`` — the Fig. 7 Deep-NN workload on the single-device
  simulator versus the sharded cluster at 2 and 4 devices (latency,
  throughput, speedup, straggler imbalance);
* ``layout/...`` — the scheduling-core seams: data-parallel vs pipeline vs
  elastic placement and the analytical vs event-driven cost model under one
  heavy-tail trace (p99, key shipping, stage transfer);
* ``keymem/...`` — key-memory budgets: one many-tenant trace served with
  unbounded per-device key memory versus a two-tenant budget (evictions,
  re-ships, shipping seconds, p99), with and without key-affinity dispatch;
* ``cost_cache/...`` — the event model's schedule cache on a repeated-shape
  trace: hit/miss/entry counters, hit rate and p99 of a warm ``simulate()``
  (what a hit or a miss costs on the host is the observatory's
  ``serve-sim-event`` workload: ``sched.memo.*``, ``sim.scheduler.*``);
* ``net/...`` — the wire front-end: proof that a trace replayed over
  loopback TCP is bit-for-bit the in-process simulation, plus framing
  bytes/frames per request (round trips and wire throughput are the
  observatory's ``wire-open-loop`` workload);
* ``faults/...`` — degraded-mode serving: the canonical device death at
  mid-trace per layout (requests lost, recovery seconds, key re-ship
  bytes, p99 under degradation), and the ``faults/none/bit_identical``
  record proving an empty fault schedule keeps serving byte-identical;
* ``overload/...`` — admission control under saturation: goodput and
  p99-of-admitted at 1x/2x/4x the cluster's measured capacity per
  admission policy, plus the acceptance record — at 4x saturation a
  reject-newest server keeps admitted p99 within 2x of its 1x baseline
  while goodput stays >= 80% of device capacity.

Run it directly (``--smoke`` shrinks the traces for CI)::

    python benchmarks/bench_serve.py --smoke
"""

from __future__ import annotations

import argparse

from harness import BenchReport, ensure_repro_importable

ensure_repro_importable()

from repro import run  # noqa: E402  (path bootstrap above)
from repro.apps.traffic import bursty_trace, heavy_tail_trace, steady_trace  # noqa: E402
from repro.faults import FaultSchedule  # noqa: E402
from repro.net.loadgen import replay_trace  # noqa: E402
from repro.serve import Request, Server  # noqa: E402
from repro.serve.request import RequestKind  # noqa: E402

#: The Fig. 7 application workload the cluster scaling study runs.
FIG7_WORKLOAD = "NN-20"


def bench_serving_patterns(
    report: BenchReport, devices: int, duration_s: float, seed: int
) -> None:
    """Simulate the three arrival patterns and record their metrics."""
    traces = {
        "steady": steady_trace(rate_rps=1500.0, duration_s=duration_s, seed=seed),
        "bursty": bursty_trace(
            burst_rate_rps=6000.0, duration_s=duration_s, seed=seed
        ),
        "heavy-tail": heavy_tail_trace(
            rate_rps=1500.0, duration_s=duration_s, seed=seed
        ),
    }
    for pattern, trace in traces.items():
        server = Server(devices=devices, policy="least-loaded", params="I")
        serve_report = server.simulate(trace, label=pattern)
        metrics = serve_report.metrics
        base = f"serve/{pattern}"
        report.add(f"{base}/p50_latency", metrics.latency.p50_s, "s", **serve_report.to_dict())
        report.add(f"{base}/p99_latency", metrics.latency.p99_s, "s")
        report.add(f"{base}/requests_per_s", metrics.requests_per_s, "req/s")
        report.add(f"{base}/pbs_per_s", metrics.pbs_per_s, "PBS/s")
        report.add(
            f"{base}/mean_device_utilization",
            sum(metrics.device_utilization.values())
            / max(len(metrics.device_utilization), 1),
            "fraction",
            per_device=metrics.device_utilization,
        )
        print(serve_report.render())
        print()


def bench_cluster_scaling(report: BenchReport) -> None:
    """Fig. 7 Deep-NN workload: single device versus the sharded cluster."""
    single = run(FIG7_WORKLOAD, backend="strix-sim", params="I")
    report.add(
        "cluster/strix-sim/latency", single.latency_s, "s", workload=FIG7_WORKLOAD
    )
    report.add(
        "cluster/strix-sim/throughput", single.throughput_pbs_per_s, "PBS/s"
    )
    for devices in (2, 4):
        result = run(FIG7_WORKLOAD, backend="strix-cluster", devices=devices)
        speedup = single.latency_s / result.latency_s
        straggler = result.details["straggler"]
        base = f"cluster/{devices}dev"
        report.add(f"{base}/latency", result.latency_s, "s", workload=FIG7_WORKLOAD)
        report.add(f"{base}/throughput", result.throughput_pbs_per_s, "PBS/s")
        report.add(
            f"{base}/speedup_vs_single",
            speedup,
            "x",
            imbalance=straggler["imbalance"],
        )
        print(
            f"{FIG7_WORKLOAD} on {devices} device(s): "
            f"{result.latency_ms:.3f} ms ({speedup:.2f}x vs strix-sim)"
        )
    print()


def bench_layouts_and_cost_models(
    report: BenchReport, duration_s: float, seed: int
) -> None:
    """The scheduling-core seams under one heavy-tail trace."""
    trace = heavy_tail_trace(rate_rps=1200.0, duration_s=duration_s, seed=seed)
    variants = {
        "data-parallel/analytical": {"layout": "data-parallel"},
        "data-parallel/event": {"layout": "data-parallel", "cost_model": "event"},
        "pipeline/analytical": {"layout": "pipeline"},
        "elastic/analytical": {"layout": "elastic"},
    }
    for label, options in variants.items():
        server = Server(devices=4, policy="least-loaded", params="I", **options)
        serve_report = server.simulate(trace, label=label)
        metrics = serve_report.metrics
        base = f"layout/{label}"
        report.add(f"{base}/p99_latency", metrics.latency.p99_s, "s")
        report.add(
            f"{base}/key_shipping",
            metrics.cost_breakdown.get("key_shipping_s", 0.0),
            "s",
        )
        if "stage_transfer_s" in metrics.cost_breakdown:
            report.add(
                f"{base}/stage_transfer",
                metrics.cost_breakdown["stage_transfer_s"],
                "s",
            )
        if "active_devices" in metrics.cost_breakdown:
            report.add(
                f"{base}/peak_active_devices",
                metrics.cost_breakdown["active_devices"],
                "devices",
            )
        print(serve_report.render())
        print()


def bench_key_memory(report: BenchReport, duration_s: float, seed: int) -> None:
    """Key-memory budgets: tenant churn past the per-device HBM budget."""
    trace = heavy_tail_trace(
        rate_rps=1200.0, duration_s=duration_s, seed=seed, tenants=12
    )
    probe = Server(devices=4, params="I")
    per_tenant = probe.cluster.interconnect.key_set_bytes(probe.params)
    two_tenants = 2 * per_tenant + 1
    variants = {
        "unbounded": {},
        "budget-2": {"key_budget_bytes": two_tenants},
        "budget-2-affinity": {
            "key_budget_bytes": two_tenants,
            "policy": "key-affinity",
        },
    }
    for label, options in variants.items():
        policy = options.pop("policy", "least-loaded")
        server = Server(devices=4, policy=policy, params="I", **options)
        serve_report = server.simulate(list(trace), label=f"keymem-{label}")
        metrics = serve_report.metrics
        counters = metrics.key_cache
        base = f"keymem/{label}"
        report.add(f"{base}/p99_latency", metrics.latency.p99_s, "s")
        report.add(
            f"{base}/key_shipping",
            metrics.cost_breakdown.get("key_shipping_s", 0.0),
            "s",
        )
        report.add(f"{base}/evictions", counters["evictions"], "count")
        report.add(f"{base}/reships", counters["reships"], "count")
        report.add(
            f"{base}/hit_rate",
            counters["hits"] / max(counters["hits"] + counters["misses"], 1),
            "fraction",
        )
        print(serve_report.render())
        print()


def bench_cost_cache(report: BenchReport, duration_s: float, seed: int) -> None:
    """Event-model batch pricing with a warm schedule cache.

    The trace repeats a handful of batch shapes (bootstrap bursts plus
    NN-20/NN-50 inferences), the steady-traffic case the schedule cache
    exists for: after one populating ``simulate()`` every batch of the next
    prices as a dictionary lookup.  The counters and the p99 of that warm
    run are the records; the p99 equals an uncached server's by
    construction (``tests/test_cost_memo.py``).
    """
    requests = max(int(2000 * duration_s), 64)

    # Period-8 request pattern: bootstrap bursts of two sizes plus one
    # NN-20 and one NN-50 inference per period, so flushed batches repeat
    # a small set of shapes with real multi-level graphs in them.
    def shape(i: int) -> tuple[str, int, "str | None"]:
        slot = i % 8
        if slot == 3:
            return ("inference", 1, "NN-20")
        if slot == 7:
            return ("inference", 1, "NN-50")
        return ("bootstrap", 8 if slot % 2 == 0 else 12, None)

    trace = []
    for i in range(requests):
        kind, items, model = shape(i)
        trace.append(
            Request.make(
                i + 1,
                f"tenant{i % 4}",
                kind,
                items,
                arrival_s=i * 5e-4,
                model=model,
            )
        )
    server = Server(devices=4, params="I", cost_model="event", batch_capacity=32)
    server.simulate(list(trace), label="cost-warm")  # populate the cache
    warm_report = server.simulate(list(trace), label="cost-warm")
    counters = warm_report.metrics.cost_cache
    report.add("cost_cache/warm_hits", counters["hits"], "count")
    report.add("cost_cache/warm_misses", counters["misses"], "count")
    report.add("cost_cache/entries", counters["entries"], "count")
    report.add(
        "cost_cache/hit_rate",
        counters["hits"] / max(counters["hits"] + counters["misses"], 1),
        "fraction",
    )
    report.add("cost_cache/p99_latency", warm_report.metrics.latency.p99_s, "s")
    print(warm_report.render())
    print()


def bench_net(report: BenchReport, duration_s: float, seed: int) -> None:
    """The wire front-end: loopback replay fidelity and framing cost.

    The transport must not change the model — the replayed-over-TCP
    outcomes are bit-for-bit the in-process ones, and the framing cost per
    request is a fixed byte count.
    """
    trace = steady_trace(rate_rps=1500.0, duration_s=duration_s, seed=seed)
    requests = len(trace)
    in_process = Server(devices=4, policy="least-loaded", params="I").simulate(
        list(trace), label="net-replay"
    )
    wire = replay_trace(
        trace, devices=4, policy="least-loaded", params="I", label="net-replay"
    )
    identical = (
        wire.outcomes == in_process.outcomes and wire.metrics == in_process.metrics
    )
    report.add("net/replay/bit_for_bit", 1.0 if identical else 0.0, "bool")
    report.add("net/replay/p99_latency", wire.metrics.latency.p99_s, "s")
    wire_bytes = wire.wire["bytes_received"] + wire.wire["bytes_sent"]
    wire_frames = wire.wire["frames_received"] + wire.wire["frames_sent"]
    report.add("net/replay/wire_bytes_per_request", wire_bytes / requests, "B/req")
    report.add("net/replay/frames_per_request", wire_frames / requests, "frames/req")
    print(wire.render())
    print(
        f"net replay: bit-for-bit={'yes' if identical else 'NO'}, "
        f"{wire_bytes / requests:.0f} B/req on the wire"
    )
    print()


def bench_faults(report: BenchReport, duration_s: float, seed: int) -> None:
    """Degraded-mode serving under the canonical mid-trace device death.

    All records are deterministic: failure times come off the schedule and
    service times off the cost models, so requests lost, recovery seconds
    and re-shipped key bytes reproduce bit-for-bit.  The ``faults/none``
    record pins the subsystem's core invariant — an empty schedule leaves
    the serving report byte-identical to a fault-free server's.
    """
    trace = steady_trace(rate_rps=1500.0, duration_s=duration_s, seed=seed)
    death = FaultSchedule.of(FaultSchedule.death(device=1, at_s=duration_s / 2))

    plain = Server(devices=4, params="I").simulate(list(trace), label="faults-base")
    empty = Server(devices=4, params="I", faults=FaultSchedule.empty()).simulate(
        list(trace), label="faults-base"
    )
    identical = (
        empty.outcomes == plain.outcomes
        and empty.metrics.to_dict() == plain.metrics.to_dict()
    )
    report.add("faults/none/bit_identical", 1.0 if identical else 0.0, "bool")

    for layout in ("data-parallel", "pipeline", "elastic"):
        for on_death in ("retry", "drop"):
            server = Server(
                devices=4, params="I", layout=layout, faults=death, on_death=on_death
            )
            result = server.simulate(list(trace), label="faults-death")
            availability = result.metrics.availability
            base = f"faults/death/{layout}/{on_death}"
            lost = availability.get("requests_lost", 0)
            report.add(f"{base}/requests_lost", lost, "count")
            report.add(
                f"{base}/requests_retried",
                availability.get("requests_retried", 0),
                "count",
            )
            report.add(
                f"{base}/conserved",
                1.0 if len(result.outcomes) + lost == len(trace) else 0.0,
                "bool",
            )
            recovery = max(
                (event.get("recovery_s", 0.0) for event in availability.get("events", [])),
                default=0.0,
            )
            report.add(f"{base}/recovery", recovery, "s")
            report.add(
                f"{base}/key_reship_bytes",
                availability.get("key_reship_bytes", 0),
                "B",
            )
            report.add(f"{base}/degraded", availability.get("degraded_s", 0.0), "s")
            report.add(f"{base}/p99_latency", result.metrics.latency.p99_s, "s")
    print(
        f"faults: empty schedule bit-identical={'yes' if identical else 'NO'}, "
        f"canonical death at {duration_s / 2:.2f}s benched on 3 layouts x 2 policies"
    )
    print()


#: Sustained completion rate (requests/s) of the 4-device params-"I"
#: cluster under the bootstrap-only overload mix — measured once with an
#: unbounded queue; the saturation multipliers below scale off it.
OVERLOAD_CAPACITY_RPS = 31300.0


def bench_overload(report: BenchReport, duration_s: float, seed: int) -> None:
    """Admission control at 1x/2x/4x saturation, per policy.

    The server flushes on the batch deadline only (``batch_capacity`` well
    past what a flush window can accumulate), so the bounded request queue
    is the backpressure point and the admission policy is what keeps the
    device backlog finite.  Everything here replays deterministically:
    goodput, admitted-tail latency and every shed/reject count are
    bit-for-bit functions of the trace and the policy.
    """
    mix = {RequestKind.BOOTSTRAP: 1.0}
    config = dict(
        devices=4, params="I", queue_capacity=64, batch_capacity=4096
    )
    baselines: dict[str, dict[int, tuple[float, float]]] = {}
    for policy in ("reject-newest", "shed-oldest", "tenant-quota"):
        baselines[policy] = {}
        for mult in (1, 2, 4):
            trace = steady_trace(
                rate_rps=OVERLOAD_CAPACITY_RPS * mult,
                duration_s=duration_s,
                seed=seed,
                kind_mix=mix,
            )
            server = Server(admission=policy, **config)
            result = server.simulate(list(trace), label=f"overload-{mult}x")
            metrics = result.metrics
            overload = metrics.overload
            goodput = metrics.requests / duration_s
            baselines[policy][mult] = (goodput, metrics.latency.p99_s)
            base = f"overload/{policy}/{mult}x"
            report.add(f"{base}/goodput", goodput, "req/s")
            report.add(f"{base}/p99_admitted", metrics.latency.p99_s, "s")
            report.add(f"{base}/rejected", overload.get("rejected", 0), "count")
            report.add(f"{base}/shed", overload.get("shed", 0), "count")
            conserved = (
                metrics.requests
                + overload.get("rejected", 0)
                + overload.get("shed", 0)
                + overload.get("expired", 0)
                == len(trace)
            )
            report.add(f"{base}/conserved", 1.0 if conserved else 0.0, "bool")

    goodput_1x, p99_1x = baselines["reject-newest"][1]
    goodput_4x, p99_4x = baselines["reject-newest"][4]
    p99_ratio = p99_4x / p99_1x
    goodput_fraction = goodput_4x / OVERLOAD_CAPACITY_RPS
    accepted = p99_ratio <= 2.0 and goodput_fraction >= 0.8
    report.add("overload/acceptance/p99_ratio_4x", p99_ratio, "x")
    report.add("overload/acceptance/goodput_fraction_4x", goodput_fraction, "frac")
    report.add("overload/acceptance/pass", 1.0 if accepted else 0.0, "bool")
    print(
        f"overload: reject-newest 4x saturation p99 {p99_4x * 1e3:.2f}ms "
        f"({p99_ratio:.2f}x of 1x), goodput {goodput_4x:.0f} req/s "
        f"({goodput_fraction:.0%} of capacity) -> "
        f"{'PASS' if accepted else 'FAIL'}"
    )
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small traces for the CI smoke job"
    )
    parser.add_argument("--devices", type=int, default=4, help="cluster size")
    parser.add_argument("--seed", type=int, default=7, help="trace seed")
    parser.add_argument(
        "--output", default=None, help="output path (default: BENCH_serve.json)"
    )
    args = parser.parse_args()

    report = BenchReport("serve")
    duration_s = 0.1 if args.smoke else 0.5
    bench_serving_patterns(report, args.devices, duration_s, args.seed)
    bench_cluster_scaling(report)
    bench_layouts_and_cost_models(report, duration_s, args.seed)
    bench_key_memory(report, duration_s, args.seed)
    bench_cost_cache(report, duration_s, args.seed)
    bench_net(report, duration_s, args.seed)
    bench_faults(report, duration_s, args.seed)
    bench_overload(report, duration_s, args.seed)
    path = report.write(args.output)
    print(f"[saved {len(report.records)} records to {path}]")


if __name__ == "__main__":
    main()
