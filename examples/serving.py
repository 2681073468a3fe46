"""Serving: many tenants, one sharded Strix cluster.

Walks the :mod:`repro.serve` layer end to end: a :class:`repro.serve.Server`
coalesces small multi-tenant requests into epoch-sized batches (flush on
batch-full or deadline), ships them to a cluster of simulated Strix devices
under a sharding policy, and reports p50/p99 latency, throughput and
per-device utilization.  The same cluster also executes one large workload
sharded across every device via ``run(..., backend="strix-cluster")``.

Run with:  python examples/serving.py
"""

from __future__ import annotations

import asyncio

from repro import run
from repro.apps.traffic import TRAFFIC_PATTERNS
from repro.serve import Server, list_cost_models, list_layouts, list_policies


def traffic_patterns() -> None:
    """The serving simulation under three arrival patterns."""
    print("== Serving simulation: queue -> adaptive batcher -> cluster ==\n")
    traces = {
        "steady": TRAFFIC_PATTERNS["steady"](rate_rps=1500, duration_s=0.25, seed=7),
        "bursty": TRAFFIC_PATTERNS["bursty"](
            burst_rate_rps=6000, duration_s=0.25, seed=7
        ),
        "heavy-tail": TRAFFIC_PATTERNS["heavy-tail"](
            rate_rps=1500, duration_s=0.25, seed=7
        ),
    }
    for pattern, trace in traces.items():
        server = Server(devices=4, policy="least-loaded", params="I")
        report = server.simulate(trace, label=pattern)
        print(report.render())
        print()


def cluster_scaling() -> None:
    """One Fig. 7 Deep-NN workload sharded across 1 / 2 / 4 devices."""
    print("== Cluster scaling: NN-20 sharded across devices ==\n")
    single = run("NN-20", backend="strix-sim", params="I")
    print(f"{'strix-sim (1 device)':>24}: {single.latency_ms:8.3f} ms")
    for devices in (1, 2, 4):
        result = run("NN-20", backend="strix-cluster", devices=devices)
        speedup = single.latency_s / result.latency_s
        print(
            f"{f'strix-cluster ({devices} dev)':>24}: {result.latency_ms:8.3f} ms "
            f"({speedup:.2f}x, imbalance "
            f"{result.details['straggler']['imbalance']:.2f})"
        )
    print()


def scheduling_core() -> None:
    """The sched seams: layouts, cost models, QoS and key shipping."""
    print("== Scheduling core: layouts x cost models x QoS ==\n")
    print(f"layouts {list_layouts()}, policies {list_policies()}, cost models {list_cost_models()}\n")
    trace = TRAFFIC_PATTERNS["heavy-tail"](rate_rps=1200, duration_s=0.2, seed=7)
    variants = {
        "data-parallel + analytical": {},
        "data-parallel + event": {"cost_model": "event"},
        "pipeline": {"layout": "pipeline"},
        "elastic": {"layout": "elastic"},
        "fair QoS": {"qos": "fair"},
    }
    for label, options in variants.items():
        server = Server(devices=4, policy="least-loaded", params="I", **options)
        report = server.simulate(trace, label=label)
        metrics = report.metrics
        shipping = metrics.cost_breakdown.get("key_shipping_s", 0.0)
        print(
            f"{label:>26}: p50 {metrics.latency.p50_s * 1e3:7.3f} ms, "
            f"p99 {metrics.latency.p99_s * 1e3:7.3f} ms, "
            f"key shipping {shipping * 1e3:7.3f} ms"
        )
    print()
    # One deep model pipelined stage-per-device, with per-stage breakdown.
    result = run("NN-100", backend="strix-cluster", devices=4, layout="pipeline")
    print("NN-100 pipelined over 4 devices:")
    for stage in result.details["stages"]:
        print(
            f"  stage on dev{stage['device']}: {stage['latency_s'] * 1e3:8.3f} ms, "
            f"{stage['pbs']:,} PBS, transfer in {stage['transfer_in_s'] * 1e6:6.2f} us"
        )
    print()


def key_memory() -> None:
    """Key residency under a finite per-device HBM budget."""
    print("== Key memory: eviction and re-shipping under an HBM budget ==\n")
    trace = TRAFFIC_PATTERNS["heavy-tail"](
        rate_rps=1200, duration_s=0.2, seed=7, tenants=12
    )
    probe = Server(devices=4, params="I")
    per_tenant = probe.cluster.interconnect.key_set_bytes(probe.params)
    print(f"one tenant's BSK+KSK set: {per_tenant / 1e6:.1f} MB")
    variants = {
        "unbounded": {},
        "2 tenants/device": {"key_budget_bytes": 2 * per_tenant + 1},
        "2 tenants + key-affinity": {
            "key_budget_bytes": 2 * per_tenant + 1,
            "policy": "key-affinity",
        },
    }
    for label, options in variants.items():
        policy = options.pop("policy", "least-loaded")
        server = Server(devices=4, policy=policy, params="I", **options)
        report = server.simulate(list(trace), label=label)
        metrics = report.metrics
        keys = metrics.key_cache
        shipping = metrics.cost_breakdown.get("key_shipping_s", 0.0)
        print(
            f"{label:>26}: p99 {metrics.latency.p99_s * 1e3:7.3f} ms, "
            f"shipping {shipping * 1e3:7.3f} ms, "
            f"{keys['evictions']:4d} evictions, {keys['reships']:4d} re-ships"
        )
    print()


async def async_submission() -> None:
    """The online path: awaitable per-request outcomes."""
    print("== Async submission: three tenants, one batcher ==\n")
    async with Server(devices=2, params="I", max_batch_delay_s=0.005) as server:
        jobs = [
            server.submit_async(f"tenant{index % 3}", "bootstrap", items=32)
            for index in range(9)
        ]
        outcomes = await asyncio.gather(*jobs)
    for outcome in outcomes[:3]:
        print(
            f"{outcome.request.tenant}: batch {outcome.batch_id} on "
            f"dev{outcome.device}, latency {outcome.latency_s * 1e3:.3f} ms "
            f"({outcome.queue_delay_s * 1e3:.3f} ms of it queued)"
        )
    batches = len({outcome.batch_id for outcome in outcomes})
    print(f"...{len(outcomes)} requests coalesced into {batches} batch(es)\n")


def main() -> None:
    traffic_patterns()
    cluster_scaling()
    scheduling_core()
    key_memory()
    asyncio.run(async_submission())
    print("Tenant key material stays per-tenant: Server.session_for(tenant)")
    print("derives a distinct Session (client/server keys) for every tenant.")


if __name__ == "__main__":
    main()
