"""Serving metrics: latency percentiles, throughput, queue depth, utilization.

The serving layer's contract is statistical — p50/p99 latency under a given
arrival pattern, sustained PBS throughput, how deep the queue gets, how busy
every device is.  :class:`MetricsCollector` accumulates raw observations
during a simulation and :meth:`MetricsCollector.summarize` folds them into
one :class:`ServeMetrics` snapshot (renderable, JSON-serializable).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import repeat
from operator import sub
from typing import Any

import numpy as np

from repro.sched.layouts import Dispatch
from repro.serve.batcher import Batch
from repro.serve.request import RequestOutcome

_new_tuple = tuple.__new__


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of a sample.

    An empty sample raises ``ValueError`` — there is no percentile of
    nothing, and the historical silent ``0.0`` let empty-measurement bugs
    masquerade as zero latency.  Callers with a meaningful default guard
    explicitly (as :meth:`LatencySummary.from_samples` does).  A single
    sample is its own value for every ``q``.
    """
    if not values:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be between 0 and 100")
    if len(values) == 1:
        # np.percentile agrees bit-for-bit; the early return just makes the
        # single-sample contract explicit (and skips the array round trip).
        return float(values[0])
    return float(np.percentile(values, q))


@dataclass(frozen=True)
class LatencySummary:
    """Distribution of request latencies over one serving run."""

    count: int
    mean_s: float
    p50_s: float
    p99_s: float
    max_s: float

    @classmethod
    def from_samples(cls, samples: list[float]) -> "LatencySummary":
        """Summarize a latency sample list.

        No samples yields the explicit all-zero summary with ``count == 0``
        (a report must still serialize when a run resolved nothing —
        ``count`` is the "was anything measured" flag, not the zeros).  One
        sample is its own mean, p50, p99 and max exactly.
        """
        if not samples:
            return cls(count=0, mean_s=0.0, p50_s=0.0, p99_s=0.0, max_s=0.0)
        return cls(
            count=len(samples),
            mean_s=sum(samples) / len(samples),
            p50_s=percentile(samples, 50.0),
            p99_s=percentile(samples, 99.0),
            max_s=max(samples),
        )

    def to_dict(self) -> dict[str, float]:
        """JSON-friendly representation (milliseconds for readability)."""
        return {
            "count": self.count,
            "mean_ms": self.mean_s * 1e3,
            "p50_ms": self.p50_s * 1e3,
            "p99_ms": self.p99_s * 1e3,
            "max_ms": self.max_s * 1e3,
        }


@dataclass(frozen=True)
class ServeMetrics:
    """One serving run folded into the numbers the evaluation tracks."""

    horizon_s: float
    requests: int
    batches: int
    total_pbs: int
    latency: LatencySummary
    queue_delay: LatencySummary
    requests_per_s: float
    pbs_per_s: float
    mean_batch_fill: float
    flush_reasons: dict[str, int]
    peak_queue_depth: int
    device_utilization: dict[str, float]
    #: Per-tenant latency distributions (the QoS split: a flooding tenant's
    #: p99 should inflate without dragging everyone else's along).
    tenant_latency: dict[str, LatencySummary] = field(default_factory=dict)
    #: Accumulated dispatch-cost components over the run: ``*_s`` keys are
    #: summed seconds (transfer, key shipping, dispatch overhead...), other
    #: keys report their peak (e.g. ``active_devices`` under the elastic
    #: layout).
    cost_breakdown: dict[str, float] = field(default_factory=dict)
    #: Key-residency counters (hits / misses / onboards / evictions /
    #: reships / shipped_bytes) from the cluster's
    #: :class:`~repro.arch.key_cache.KeyResidencyManager`.
    key_cache: dict[str, int] = field(default_factory=dict)
    #: Schedule-cache counters (hits / misses / evictions / entries) when
    #: the cost model memoizes (the event model's
    #: :class:`~repro.sched.memo.ScheduleCache`); empty otherwise.
    cost_cache: dict[str, int] = field(default_factory=dict)
    #: Fault-injection impact (requests lost / retried, recovery time per
    #: event, key re-ship bytes, degraded seconds) from the cluster's
    #: :class:`~repro.faults.FaultInjector`; empty — and absent from
    #: :meth:`to_dict` — when the run had no fault impact, which keeps
    #: fault-free reports byte-identical to their pre-fault-subsystem form.
    availability: dict[str, Any] = field(default_factory=dict)
    #: Overload-protection ledger (admitted / rejected / shed / expired,
    #: per tenant, plus BUSY replies) from the server's
    #: :class:`~repro.flow.FlowController`; empty — and absent from
    #: :meth:`to_dict` — when no overload event occurred, which keeps
    #: unsaturated reports byte-identical to their pre-flow-subsystem form.
    overload: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot (what ``BENCH_serve.json`` records)."""
        snapshot = {
            "horizon_s": self.horizon_s,
            "requests": self.requests,
            "batches": self.batches,
            "total_pbs": self.total_pbs,
            "latency": self.latency.to_dict(),
            "queue_delay": self.queue_delay.to_dict(),
            "requests_per_s": self.requests_per_s,
            "pbs_per_s": self.pbs_per_s,
            "mean_batch_fill": self.mean_batch_fill,
            "flush_reasons": dict(self.flush_reasons),
            "peak_queue_depth": self.peak_queue_depth,
            "device_utilization": dict(self.device_utilization),
            "tenant_latency": {
                tenant: summary.to_dict()
                for tenant, summary in sorted(self.tenant_latency.items())
            },
            "cost_breakdown": dict(self.cost_breakdown),
            "key_cache": dict(self.key_cache),
            "cost_cache": dict(self.cost_cache),
        }
        if self.availability:
            snapshot["availability"] = dict(self.availability)
        if self.overload:
            snapshot["overload"] = dict(self.overload)
        return snapshot

    def render(self) -> str:
        """Multi-line human-readable summary (used by the example)."""
        utilization = ", ".join(
            f"{device}={fraction:.0%}"
            for device, fraction in sorted(self.device_utilization.items())
        )
        lines = [
            f"requests: {self.requests:,} in {self.batches:,} batches "
            f"({self.mean_batch_fill:.0%} mean fill, flushes: {self.flush_reasons})",
            f"latency:  p50 {self.latency.p50_s * 1e3:.3f} ms, "
            f"p99 {self.latency.p99_s * 1e3:.3f} ms, "
            f"max {self.latency.max_s * 1e3:.3f} ms",
            f"rate:     {self.requests_per_s:,.0f} req/s, "
            f"{self.pbs_per_s:,.0f} PBS/s over {self.horizon_s * 1e3:.1f} ms",
            f"devices:  {utilization}",
            f"queue:    peak depth {self.peak_queue_depth}",
        ]
        if self.tenant_latency:
            split = ", ".join(
                f"{tenant} p99 {summary.p99_s * 1e3:.3f} ms"
                for tenant, summary in sorted(self.tenant_latency.items())
            )
            lines.append(f"tenants:  {split}")
        costs = {
            key: value
            for key, value in sorted(self.cost_breakdown.items())
            if key.endswith("_s") and value > 0
        }
        if costs:
            rendered = ", ".join(
                f"{key[:-2]} {value * 1e3:.3f} ms" for key, value in costs.items()
            )
            lines.append(f"costs:    {rendered}")
        if any(self.key_cache.values()):
            keys = self.key_cache
            lines.append(
                f"keys:     {keys.get('hits', 0)} hits, "
                f"{keys.get('misses', 0)} misses, "
                f"{keys.get('evictions', 0)} evictions, "
                f"{keys.get('reships', 0)} re-ships"
            )
        if self.cost_cache.get("hits") or self.cost_cache.get("misses"):
            costs = self.cost_cache
            lines.append(
                f"schedules: {costs.get('hits', 0)} cache hits, "
                f"{costs.get('misses', 0)} simulations, "
                f"{costs.get('evictions', 0)} evictions"
            )
        if self.availability:
            faults = self.availability
            lines.append(
                f"faults: {faults.get('requests_lost', 0)} requests lost, "
                f"{faults.get('requests_retried', 0)} retried, "
                f"{faults.get('degraded_s', 0.0) * 1e3:.1f} ms degraded, "
                f"{faults.get('key_reship_bytes', 0):,} key bytes re-shipped"
            )
        if self.overload:
            shed = self.overload
            lines.append(
                f"overload: {shed.get('admitted', 0)} admitted, "
                f"{shed.get('rejected', 0)} rejected, "
                f"{shed.get('shed', 0)} shed, "
                f"{shed.get('expired', 0)} expired"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class ServeSnapshot:
    """One instant of a serving run — what :meth:`repro.serve.Server.watch`
    yields periodically to live consumers (dashboards, the future
    autotuning controller).

    Unlike :class:`ServeMetrics` (an end-of-run summary), a snapshot is a
    point-in-time reading: current queue composition, how far the devices'
    busy horizons run past *now* (``backlog_s``), utilization so far, and
    per-tenant p99 over the most recent outcome window.
    """

    #: Reading time on the serving clock.
    t_s: float
    #: Outcomes recorded so far in the active run, taken by its consumer or not.
    requests_done: int
    queue_depth: int
    queued_items: int
    queued_pbs: int
    #: How long the queue head has been waiting (0 when empty).
    oldest_wait_s: float
    #: How far the busiest device's horizon runs past ``t_s`` (0 when idle).
    backlog_s: float
    #: Busy fraction per device since the run started.
    device_utilization: dict[str, float] = field(default_factory=dict)
    #: Waiting request count per tenant (zero entries omitted).
    tenant_depths: dict[str, int] = field(default_factory=dict)
    #: Per-tenant p99 latency over the trailing outcome window.
    tenant_p99_s: dict[str, float] = field(default_factory=dict)


class MetricsCollector:
    """Accumulates raw observations during one serving simulation."""

    def __init__(self, batch_capacity: int):
        self.batch_capacity = batch_capacity
        #: The run's outbox: outcomes recorded and not yet taken by its consumer.
        self.outcomes: list[RequestOutcome] = []
        #: What the summary and a snapshot read, 32 bytes per recorded request
        #: in dispatch order: ``latency_s``, ``queue_delay_s`` and
        #: ``completed_s`` as its outcome has them, and the tenant's shared name.
        self.latencies = array("d")
        self.delays = array("d")
        self.completions = array("d")
        self.tenants: list[str] = []
        self._batch_fills: list[float] = []
        self._total_pbs = 0
        self._batches = 0
        self._cost_breakdown: dict[str, float] = {}

    def record(self, dispatched: list[tuple[Batch, Dispatch]]) -> tuple[list, list]:
        """Record dispatched batches in order; return their requests' latencies
        and queue delays.  ``*_s`` breakdown components accumulate (seconds of
        transfer, key shipping, dispatch overhead across the run); any other
        component keeps its peak (e.g. the elastic layout's ``active_devices``).
        """
        requests, batch_ids, devices, starts, ends = [], [], [], [], []
        fills, totals = self._batch_fills, self._cost_breakdown
        for batch, dispatch in dispatched:
            size = len(batch.requests)
            requests += batch.requests
            batch_ids += [batch.batch_id] * size
            devices += [dispatch.device] * size
            starts += [dispatch.start_s] * size
            ends += [dispatch.end_s] * size
            self._total_pbs += batch.total_pbs
            fills.append(batch.fill_fraction(self.batch_capacity))
            for key, value in dispatch.breakdown.items():
                if key.endswith("_s"):
                    totals[key] = totals.get(key, 0.0) + value
                else:
                    totals[key] = max(totals.get(key, value), value)
        self._batches += len(dispatched)
        arrivals = [request.arrival_s for request in requests]
        latencies = list(map(sub, ends, arrivals))
        delays = list(map(sub, starts, arrivals))
        # RequestOutcome(...) minus the named tuple's Python-level __new__.
        columns = zip(requests, batch_ids, devices, starts, ends)
        self.outcomes += map(_new_tuple, repeat(RequestOutcome), columns)
        self.latencies.extend(latencies)
        self.delays.extend(delays)
        self.completions.extend(ends)
        self.tenants += [request.tenant for request in requests]
        return latencies, delays

    def summarize(
        self,
        horizon_s: float,
        flush_reasons: dict[str, int],
        peak_queue_depth: int,
        device_utilization: dict[str, float],
        key_cache: dict[str, int] | None = None,
        cost_cache: dict[str, int] | None = None,
        availability: dict[str, Any] | None = None,
        overload: dict[str, Any] | None = None,
    ) -> ServeMetrics:
        """Fold the observations into one :class:`ServeMetrics`.

        ``key_cache`` / ``cost_cache`` / ``availability`` / ``overload`` are
        end-of-run counter snapshots (read from the cluster's residency
        manager, the cost model, the fault injector and the flow
        controller) rather than accumulated per-batch observations.
        """
        effective_horizon = horizon_s if horizon_s > 0 else 0.0
        requests = len(self.latencies)
        per_tenant: dict[str, list[float]] = {}
        for tenant, latency in zip(self.tenants, self.latencies):
            per_tenant.setdefault(tenant, []).append(latency)
        return ServeMetrics(
            horizon_s=effective_horizon,
            requests=requests,
            batches=self._batches,
            total_pbs=self._total_pbs,
            latency=LatencySummary.from_samples(self.latencies),
            queue_delay=LatencySummary.from_samples(self.delays),
            requests_per_s=requests / effective_horizon if effective_horizon else 0.0,
            pbs_per_s=(
                self._total_pbs / effective_horizon if effective_horizon else 0.0
            ),
            mean_batch_fill=(
                sum(self._batch_fills) / len(self._batch_fills)
                if self._batch_fills
                else 0.0
            ),
            flush_reasons=dict(flush_reasons),
            peak_queue_depth=peak_queue_depth,
            device_utilization=dict(device_utilization),
            tenant_latency={
                tenant: LatencySummary.from_samples(samples)
                for tenant, samples in per_tenant.items()
            },
            cost_breakdown=dict(self._cost_breakdown),
            key_cache=dict(key_cache or {}),
            cost_cache=dict(cost_cache or {}),
            availability=dict(availability or {}),
            overload=dict(overload or {}),
        )
