"""The serving facade: one run, two clocks.

:class:`Server` is the front door of :mod:`repro.serve`: one
:class:`~repro.serve.cluster.StrixCluster`, the flow controller, the metrics
registry and a per-tenant :class:`~repro.runtime.session.Session` cache.
Serving itself is one engine, :class:`ServingRun` — a fresh queue, batcher
and metrics collector around the only arrival loop (fire due deadlines →
admit → shed → push → poll → dispatch) and the only report assembly.  A
server has at most one active run, ``server.queue`` / ``server.batcher`` are
that run's, and the entry points differ only in who feeds it on which clock:

* :meth:`Server.simulate` — a whole trace on the *simulated* clock: time
  jumps from arrival to arrival and every batcher deadline in between fires
  at exactly its due time, so the :class:`ServeReport` (p50/p99 latency,
  throughput, queue depth, device utilization) is a pure function of the
  trace;
* :meth:`Server.begin_run` — the same run held open by a caller who offers
  requests as they arrive (:mod:`repro.net` replay mode: one
  :meth:`ServingRun.offer` per SUBMIT frame), bit for bit :meth:`simulate`;
* ``async with Server(...) as server: await server.submit_async(...)`` —
  the same run on the *wall* clock: the event loop stamps arrivals and a
  timer the run arms on its batcher's next deadline fires it as real time
  reaches it.

Whoever feeds a run answers its submitters the one way the run hands
results out, :meth:`ServingRun.resolved` — outcomes and each drop's typed
error, on either clock.  :meth:`Server.submit_async` is one such consumer
(it resolves each caller's future), :class:`repro.net.NetServer` another
(it writes each connection's RESULT, BUSY or ERROR frames).

``server.cluster.run`` bypasses serving and executes one large workload sharded
across the cluster (``run(workload, backend="strix-cluster")``).
"""

from __future__ import annotations

import asyncio
import math
import zlib
from contextlib import suppress
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

from repro.arch.config import StrixClusterConfig
from repro.arch.key_cache import KeyEvictionPolicy
from repro.faults import FaultSchedule, RequestLostError
from repro.flow.admission import AdmissionPolicy
from repro.flow.control import (
    DeadlineExceededError,
    FlowController,
    RequestRejectedError,
)
from repro.fft.registry import register_transform_cache_view
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.params import TFHEParameters
from repro.runtime.session import Session
from repro.sched.cost import CostModel
from repro.sched.layouts import Dispatch, PlacementLayout
from repro.serve.batcher import AdaptiveBatcher, Batch
from repro.serve.cluster import StrixCluster, resolve_cluster_params
from repro.serve.metrics import (
    MetricsCollector,
    ServeMetrics,
    ServeSnapshot,
    percentile,
)
from repro.serve.queue import RequestQueue
from repro.serve.request import Request, RequestKind, RequestOutcome
from repro.serve.sharding import ShardingPolicy

#: Dispatched batches a run holds before it records them (see ServingRun.metrics).
FOLD_BATCHES = 256


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of one :class:`Server`.

    Attributes
    ----------
    params:
        TFHE parameter set serving operates under (name or object).
    devices:
        Strix chips in the cluster.
    policy:
        Sharding policy name (``"key-affinity"`` / ``"least-loaded"`` /
        ``"round-robin"``, exactly
        :func:`~repro.serve.sharding.list_policies`) or instance.
    layout:
        Placement layout name (``"data-parallel"`` / ``"pipeline"`` /
        ``"elastic"``) or :class:`~repro.sched.layouts.PlacementLayout`
        instance — where batches and sharded workloads land on the cluster.
    cost_model:
        Batch cost model name (``"analytical"`` / ``"event"``) or
        :class:`~repro.sched.cost.CostModel` instance — ``"event"`` runs
        the cycle-level scheduler on every batch's real graph, so keyswitch
        overlap and epoch fragmentation show up in serving latency.  By
        name, ``"event"`` comes from the registry already memoized, as a
        :class:`~repro.sched.memo.ScheduleCache` (the report's
        ``cost_cache`` counters surface hits/misses/evictions); an instance
        is used as given, so ``EventDrivenCostModel()`` is the unmemoized
        bypass — see :class:`~repro.serve.cluster.StrixCluster` and
        ``docs/performance.md``.
    key_budget_bytes:
        Per-device HBM budget for resident tenant key sets; ``None``
        (default) is unbounded — no eviction, the historical behaviour.
        With a finite budget the cluster's
        :class:`~repro.arch.key_cache.KeyResidencyManager` evicts under
        ``key_policy`` and the report's ``key_cache`` counters fill in;
        :func:`repro.arch.key_cache.hbm_key_budget_bytes` derives a
        hardware-honest value from the device's HBM capacity.
    key_policy:
        Key-cache eviction policy name (``"lru"`` by default, or
        ``"pinned"``) or a
        :class:`~repro.arch.key_cache.KeyEvictionPolicy` instance (e.g. a
        pinned-tenant policy with an explicit pin set).
    qos:
        Batching discipline: ``"fifo"`` (arrival order, historical) or
        ``"fair"`` (weighted fair queuing over tenants).
    tenant_weights:
        Relative QoS weights for ``"fair"`` (default weight 1.0).
    max_batch_delay_s:
        Deadline bound of the adaptive batcher — the longest a request waits
        before a partial batch flushes (the p99 knob under light load).
    batch_capacity:
        Items per batch; defaults to one device's
        ``StrixAccelerator.epoch_capacity`` so every full batch is exactly
        one epoch-stream.
    seed:
        Base seed for per-tenant key generation.
    cluster:
        The :class:`~repro.arch.config.StrixClusterConfig` every device
        shares: its architecture, interconnect bandwidth and dispatch
        overhead.
    faults:
        A :class:`~repro.faults.FaultSchedule` of device deaths to inject
        during the run;
        ``None`` (default) serves fault-free and stays byte-identical to
        the pre-fault-subsystem behaviour.  See ``docs/resilience.md``.
    on_death:
        What happens to a batch whose device dies under it: ``"retry"``
        (default) replays it on the surviving devices, ``"drop"`` loses it
        — its requests produce no outcomes and async submitters awaiting
        them raise :class:`~repro.faults.RequestLostError`.
    admission:
        Overload admission policy name (``"reject-newest"`` /
        ``"shed-oldest"`` / ``"tenant-quota"``) or
        :class:`~repro.flow.AdmissionPolicy` instance, applied per arrival
        at serving time (inside :meth:`ServingRun.offer`, whichever entry
        point feeds it) against ``queue_capacity`` / ``tenant_capacity``.
        ``None`` (default) admits everything and stays byte-identical to
        the pre-flow-subsystem behaviour.  See ``docs/overload.md``.
    queue_capacity:
        Bound on total waiting requests.  With ``admission`` set the
        policy keeps the queue under it (rejecting or shedding); without,
        the queue itself raises a loud
        :class:`~repro.serve.queue.QueueOverflowError` past it.  ``None``
        (default) is unbounded.
    tenant_capacity:
        Bound on one tenant's waiting requests, enforced by the admission
        policy (ignored when ``admission`` is ``None``).
    """

    params: TFHEParameters | str = "I"
    devices: int = 4
    policy: str | ShardingPolicy = "least-loaded"
    layout: str | PlacementLayout = "data-parallel"
    cost_model: str | CostModel = "analytical"
    key_budget_bytes: float | None = None
    key_policy: "str | KeyEvictionPolicy" = "lru"
    qos: str = "fifo"
    tenant_weights: dict[str, float] | None = None
    max_batch_delay_s: float = 2e-3
    batch_capacity: int | None = None
    seed: int = 0
    cluster: StrixClusterConfig = StrixClusterConfig()
    faults: FaultSchedule | None = None
    on_death: str = "retry"
    admission: "str | AdmissionPolicy | None" = None
    queue_capacity: int | None = None
    tenant_capacity: int | None = None


@dataclass(frozen=True)
class ServeReport:
    """Outcome of one serving simulation.

    ``outcomes`` are the run's outcomes no consumer took: every one for
    :meth:`Server.simulate`, none when a consumer answered them all (a
    :class:`repro.net.NetServer`, an async context).  ``wire`` is empty for
    in-process runs; when the trace travelled through the :mod:`repro.net`
    front-end it carries the transport-level story —
    measured round-trip latency (``rtt_p50_ms`` / ``rtt_p99_ms`` /
    ``rtt_mean_ms`` / ``rtt_max_ms``), frame and byte counts, connection
    count — next to the simulated serving metrics, so wire overhead and model
    latency stay separately readable.
    """

    label: str
    parameter_set: str
    devices: int
    policy: str
    metrics: ServeMetrics
    layout: str = "data-parallel"
    cost_model: str = "analytical"
    outcomes: list[RequestOutcome] = field(repr=False, default_factory=list)
    wire: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot (what the benchmark harness records)."""
        snapshot = {
            "label": self.label,
            "parameter_set": self.parameter_set,
            "devices": self.devices,
            "policy": self.policy,
            "layout": self.layout,
            "cost_model": self.cost_model,
            **self.metrics.to_dict(),
        }
        if self.wire:
            snapshot["wire"] = dict(self.wire)
        return snapshot

    def render(self) -> str:
        """Human-readable summary."""
        header = (
            f"[{self.label}] params {self.parameter_set}, "
            f"{self.devices} device(s), policy {self.policy}, "
            f"layout {self.layout}, cost model {self.cost_model}"
        )
        body = header + "\n" + self.metrics.render()
        if self.wire:
            rtt = ", ".join(
                f"{key.removeprefix('rtt_').removesuffix('_ms')} {self.wire[key]:.3f} ms"
                for key in ("rtt_p50_ms", "rtt_p99_ms", "rtt_max_ms")
                if key in self.wire
            )
            counts = ", ".join(
                f"{self.wire[key]:,} {name}"
                for key, name in (
                    ("connections", "connection(s)"),
                    ("frames_sent", "frames sent"),
                    ("bytes_sent", "bytes sent"),
                )
                if key in self.wire
            )
            parts = [part for part in (rtt, counts) if part]
            body += "\nwire:     " + "; ".join(parts)
        return body


class RunActiveError(RuntimeError):
    """The server already has an active serving run (one at a time)."""


class ServingRun:
    """One pass of requests through queue → batcher → cluster, on one clock.

    The entry points create it and pick the clock, the one seam between
    them.  ``clock=None`` is the *simulated* clock: time is the arrival of
    the request being offered, :meth:`offer` first fires every batcher
    deadline due before it at its due time, and :meth:`drain` fires the
    rest the same way.  An event loop is the *wall* clock: time is the
    loop's since the run began, the run keeps one timer (``loop.call_at``)
    on its batcher's next deadline, and :meth:`drain` flushes whatever is
    queued *now*.

    Every request offered ends exactly one way: an outcome (waiting in the
    outbox, ``metrics.outcomes``), a refusal (raised by :meth:`offer` to its
    caller alone) or a drop — shed, expired, or lost to a fault.
    :meth:`resolved` hands the run's single consumer both kinds since it
    last asked, and the run forgets them; the consumer
    asks after each of its own offers and drains, and :attr:`on_flush`
    tells it when the timer flushed.
    """

    def __init__(
        self, server: "Server", label: str, clock: asyncio.AbstractEventLoop | None = None
    ):
        server._require_idle()
        if server.queue:
            raise RuntimeError(
                "the server has queued sync submissions; simulate() or "
                "discard them before starting another run"
            )
        self.server = server
        self.label = label
        self.clock = clock
        self._epoch = clock.time() if clock is not None else 0.0
        server.cluster.reset_serving_state()
        server.flow.reset()
        # Fresh queue/batcher so the report's flush and depth stats are not
        # polluted by earlier runs on this server.
        self.queue = server.queue = server._make_queue()
        self.batcher = server.batcher = server._make_batcher(self._expire)
        self._metrics = MetricsCollector(server.batch_capacity)
        #: Batches dispatched and not yet recorded, with their dispatches.
        self._dispatched: list[tuple[Batch, Dispatch]] = []
        #: Called with the run after each flush its wall-clock timer fires,
        #: so the consumer answers what :meth:`resolved` now reports.
        self.on_flush: Callable[["ServingRun"], None] | None = None
        #: The crash that stopped the run's flushing (its queue may be half-flushed).
        self.error: Exception | None = None
        self._drops: list[tuple[Request, type[Exception], str]] = []
        self._last_arrival = 0.0
        self._last_completion = 0.0
        self._timer: asyncio.TimerHandle | None = None
        self._timer_s: float | None = None
        server.active_run = self
        server.registry.before_read = self._fold

    def now(self) -> float:
        """The run's current time: the wall clock, else the serving clock."""
        return self.clock.time() - self._epoch if self.clock is not None else self.server._clock

    def retry_after_s(self) -> float:
        """Deterministic backoff hint for a rejection at the current backlog."""
        return self.server.flow.retry_after_s(self.queue, self.server.config.max_batch_delay_s)

    # -- the arrival loop -------------------------------------------------------------

    def offer(self, request: Request) -> None:
        """Feed the run one request — the body of the only arrival loop.

        A simulated run takes requests with finite ``arrival_s`` in
        non-decreasing order (:class:`ValueError` otherwise, before the
        request is counted or admitted: dispatching into the past would
        report negative queueing delays, a NaN arrival NaN latencies).
        With admission control installed a rejected offer raises
        :class:`~repro.flow.RequestRejectedError` after counting it and
        advancing the clock — the request *arrived*, it just was not served.
        A refusal (that, or the bounded queue overflowing with admission
        off) concerns this caller only; a crash while flushing the batches
        the arrival made due is kept as :attr:`error` and re-raised, and
        every later offer is refused with a :class:`RuntimeError` chained
        to it.
        """
        server, queue, batcher = self.server, self.queue, self.batcher
        if server.active_run is not self:
            raise RuntimeError(f"run {self.label!r} is closed; begin a new one")
        if self.error is not None:  # the queue may be half-flushed
            raise RuntimeError(
                "the serving flush loop has crashed; no further submissions will be processed"
            ) from self.error
        arrival = request.arrival_s
        if self.clock is None:
            # Written so that NaN fails it too: one NaN arrival would make
            # every latency NaN, one infinite arrival an infinite horizon.
            if not self._last_arrival <= arrival < math.inf:
                raise ValueError(
                    f"request {request.request_id} arrives at {arrival}, the "
                    f"previous offer at {self._last_arrival}; a simulated run "
                    "takes requests in non-decreasing, finite arrival_s order"
                )
            if batcher.deadline_s <= arrival:
                self._fire_deadlines(arrival)
            server._clock = max(server._clock, arrival)
        self._last_arrival = arrival
        admitted, victims, reason = server.flow.try_admit(queue, request)
        if not admitted:
            raise self._error(request, RequestRejectedError, f"rejected: {reason}")
        for victim in victims:
            self._drop(victim, RequestRejectedError, "was shed to admit newer work")
        queue.push(request)
        # poll() re-checks both; asking first spares the arrivals that merely
        # join an open window the call (next_deadline opens a closed one).
        if queue.queued_items >= batcher.capacity_items or arrival >= batcher.next_deadline(queue):
            self._serve(batcher.poll, arrival)
        if self.clock is not None:
            self._arm()

    def _replay(self, requests: Sequence[Request]) -> None:
        """Dispatch what :meth:`AdaptiveBatcher.replay` flushes from a whole
        trace sorted by arrival — the pass :meth:`Server.simulate` takes on
        the fresh run it opened when nothing but the batcher's two triggers
        decides a flush."""
        for batch in self.batcher.replay(self.queue, requests):
            self._dispatch(batch)
        if requests:
            self._last_arrival = requests[-1].arrival_s
            self.server._clock = max(self.server._clock, self._last_arrival)

    def drain(self) -> None:
        """Empty the queue: the end-of-trace step, also allowed mid-stream.

        On the simulated clock every queued request flushes at its deadline;
        on the wall clock everything still queued flushes now.  After a crash
        nothing flushes: the queue may be half-flushed.  A closed run drains
        too (:meth:`finish` after :meth:`close`), and still counts what expires.
        """
        if self.error is not None:
            return
        self.batcher.on_expired = self._expire  # close() unhooks it
        if self.clock is None:
            self._fire_deadlines(None)
        else:
            self._serve(self.batcher.drain, self.now())
            self._arm()

    def _fire_deadlines(self, until: float | None) -> None:
        """Flush every deadline due before ``until`` (all of them when ``None``)."""
        while True:
            deadline = self.batcher.next_deadline(self.queue)
            if deadline is None or (until is not None and deadline > until):
                return
            self._serve(self.batcher.poll, deadline)

    def _arm(self) -> None:
        """Keep the wall clock's one timer on the batcher's next deadline."""
        deadline = self.batcher.next_deadline(self.queue)
        if deadline != self._timer_s:
            if self._timer is not None:
                self._timer.cancel()
            self._timer_s, self._timer = deadline, None
            if deadline is not None:
                self._timer = self.clock.call_at(self._epoch + deadline, self._tick)

    def _tick(self) -> None:
        """The timer: flush what is due now and tell the consumer.  A timer can
        fire a hair early; then nothing is due yet and it is re-armed as is."""
        self._timer = self._timer_s = None
        if self.error is None:
            with suppress(Exception):  # a crash is kept as self.error for the consumer
                self._serve(self.batcher.poll, self.now())
                self._arm()
        if self.on_flush is not None:
            self.on_flush(self)

    def _serve(self, take: Callable[[RequestQueue, float], list[Batch]], now: float) -> None:
        """Dispatch what ``take`` (the batcher's ``poll`` or ``drain``) flushes at
        ``now``; a crash in there is kept as :attr:`error` before it propagates."""
        try:
            for batch in take(self.queue, now):
                self._dispatch(batch)
        except Exception as error:
            self.error = error
            raise

    def _dispatch(self, batch: Batch) -> None:
        """Send one batch to the cluster; :attr:`metrics` records it."""
        server = self.server
        dispatch = server.cluster.dispatch(batch, batch.created_s, server.params)
        self._last_completion = max(self._last_completion, dispatch.end_s)
        if dispatch.lost:
            # The batch died with its device and the on_death policy did
            # not replay it: no outcomes, no serving counters — the loss is
            # charged to the fault injector, which the report's availability
            # block and the conservation law (completed + lost == submitted)
            # read it back from.
            for request in batch.requests:
                self._drop(request, RequestLostError, "was lost to a device fault")
            return
        self._dispatched.append((batch, dispatch))
        if len(self._dispatched) == FOLD_BATCHES:
            self._fold()

    @property
    def metrics(self) -> MetricsCollector:
        """The run's collector, every batch dispatched so far recorded in it."""
        self._fold()
        return self._metrics

    def _fold(self) -> None:
        """Record the held batches in the collector and the serving instruments."""
        dispatched = self._dispatched
        if dispatched:
            self._dispatched = []
            latencies, delays = self._metrics.record(dispatched)
            server = self.server
            server._latency_hist.observe(latencies)
            server._queue_delay_hist.observe(delays)
            server._requests_total.inc(len(latencies))
            server._batches_total.inc(len(dispatched))
            server._items_total.inc(sum(batch.total_items for batch, _ in dispatched))
            server._pbs_total.inc(sum(batch.total_pbs for batch, _ in dispatched))

    # -- drops and failures -----------------------------------------------------------

    def _error(self, request: Request, kind: type[Exception], what: str) -> Exception:
        """The typed error owed to the submitter of a request ``what`` happened to."""
        hint = {"retry_after_s": self.retry_after_s()} if kind is RequestRejectedError else {}
        return kind(f"request {request.request_id} (tenant {request.tenant!r}) {what}", **hint)

    def _expire(self, request: Request) -> None:
        """The batcher dropped ``request`` as past its deadline."""
        self.server.flow.note_expired(request)
        self._drop(request, DeadlineExceededError, "expired before batching")

    def _drop(self, request: Request, kind: type[Exception], what: str) -> None:
        """An admitted request will never produce an outcome.  Its submitter
        is owed a typed error, which :meth:`resolved` builds if somebody asks
        (a whole-trace :meth:`Server.simulate` never does)."""
        self._drops.append((request, kind, what))

    def resolved(self) -> tuple[list[RequestOutcome], list[tuple[Request, Exception]]]:
        """Outcomes completed and requests dropped since the last call, each
        drop with the typed error its submitter is owed — the one way results
        leave a run, on either clock, and the run forgets them.  A consumer
        answers these, and after a crash (:attr:`error`) fails what it holds."""
        outcomes, self.metrics.outcomes = self.metrics.outcomes, []
        drops = [(drop[0], self._error(*drop)) for drop in self._drops]
        self._drops.clear()
        return outcomes, drops

    # -- the report -------------------------------------------------------------------

    def close(self) -> None:
        """Fold, then detach from the server so another run can begin (idempotent)."""
        self._fold()
        if self.server.active_run is self:
            self.server.active_run = self.server.registry.before_read = None
        # The batcher outlives the run as ``server.batcher``; unhooking it
        # breaks the server → batcher → run cycle, so a finished run's
        # collector is freed with its last reference instead of waiting for
        # a garbage-collection pass.  A cancelled timer lets go of the run
        # the same way.
        self.batcher.on_expired = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = self._timer_s = None

    def finish(self, wire: dict[str, Any] | None = None) -> ServeReport:
        """Drain, close the run and fold it into a :class:`ServeReport`.

        The report's ``outcomes`` are the ones no consumer took through
        :meth:`resolved` — every outcome, for :meth:`Server.simulate`.
        ``wire`` (frame/byte counters, measured RTT percentiles) is carried
        through to :attr:`ServeReport.wire` when the requests came over a
        transport.
        """
        try:
            self.drain()
        finally:  # even when the drain crashes, so the server stays usable
            self.close()
        server, cluster = self.server, self.server.cluster
        # Completions never precede arrivals, so the second term only
        # matters when the last arrivals were rejected or dropped.
        horizon = max(self._last_completion, self._last_arrival)
        summary = self.metrics.summarize(
            horizon_s=horizon,
            flush_reasons=self.batcher.flush_reasons,
            peak_queue_depth=self.queue.peak_depth,
            device_utilization=cluster.device_utilization(horizon),
            key_cache=cluster.key_cache_stats,
            cost_cache=cluster.cost_cache_stats,
            availability=cluster.faults.availability(horizon),
            overload=server.flow.overload(),
        )
        outcomes, self.metrics.outcomes = self.metrics.outcomes, []
        return ServeReport(
            label=self.label,
            parameter_set=server.params.name,
            devices=len(cluster),
            policy=cluster.policy.name,
            layout=cluster.layout.name,
            cost_model=cluster.cost_model.name,
            metrics=summary,
            outcomes=outcomes,
            wire=dict(wire or {}),
        )


class Server:
    """Multi-tenant FHE serving over a sharded Strix cluster."""

    def __init__(self, config: ServeConfig | None = None, **overrides: Any):
        config = config or ServeConfig()
        if overrides:
            config = replace(config, **overrides)
        self.config = config
        self.params = resolve_cluster_params(config.params)
        self.cluster = StrixCluster(
            devices=config.devices,
            policy=config.policy,
            config=config.cluster,
            layout=config.layout,
            cost_model=config.cost_model,
            key_budget_bytes=config.key_budget_bytes,
            key_policy=config.key_policy,
            faults=config.faults,
            on_death=config.on_death,
        )
        self.batch_capacity = (
            config.batch_capacity
            if config.batch_capacity is not None
            else self.cluster.devices[0].accelerator.epoch_capacity(self.params)
        )
        #: Request tracer (``None`` until :meth:`enable_tracing`).
        self.tracer: Tracer | None = None
        #: Overload protection (inert with the default config — no policy,
        #: no capacities — so unsaturated output stays byte-identical).
        self.flow = FlowController(
            policy=config.admission,
            queue_capacity=config.queue_capacity,
            tenant_capacity=config.tenant_capacity,
        )
        #: Always-on unified metrics registry (see :mod:`repro.obs`):
        #: serving counters/histograms fed by every dispatched batch plus live
        #: views over the subsystems' historical counter dicts — which stay
        #: the single source of truth, so :class:`ServeReport` is untouched.
        self.registry = MetricsRegistry()
        self._requests_total = self.registry.counter(
            "serve_requests_total", "Requests dispatched to the cluster"
        )
        self._batches_total = self.registry.counter(
            "serve_batches_total", "Batches the batcher flushed to devices"
        )
        self._items_total = self.registry.counter(
            "serve_items_total", "Batchable items dispatched"
        )
        self._pbs_total = self.registry.counter(
            "serve_pbs_total", "Bootstraps dispatched"
        )
        self._latency_hist = self.registry.histogram(
            "serve_latency_seconds", "End-to-end request latency"
        )
        self._queue_delay_hist = self.registry.histogram(
            "serve_queue_delay_seconds", "Arrival-to-dispatch queueing delay"
        )
        # Views close over the objects that own the counters, never over the
        # server, so a Server is freed by reference counting alone.  Every
        # fresh queue and batcher registers its own (see _make_queue).
        cluster = self.cluster
        self.registry.register_view(
            "serve_key_cache", lambda: cluster.key_cache_stats, "Key-residency counters"
        )
        self.registry.register_view(
            "serve_cost_cache", lambda: cluster.cost_cache_stats, "Schedule-cache counters"
        )
        self.registry.register_view(
            "serve_layout", lambda: cluster.layout.runtime_stats, "Placement-layout runtime state"
        )
        # Empty (and sample-free in collect()) unless a fault schedule is
        # installed, so fault-free STATS output is unchanged.
        self.registry.register_view(
            "serve_faults",
            cluster.faults.stats_view,
            "Fault-injection schedule and impact counters",
        )
        # Likewise empty until an overload event is counted, so STATS
        # output is unchanged for servers that never saturate.
        self.registry.register_view(
            "serve_overload",
            self.flow.stats_view,
            "Overload-protection admission and shedding counters",
        )
        # Process-wide, not per-server: the negacyclic transform cache is
        # shared by every scalar and vectorized kernel in the process.
        register_transform_cache_view(self.registry)
        # Between runs these hold what sync submit() staged; every
        # ServingRun installs its own fresh pair.
        self.queue = self._make_queue()
        self.batcher = self._make_batcher()
        #: The run currently serving (``None`` between runs).
        self.active_run: ServingRun | None = None
        self._sessions: dict[str, Session] = {}
        self._request_counter = 0
        self._clock = 0.0
        # The async context's submitters: request id -> the future awaiting it.
        self._waiting: dict[int, asyncio.Future] = {}
        #: Report of the last completed async context (set by :meth:`aclose`).
        self.last_async_report: ServeReport | None = None

    def _require_idle(self) -> None:
        """Refuse to start a run, or stage sync work, while a run is active:
        runs share the cluster and the request-id space, and ``queue`` /
        ``batcher`` are the active run's."""
        run = self.active_run
        if run is not None:
            kind = "simulated run" if run.clock is None else "async context"
            raise RunActiveError(
                f"this server already has an active {kind} ({run.label!r}); "
                "finish it first — one run at a time"
            )

    def _make_queue(self) -> RequestQueue:
        """A fresh queue carrying the installed tracer (if any).

        The hard ``capacity`` bound only applies when admission control is
        disabled: with a policy installed, admission keeps the queue under
        the configured capacity *before* pushing, so an overflow there
        would be a flow-controller bug, not an operator signal.
        """
        queue = RequestQueue(
            observer=self.tracer,
            capacity=None if self.flow.enabled else self.config.queue_capacity,
        )
        counters = ("depth", "peak_depth", "queued_items", "queued_pbs", "total_enqueued")
        self.registry.register_view(
            "serve_queue",
            lambda: {name: getattr(queue, name) for name in counters},
            "Request-queue composition",
        )
        return queue

    def _make_batcher(self, on_expired: Callable[[Request], None] | None = None) -> AdaptiveBatcher:
        """A fresh batcher honouring the configured QoS discipline."""
        batcher = AdaptiveBatcher(
            self.batch_capacity,
            self.config.max_batch_delay_s,
            qos=self.config.qos,
            tenant_weights=self.config.tenant_weights,
            observer=self.tracer,
            on_expired=on_expired,
        )
        self.registry.register_view(
            "serve_batcher",
            lambda: {
                "batches_flushed": batcher.batches_flushed,
                **{
                    f"flush_{reason}": count
                    for reason, count in sorted(batcher.flush_reasons.items())
                },
            },
            "Adaptive-batcher flush counters",
        )
        return batcher

    # -- observability ------------------------------------------------------------

    def enable_tracing(self, tracer: Tracer | None = None) -> Tracer:
        """Install a request tracer on the serving pipeline and return it.

        The tracer's lifecycle hooks attach to the queue (enqueue), the
        batcher (batch admission) and the cluster (device dispatch); the
        :mod:`repro.net` front-end additionally reports reply times.
        Tracing is *pure observation* — batching, placement and the
        resulting :class:`ServeReport` are byte-identical with it on or
        off — and survives the fresh queue/batcher every run creates.
        Pass an existing :class:`~repro.obs.Tracer` to share one
        across servers; call :meth:`disable_tracing` to detach.
        """
        if tracer is None:
            tracer = Tracer()
        self.tracer = tracer
        self.queue.observer = tracer
        self.batcher.observer = tracer
        self.cluster.tracer = tracer
        return tracer

    def disable_tracing(self) -> None:
        """Detach the tracer from every lifecycle hook."""
        self.tracer = None
        self.queue.observer = None
        self.batcher.observer = None
        self.cluster.tracer = None

    def metrics(self) -> dict[str, float]:
        """One flat snapshot of the unified registry.

        Serving counters and latency histograms plus the live views
        (queue, batcher, key and cost caches, layout, and — behind
        a :class:`~repro.net.NetServer` — the wire).  This is exactly what
        the net protocol's ``STATS`` frame serializes.
        """
        return self.registry.collect()

    def snapshot(
        self,
        window: int = 256,
        now_s: float | None = None,
        window_s: float | None = None,
    ) -> ServeSnapshot:
        """A point-in-time reading of the serving state.

        ``now_s`` defaults to the active run's clock — the wall clock
        inside an async context, the serving clock otherwise;
        ``window`` bounds the trailing outcomes the per-tenant p99 is
        computed over.  ``window_s`` additionally bounds them in *time*:
        only outcomes completed after ``now_s - window_s`` count, so a
        tenant that went idle drops out of ``tenant_p99_s`` instead of
        inheriting a stale percentile from its last burst forever.  This
        is the feed :meth:`watch` yields periodically.
        """
        run = self.active_run
        if now_s is None:
            now_s = run.now() if run is not None else self._clock
        metrics = run.metrics if run is not None else MetricsCollector(self.batch_capacity)
        recent = slice(-window, None) if window > 0 else slice(0, 0)
        cutoff = now_s - window_s if window_s is not None else float("-inf")
        per_tenant: dict[str, list[float]] = {}
        columns = (metrics.tenants[recent], metrics.latencies[recent], metrics.completions[recent])
        for tenant, latency, completed_s in zip(*columns):
            if completed_s > cutoff:
                per_tenant.setdefault(tenant, []).append(latency)
        oldest = self.queue.oldest()
        backlog = max(
            (device.busy_until for device in self.cluster.devices), default=0.0
        )
        return ServeSnapshot(
            t_s=now_s,
            requests_done=len(metrics.latencies),
            queue_depth=self.queue.depth,
            queued_items=self.queue.queued_items,
            queued_pbs=self.queue.queued_pbs,
            oldest_wait_s=max(now_s - oldest.arrival_s, 0.0) if oldest else 0.0,
            backlog_s=max(backlog - now_s, 0.0),
            device_utilization=self.cluster.device_utilization(now_s),
            tenant_depths=self.queue.tenant_depths,
            tenant_p99_s={
                tenant: percentile(samples, 99.0)
                for tenant, samples in sorted(per_tenant.items())
            },
        )

    async def watch(
        self,
        interval_s: float = 0.05,
        window: int = 256,
        window_s: float | None = None,
    ):
        """Yield a :class:`~repro.serve.metrics.ServeSnapshot` every
        ``interval_s`` while the async context is active.

        The live tap: per-tenant p99 over the trailing ``window`` outcomes,
        queue backlog and device utilization — what a dashboard or an
        autoscaler would poll.  The generator ends when the ``async with``
        block closes.
        """
        run = self._async_run("watch()")
        while self.active_run is run:
            yield self.snapshot(window=window, window_s=window_s)
            await asyncio.sleep(interval_s)

    # -- tenants -----------------------------------------------------------------

    def session_for(self, tenant: str) -> Session:
        """The tenant's key-owning session (created and cached on first use).

        Seeds derive deterministically from the server seed and the tenant
        name, so distinct tenants get distinct key material and re-creating a
        server reproduces it.
        """
        session = self._sessions.get(tenant)
        if session is None:
            seed = self.config.seed + zlib.crc32(tenant.encode())
            session = self._sessions[tenant] = Session(self.params, seed=seed)
        return session

    # -- submission --------------------------------------------------------------

    def submit(
        self,
        tenant: str,
        kind: RequestKind | str,
        items: int = 1,
        model: str | None = None,
        at: float | None = None,
        deadline_s: float | None = None,
    ) -> Request:
        """Enqueue one request at time ``at`` (defaults to the serving clock).

        ``deadline_s`` is a *relative* latency budget: the request expires
        ``deadline_s`` after its arrival and the batcher drops it unserved
        past that.  Sync submission only *stages* work for
        :meth:`simulate` — admission-policy decisions happen at serving
        time inside :meth:`ServingRun.offer`, exactly as they do for a
        streamed run and :meth:`submit_async`.
        """
        self._require_idle()
        arrival = self._clock if at is None else at
        self._clock = max(self._clock, arrival)
        request = self._new_request(tenant, kind, items, model, deadline_s, arrival)
        # Staged, not pushed: the queue's capacity bound applies to runtime
        # depth inside the run's arrival loop, not to trace length.
        self.queue.stage(request)
        return request

    def _new_request(self, tenant, kind, items, model, deadline_s, arrival: float) -> Request:
        """A request numbered by this server, arriving at ``arrival``, with
        ``deadline_s`` a budget relative to it (the number stream
        :meth:`submit`, :meth:`submit_async` and a live
        :class:`~repro.net.NetServer` share)."""
        self._request_counter += 1
        deadline = None if deadline_s is None else arrival + deadline_s
        return Request.make(self._request_counter, tenant, kind, items, arrival, model, deadline)

    # -- serving runs on the simulated clock --------------------------------------

    def simulate(
        self, trace: Iterable[Request] | None = None, label: str = "trace"
    ) -> ServeReport:
        """Replay a request trace through queue → batcher → cluster.

        ``trace`` defaults to whatever :meth:`submit` queued; an explicit
        trace (e.g. from :mod:`repro.apps.traffic`) replaces the queue
        contents.  The trace is sorted by arrival and offered to one
        :class:`ServingRun` on the simulated clock: time advances from
        arrival to arrival, firing deadline flushes in between; every
        flushed batch goes to the device the sharding policy picks and
        occupies it for the batch's service time.  Requests the admission
        policy rejects are counted in the report's ``overload`` block and
        the trace moves on.  A FIFO server with no admission policy, queue
        bound, fault schedule or tracer serves the trace one flush window at
        a time (:meth:`AdaptiveBatcher.replay`); every other configuration
        offers it request by request, with the same report.
        """
        self._require_idle()
        staged = []
        while self.queue:
            staged.append(self.queue.pop())
        if trace is None:
            trace = staged
        run = ServingRun(self, label)
        config = self.config
        try:
            requests = sorted(trace, key=lambda request: request.arrival_s)
            if (
                config.qos == "fifo"
                and not self.flow.enabled
                and config.queue_capacity is None
                and not self.cluster.faults.active
                and self.tracer is None
            ):
                run._replay(requests)
            else:
                for request in requests:
                    try:
                        run.offer(request)
                    except RequestRejectedError:
                        pass
            return run.finish()
        finally:
            # A crash mid-trace (e.g. a user policy raising in ``select``)
            # must leave the server able to start its next run.
            run.close()

    def begin_run(self, label: str = "run") -> ServingRun:
        """Open a streamed run: :meth:`simulate` for callers without the
        whole trace in hand.

        The network front-end receives a recorded trace one request at a
        time: it calls :meth:`ServingRun.offer` per frame (in arrival
        order), answers what :meth:`ServingRun.resolved` reports after each
        and ends with :meth:`ServingRun.finish`.  Same engine, so the same
        outcomes and metrics bit for bit: framing changes latency, never
        results.
        """
        return ServingRun(self, label)

    # -- the serving run on the wall clock --------------------------------------------

    async def __aenter__(self) -> "Server":
        run = ServingRun(self, "async", clock=asyncio.get_running_loop())
        run.on_flush = self._answer
        self.last_async_report = None
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    def _async_run(self, what: str) -> ServingRun:
        run = self.active_run
        if run is None or run.clock is None:
            raise RuntimeError(
                f"{what} needs an active async context: use `async with Server(...) as server`"
            )
        return run

    async def submit_async(
        self,
        tenant: str,
        kind: RequestKind | str,
        items: int = 1,
        model: str | None = None,
        deadline_s: float | None = None,
    ) -> RequestOutcome:
        """Submit one request and await its outcome.

        Arrivals are stamped on the wall clock (so real submission gaps
        drive the batcher's flush decisions) while service times come from
        the simulated cluster — the awaited outcome reports the modeled
        completion, it does not sleep for it.

        ``deadline_s`` is a relative latency budget; a request still
        queued past it is dropped and this call raises
        :class:`~repro.flow.DeadlineExceededError`.  With admission
        control installed a rejected submission raises
        :class:`~repro.flow.RequestRejectedError` immediately, and a
        queued submission shed later fails its await with the same error —
        a caller never hangs on dropped work.
        """
        run = self._async_run("async submission")
        if run.on_flush != self._answer:
            raise RunActiveError(f"the active run ({run.label!r}) answers a NetServer's clients")
        request = self._new_request(tenant, kind, items, model, deadline_s, run.now())
        try:
            run.offer(request)
        except Exception as error:
            if error is not run.error:
                raise  # refused (admission, a full queue, an earlier crash): this caller's alone
        future = self._waiting[request.request_id] = run.clock.create_future()
        self._answer(run)  # the offer may have resolved it (and others), or crashed the run
        return await future

    async def aclose(self) -> None:
        """Flush everything still queued, answer every awaiting submitter and
        close the async context's run.  The submitters are answered first:
        :meth:`ServingRun.finish` takes what is left in the outbox."""
        run = self.active_run
        if run is not None and run.on_flush == self._answer:
            try:
                run.drain()
            finally:  # after a crash too: the waiters get it and the run closes
                self._answer(run)
                self.last_async_report = run.finish()

    def _answer(self, run: ServingRun) -> None:
        """The async context's consumer: each awaiting submitter's future gets
        what :meth:`ServingRun.resolved` reports for it — its outcome or its
        drop's typed error — and after a flush crash, the crash itself."""
        waiting = self._waiting
        outcomes, drops = run.resolved()
        for outcome in outcomes:
            future = waiting.pop(outcome.request.request_id)
            if not future.done():
                future.set_result(outcome)
        for request, error in drops:
            future = waiting.pop(request.request_id)
            if not future.done():
                future.set_exception(error)
        while run.error is not None and waiting:
            _, future = waiting.popitem()
            if not future.done():
                future.set_exception(run.error)
