"""Adaptive batcher: turns a trickle of requests into epoch-sized batches.

The accelerator wants device×core epochs; clients send requests that are
orders of magnitude smaller.  The batcher coalesces queued requests into
:class:`Batch` objects under two flush triggers:

* **full** — queued items reach the configured capacity (one device epoch by
  default), so the batch ships at maximum occupancy;
* **deadline** — ``max_delay_s`` has passed since the window's *anchor*, the
  arrival of the oldest request waiting when the window opened, so tail
  latency stays bounded even under light load.  Only a flush moves the
  anchor (to the head it left behind); a shed or any other pop of the head
  does not, so evicting heads cannot postpone the flush.

*Which* requests fill a flushing batch is the QoS discipline:

* ``"fifo"`` (default) — strict arrival order across tenants, exactly the
  historical behaviour;
* ``"fair"`` — weighted fair queuing over the per-tenant subqueues: each
  tenant accrues virtual time proportional to the items it ships divided by
  its weight, the batch takes the request with the earliest virtual finish
  tag, and — because every request in a batch completes *together* — each
  tenant's share of one batch is additionally capped at its
  weight-proportional slice of the capacity (a request that would bust the
  cap still ships, but in its own batch).  A tenant flooding large requests
  then only delays *itself*: light tenants keep their slice of every batch
  and their p99 stops inflating with someone else's backlog.

A single request larger than the capacity is shipped alone as an oversized
batch — the cluster already splits any batch into multiple epochs, so
splitting one logical request across batches would only complicate
completion tracking without saving any cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from repro.serve.queue import RequestQueue
from repro.serve.request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.obs.trace import Tracer


@dataclass(frozen=True)
class Batch:
    """A flushed group of requests headed for one device.

    ``flush_reason`` records the *trigger* (``"full"`` = capacity pressure,
    ``"deadline"``, ``"drain"``), not the achieved occupancy: a capacity
    flush can ship below capacity when the next whole request would not fit
    (requests are never split), so read fill levels from
    :meth:`fill_fraction`, not from the reason.

    ``attempt`` is 0 for every batch the batcher flushes; the fault
    injector's retry path replays a batch whose device died under it as a
    copy with ``attempt`` incremented, so retries are distinguishable in
    traces without a new identity.

    The derived totals below are computed on first read and kept (the
    batch is frozen and its requests are a tuple) — or handed over by
    :meth:`AdaptiveBatcher._take`, which summed them while popping; they
    are not fields, so ``==``, ``repr`` and ``dataclasses.replace`` see only
    the five fields and a replaced copy derives its own.
    """

    batch_id: int
    requests: tuple[Request, ...]
    created_s: float
    flush_reason: str
    attempt: int = 0

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a batch must contain at least one request")

    @cached_property
    def total_items(self) -> int:
        """Batchable items across the batch's requests."""
        return sum(request.items for request in self.requests)

    @cached_property
    def total_pbs(self) -> int:
        """Bootstraps the batch costs on the accelerator."""
        return sum(request.total_pbs for request in self.requests)

    @cached_property
    def linear_items(self) -> int:
        """Items of the PBS-free requests (host-side linear work only)."""
        return sum(request.items for request in self.requests if request.pbs_per_item == 0)

    @cached_property
    def tenants(self) -> frozenset[str]:
        """Distinct tenants sharing the batch."""
        return frozenset(request.tenant for request in self.requests)

    @cached_property
    def request_mix(self) -> tuple[int, int, tuple[Request, ...]]:
        """The requests bucketed the way the cost models lower them.

        Total PBS-free items (→ one LINEAR node), total fixed-cost PBS (→
        one fused PBS+KS node), and the model-carrying requests that each
        expand to a per-request layer subgraph, sorted by ``(model, items)``.
        :func:`repro.sched.cost.batch_program` and its cache signature
        :func:`repro.sched.cost.batch_mix_signature` both read these buckets,
        so the key cannot drift from the ops it stands for.

        The sort is what makes the signature → schedule mapping a
        *function*: the cycle-level scheduler books shared resources in
        op order, so two batches whose inference requests arrived in
        different orders would otherwise lower to differently-ordered
        op lists and schedule to (slightly) different
        makespans despite equal signatures.  Sorting is stable, so batches
        whose model requests already share one ``(model, items)`` shape —
        every trace the benchmarks replay — are lowered in arrival order.
        """
        linear_items = 0
        simple_pbs = 0
        model_requests = []
        for request in self.requests:
            if request.pbs_per_item == 0:
                linear_items += request.items
            elif request.model is None:
                simple_pbs += request.total_pbs
            else:
                model_requests.append(request)
        model_requests.sort(key=lambda request: (request.model, request.items))
        return linear_items, simple_pbs, tuple(model_requests)

    def fill_fraction(self, capacity: int) -> float:
        """Occupancy of the batch relative to a capacity (may exceed 1)."""
        if capacity <= 0:
            return 0.0
        return self.total_items / capacity


class AdaptiveBatcher:
    """Flush-on-full / flush-on-deadline batching over a :class:`RequestQueue`."""

    def __init__(
        self,
        capacity_items: int,
        max_delay_s: float,
        qos: str = "fifo",
        tenant_weights: dict[str, float] | None = None,
        observer: "Tracer | None" = None,
        on_expired: Callable[[Request], None] | None = None,
    ):
        if capacity_items < 1:
            raise ValueError("batch capacity must be at least one item")
        if max_delay_s < 0:
            raise ValueError("max batch delay cannot be negative")
        if qos not in ("fifo", "fair"):
            raise ValueError(
                f"unknown QoS discipline {qos!r}; choose 'fifo' or 'fair'"
            )
        weights = dict(tenant_weights or {})
        if any(weight <= 0 for weight in weights.values()):
            raise ValueError("tenant weights must be positive")
        self.capacity_items = capacity_items
        self.max_delay_s = max_delay_s
        self.qos = qos
        self.tenant_weights = weights
        #: Tracer notified on every flushed batch (``None`` = tracing off).
        self.observer = observer
        #: Called with each request dropped as past its deadline (the flow
        #: controller counts them; ``None`` = drops are silent, but without
        #: deadlines on requests nothing is ever dropped).
        self.on_expired = on_expired
        self.batches_flushed = 0
        self.flush_reasons: dict[str, int] = {}
        #: When the open window must flush: its anchor — the arrival of the
        #: oldest request waiting when it opened — plus ``max_delay_s``;
        #: ``inf`` while no window is open.  :meth:`next_deadline` opens one
        #: lazily, the end of every :meth:`_take` re-anchors it, and nothing
        #: else moves it — in particular no pop outside a flush.
        self.deadline_s = math.inf
        # Weighted-fair-queuing state: per-tenant virtual finish tags and the
        # virtual clock (the start tag of the last dequeued request), which
        # re-anchors tenants that went idle so they don't bank credit.
        self._virtual_finish: dict[str, float] = {}
        self._virtual_clock = 0.0

    # -- flush decisions ----------------------------------------------------------

    def next_deadline(self, queue: RequestQueue) -> float | None:
        """Time at which the open window must flush, or ``None``.

        A window opens on the first call that finds a request waiting and is
        anchored to the *globally* oldest one — fair queuing reorders which
        requests fill a batch, not when one is owed.  While every head
        leaves through a flush this is the head's arrival plus
        ``max_delay_s``; when something else removes the head (admission
        shedding it) the window stays where it was, so the flush still comes.
        """
        if self.deadline_s == math.inf:
            if not queue:
                return None
            self.deadline_s = queue.oldest().arrival_s + self.max_delay_s
        return self.deadline_s

    def poll(self, queue: RequestQueue, now: float) -> list[Batch]:
        """Flush every batch that is due at ``now``.

        Called after each arrival and at deadline expiries; an empty queue
        (or one that is neither full nor past its deadline) flushes nothing.
        """
        batches: list[Batch] = []
        while queue.queued_items >= self.capacity_items:
            batch = self._take(queue, now, "full")
            if batch is not None:
                batches.append(batch)
        deadline = self.next_deadline(queue)
        if deadline is not None and now >= deadline:
            batch = self._take(queue, now, "deadline")
            if batch is not None:
                batches.append(batch)
        return batches

    def drain(self, queue: RequestQueue, now: float) -> list[Batch]:
        """Flush everything still queued (end of a simulation / shutdown)."""
        batches: list[Batch] = []
        while queue:
            batch = self._take(queue, now, "drain")
            if batch is not None:
                batches.append(batch)
        return batches

    # -- internals ----------------------------------------------------------------

    def _weight(self, tenant: str) -> float:
        return self.tenant_weights.get(tenant, 1.0)

    def _tenant_caps(self, queue: RequestQueue) -> dict[str, int]:
        """Items each tenant may occupy in the batch being assembled.

        The weight-proportional slice of the capacity over the tenants
        queued when the batch *starts* (frozen for the whole take, so
        popping a tenant's last request does not hand its slice to the
        flooder mid-batch).  With a lone tenant the cap degenerates to the
        full capacity, so fair mode never slows an uncontended queue down.
        """
        tenants = list(queue.tenant_depths)
        total_weight = sum(self._weight(name) for name in tenants)
        if total_weight <= 0:
            return {}
        return {
            tenant: max(
                1,
                int(self.capacity_items * self._weight(tenant) / total_weight),
            )
            for tenant in tenants
        }

    def _fair_head(
        self,
        queue: RequestQueue,
        in_batch: dict[str, int],
        caps: dict[str, int],
    ) -> Request | None:
        """The subqueue head fair queuing takes next.

        The minimal virtual finish tag ``max(tenant finish, virtual clock) +
        items / weight`` among tenants whose head still fits their per-batch
        admission cap — ties break on arrival order so equal-weight tenants
        interleave deterministically.  ``None`` means no queued head is
        admissible (the batch closes; capped requests ship in the next one).
        """
        heads = queue.tenant_heads()
        admissible = [
            head
            for tenant, head in heads.items()
            if not in_batch  # an empty batch admits anything (oversized ships alone)
            or in_batch.get(tenant, 0) + head.items
            <= caps.get(tenant, self.capacity_items)
        ]
        if not admissible:
            return None

        def finish_tag(head: Request) -> tuple[float, float, int]:
            tenant = head.tenant
            start = max(self._virtual_finish.get(tenant, 0.0), self._virtual_clock)
            return (
                start + head.items / self._weight(tenant),
                head.arrival_s,
                head.request_id,
            )

        return min(admissible, key=finish_tag)

    def _take(self, queue: RequestQueue, now: float, reason: str) -> Batch | None:
        """Pop requests for one batch: fill up to capacity, never split one.

        FIFO and fair differ only in *which head is next*: the globally
        oldest, or :meth:`_fair_head`'s pick.  Requests already past their
        deadline are popped and reported to ``on_expired`` instead of
        batched — executing them would waste device epochs on results nobody
        will read.  Returns ``None`` when every candidate had expired (the
        pops still made progress, so callers just skip the batch).  Either
        way the flush window is re-anchored to the head left behind.
        """
        fair, capacity = self.qos == "fair", self.capacity_items
        taken: list[Request] = []
        in_batch: dict[str, int] = {}
        caps = self._tenant_caps(queue) if fair else {}
        items = pbs = linear_items = 0
        for _ in range(len(queue)):  # every pass pops one request or closes the batch
            head = self._fair_head(queue, in_batch, caps) if fair else queue.oldest()
            if head is None:
                break
            tenant, size = head.tenant, head.items
            if head.expired(now):
                # Expired work ships nothing, so it must not advance the
                # tenant's virtual finish tag.
                queue._pop_head(tenant)
                if self.on_expired is not None:
                    self.on_expired(head)
                continue
            if taken and items + size > capacity:
                break
            queue._pop_head(tenant)
            if fair:
                start = max(self._virtual_finish.get(tenant, 0.0), self._virtual_clock)
                self._virtual_clock = start
                self._virtual_finish[tenant] = start + size / self._weight(tenant)
            taken.append(head)
            in_batch[tenant] = in_batch.get(tenant, 0) + size
            items += size
            if head.pbs_per_item:
                pbs += size * head.pbs_per_item
            else:
                linear_items += size
            if items >= capacity:
                break
        left = queue.oldest() if queue else None
        self.deadline_s = math.inf if left is None else left.arrival_s + self.max_delay_s
        if not taken:
            return None
        batch = Batch(
            batch_id=self.batches_flushed,
            requests=tuple(taken),
            created_s=now,
            flush_reason=reason,
        )
        # The loop above already summed what the cached properties would
        # walk the batch again for, one first read each.
        vars(batch).update(
            total_items=items,
            total_pbs=pbs,
            linear_items=linear_items,
            tenants=frozenset(in_batch),
        )
        self.batches_flushed += 1
        self.flush_reasons[reason] = self.flush_reasons.get(reason, 0) + 1
        if self.observer is not None:
            self.observer.on_batch(batch)
        return batch
