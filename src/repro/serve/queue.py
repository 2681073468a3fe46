"""Request queue with per-tenant subqueues and depth tracking.

The queue sits between the submission paths (sync and async) and the
adaptive batcher.  Requests live in per-tenant FIFO subqueues stitched
together by a global arrival sequence, so the batcher can either drain in
strict arrival order (FIFO — the default, starvation-free) or pick the
next request *per tenant* (weighted fair queuing, where a flooding tenant
no longer pushes everyone else's work back).  Either way the queue keeps
the counters the metrics layer and the flush decisions need: instantaneous
and peak depth, queued items/PBS, and per-tenant composition.

An optional ``observer`` (a :class:`repro.obs.Tracer`) is notified on
every :meth:`RequestQueue.push` — the enqueue hook of request tracing.
Observation never affects queueing.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.serve.request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.obs.trace import Tracer


#: The ``(sequence, request)`` pair at the head of a tenant's deque.
_HEAD = itemgetter(0)


class QueueOverflowError(RuntimeError):
    """A bounded :class:`RequestQueue` overflowed.

    Raised on :meth:`RequestQueue.push` past ``capacity`` — the loud
    replacement for silent unbounded growth.  With admission control
    installed (``Server(admission=...)``) the admission policy keeps the
    queue under its bound *before* pushing, so this error only fires when
    a capacity is configured with admission disabled.
    """

    def __init__(self, capacity: int, tenant: str):
        super().__init__(
            f"request queue is full ({capacity} requests; arriving tenant "
            f"{tenant!r}); configure an admission policy to shed or reject "
            "instead of overflowing"
        )
        self.capacity = capacity
        self.tenant = tenant


class RequestQueue:
    """Arrival-ordered queue of pending :class:`Request` objects.

    ``capacity`` bounds the number of waiting requests: ``None`` (the
    default) keeps the historical unbounded behaviour; a bound makes
    :meth:`push` raise :class:`QueueOverflowError` when full.
    """

    def __init__(
        self, observer: "Tracer | None" = None, capacity: int | None = None
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("queue capacity must be at least one request")
        #: Tracer notified on every push (``None`` = tracing off).
        self.observer = observer
        #: Maximum waiting requests (``None`` = unbounded).
        self.capacity = capacity
        #: Per-tenant FIFO of ``(sequence, request)``; arrival order across
        #: tenants is recovered by comparing head sequence numbers.
        self._by_tenant: dict[str, deque[tuple[int, Request]]] = {}
        #: The globally oldest request; ``None`` = not known (empty queue, or
        #: it was popped and nobody has asked since).
        self._oldest: Request | None = None
        self._sequence = 0
        self._depth = 0
        self.total_enqueued = 0
        self.peak_depth = 0
        self._queued_items = 0
        self._queued_pbs = 0

    # -- state ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._depth

    def __bool__(self) -> bool:
        return self._depth > 0

    @property
    def depth(self) -> int:
        """Requests currently waiting."""
        return self._depth

    @property
    def queued_items(self) -> int:
        """Batchable items across all waiting requests (O(1), kept on push/pop)."""
        return self._queued_items

    @property
    def queued_pbs(self) -> int:
        """Bootstraps across all waiting requests (O(1), kept on push/pop)."""
        return self._queued_pbs

    @property
    def tenant_depths(self) -> dict[str, int]:
        """Waiting request count per tenant (zero entries omitted)."""
        return {
            tenant: len(pending)
            for tenant, pending in self._by_tenant.items()
            if pending
        }

    def oldest(self) -> Request | None:
        """The longest-waiting request, or ``None`` when empty.

        Scanned once per head: a push behind a known head cannot change it,
        so only :meth:`_pop_head` taking that head forgets the answer.
        """
        if self._oldest is None and self._by_tenant:
            # Emptied subqueues are deleted, so every deque here has a head;
            # sequence numbers are unique, so the tuples compare on them alone.
            self._oldest = min(map(_HEAD, self._by_tenant.values()))[1]
        return self._oldest

    def oldest_for_tenant(self, tenant: str) -> Request | None:
        """The longest-waiting request of one tenant, or ``None``."""
        pending = self._by_tenant.get(tenant)
        if not pending:
            return None
        return pending[0][1]

    def tenant_heads(self) -> dict[str, Request]:
        """Each tenant's longest-waiting request (what fair queuing scans)."""
        return {
            tenant: pending[0][1]
            for tenant, pending in self._by_tenant.items()
            if pending
        }

    # -- mutation ---------------------------------------------------------------

    def push(self, request: Request) -> None:
        """Enqueue a request (arrival order within and across tenants).

        Raises :class:`QueueOverflowError` when a ``capacity`` is set and
        already reached.
        """
        if self.capacity is not None and self._depth >= self.capacity:
            raise QueueOverflowError(self.capacity, request.tenant)
        self._append(request)

    def stage(self, request: Request) -> None:
        """Enqueue bypassing the capacity bound (the sync staging path).

        ``capacity`` bounds the *runtime* queue depth — how much work may
        wait concurrently while serving.  Sync ``Server.submit`` merely
        stages a trace for a later ``simulate`` pass, which re-pushes
        every request through the bounded runtime queue inside its
        arrival loop; bounding the staging buffer too would cap the total
        trace length, not the instantaneous depth.
        """
        self._append(request)

    def _append(self, request: Request) -> None:
        if not self._by_tenant:
            self._oldest = request
        self._by_tenant.setdefault(request.tenant, deque()).append(
            (self._sequence, request)
        )
        self._sequence += 1
        self._depth += 1
        self.total_enqueued += 1
        self.peak_depth = max(self.peak_depth, self._depth)
        self._queued_items += request.items
        self._queued_pbs += request.total_pbs
        if self.observer is not None:
            self.observer.on_enqueue(request)

    def pop(self) -> Request:
        """Dequeue the oldest request across all tenants."""
        oldest = self.oldest()
        if oldest is None:
            raise IndexError("pop from an empty request queue")
        return self._pop_head(oldest.tenant)

    def pop_for_tenant(self, tenant: str) -> Request:
        """Dequeue one tenant's oldest request (the fair-queuing pop)."""
        if not self._by_tenant.get(tenant):
            raise KeyError(f"tenant {tenant!r} has no queued requests")
        return self._pop_head(tenant)

    def _pop_head(self, tenant: str) -> Request:
        """Unchecked :meth:`pop_for_tenant`, for the batcher popping the head
        it has just peeked."""
        pending = self._by_tenant[tenant]
        _, request = pending.popleft()
        if not pending:
            del self._by_tenant[tenant]
        if request is self._oldest:
            self._oldest = None
        self._depth -= 1
        self._queued_items -= request.items
        self._queued_pbs -= request.total_pbs
        return request
