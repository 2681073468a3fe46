"""Admission policies: who gets into a bounded request queue, who does not.

An overloaded server has exactly three honest options when a request
arrives and the queue is at capacity: turn the new request away, evict
queued work to make room, or have reserved room per tenant so one flooder
cannot fill the queue in the first place.  Each is an
:class:`AdmissionPolicy`; all three are registered behind the same
string-keyed, did-you-mean registry shape every other pluggable seam uses
(``Server(admission="shed-oldest")``).

A policy is a *pure decision function*: given the queue, the arriving
request and the configured limits it returns an :class:`AdmissionDecision`
— admit as-is, admit after shedding named queued victims, or reject with a
reason.  It never mutates the queue itself; the
:class:`~repro.flow.control.FlowController` executes the decision (pops
victims, counts outcomes, reports the drops).  Decisions are deterministic
functions of queue state, so replayed overload traces shed bit-for-bit
the same requests every run.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import UnknownAdmissionPolicyError
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.serve.queue import RequestQueue
    from repro.serve.request import Request


@dataclass(frozen=True)
class AdmissionLimits:
    """Capacities an admission policy enforces.

    ``queue_capacity`` bounds total waiting requests; ``tenant_capacity``
    bounds one tenant's waiting requests.  ``None`` means unbounded on
    that axis (a policy with both ``None`` admits everything).
    """

    queue_capacity: int | None = None
    tenant_capacity: int | None = None

    def __post_init__(self) -> None:
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue capacity must be at least one request")
        if self.tenant_capacity is not None and self.tenant_capacity < 1:
            raise ValueError("tenant capacity must be at least one request")


@dataclass(frozen=True)
class AdmissionDecision:
    """What a policy decided for one arriving request.

    ``admit`` with an empty ``shed`` is the fast path.  ``shed`` names
    queued requests the controller must evict *before* pushing the new
    one (shed-oldest makes room this way).  A rejection carries a
    human-readable ``reason`` that travels to the typed error / BUSY
    reply.
    """

    admit: bool
    shed: tuple[Request, ...] = ()
    reason: str = ""


#: The decision every policy takes on an unbounded queue.
_ADMIT = AdmissionDecision(admit=True)


class AdmissionPolicy(abc.ABC):
    """Decides, per arriving request, admit / shed-then-admit / reject."""

    #: Registry name (set by subclasses).
    name = "base"

    @abc.abstractmethod
    def decide(
        self, queue: "RequestQueue", request: Request, limits: AdmissionLimits
    ) -> AdmissionDecision:
        """The admission decision for ``request`` against the current queue."""

    # -- shared predicates --------------------------------------------------------

    @staticmethod
    def _queue_full(queue: "RequestQueue", limits: AdmissionLimits) -> bool:
        return (
            limits.queue_capacity is not None
            and queue.depth >= limits.queue_capacity
        )

    @staticmethod
    def _tenant_full(
        queue: "RequestQueue", tenant: str, limits: AdmissionLimits
    ) -> bool:
        return (
            limits.tenant_capacity is not None
            and queue.tenant_depths.get(tenant, 0) >= limits.tenant_capacity
        )


class RejectNewestPolicy(AdmissionPolicy):
    """Turn the arriving request away when a capacity is exhausted.

    The classic tail-drop: queued work is never disturbed, the newcomer
    pays.  Cheapest and fairest to work already accepted; a client with a
    retry loop (which the BUSY reply's hint drives) gets in once the
    backlog drains.
    """

    name = "reject-newest"

    def decide(
        self, queue: "RequestQueue", request: Request, limits: AdmissionLimits
    ) -> AdmissionDecision:
        if self._queue_full(queue, limits):
            return AdmissionDecision(
                admit=False,
                reason=f"queue is at capacity ({limits.queue_capacity} requests)",
            )
        if self._tenant_full(queue, request.tenant, limits):
            return AdmissionDecision(
                admit=False,
                reason=(
                    f"tenant {request.tenant!r} is at capacity "
                    f"({limits.tenant_capacity} queued requests)"
                ),
            )
        return _ADMIT


class ShedOldestPolicy(AdmissionPolicy):
    """Evict the longest-waiting queued request to make room for the new one.

    Head-drop: under a deadline discipline the oldest queued request is
    the one most likely to miss its deadline anyway, so shedding it keeps
    the queue full of work that can still finish in time.  Per-tenant
    overflow sheds that tenant's own oldest request (a flooder evicts only
    itself).
    """

    name = "shed-oldest"

    def decide(
        self, queue: "RequestQueue", request: Request, limits: AdmissionLimits
    ) -> AdmissionDecision:
        if self._tenant_full(queue, request.tenant, limits):
            victim = queue.oldest_for_tenant(request.tenant)
            assert victim is not None
            return AdmissionDecision(
                admit=True,
                shed=(victim,),
                reason=f"tenant {request.tenant!r} at capacity; shed its oldest",
            )
        if self._queue_full(queue, limits):
            victim = queue.oldest()
            assert victim is not None
            return AdmissionDecision(
                admit=True,
                shed=(victim,),
                reason="queue at capacity; shed the oldest request",
            )
        return _ADMIT


@dataclass
class TenantQuotaPolicy(AdmissionPolicy):
    """Reserve each tenant a weighted slice of the queue capacity.

    Every tenant's waiting-request count is capped at its
    weight-proportional share of ``queue_capacity`` over the tenants
    *currently queued or arriving* (at least one request each), so a
    flooding tenant exhausts only its own slice while light tenants'
    arrivals keep being admitted.  The global bound still applies on top.

    ``weights`` mirrors the batcher's QoS weights (default 1.0); pass the
    same dict to both to align queue admission with batch shares.
    """

    weights: dict[str, float] = field(default_factory=dict)
    name = "tenant-quota"

    def __post_init__(self) -> None:
        if any(weight <= 0 for weight in self.weights.values()):
            raise ValueError("tenant weights must be positive")

    def _weight(self, tenant: str) -> float:
        return self.weights.get(tenant, 1.0)

    def quota(
        self, queue: "RequestQueue", tenant: str, limits: AdmissionLimits
    ) -> int | None:
        """The tenant's current waiting-request quota (``None`` = unbounded)."""
        if limits.queue_capacity is None:
            return limits.tenant_capacity
        tenants = set(queue.tenant_depths) | {tenant}
        total_weight = sum(self._weight(name) for name in tenants)
        share = max(
            1, int(limits.queue_capacity * self._weight(tenant) / total_weight)
        )
        if limits.tenant_capacity is not None:
            share = min(share, limits.tenant_capacity)
        return share

    def decide(
        self, queue: "RequestQueue", request: Request, limits: AdmissionLimits
    ) -> AdmissionDecision:
        if self._queue_full(queue, limits):
            return AdmissionDecision(
                admit=False,
                reason=f"queue is at capacity ({limits.queue_capacity} requests)",
            )
        quota = self.quota(queue, request.tenant, limits)
        if quota is not None and queue.tenant_depths.get(request.tenant, 0) >= quota:
            return AdmissionDecision(
                admit=False,
                reason=(
                    f"tenant {request.tenant!r} exhausted its quota "
                    f"({quota} queued requests)"
                ),
            )
        return _ADMIT


_POLICIES: Registry[AdmissionPolicy] = Registry(
    UnknownAdmissionPolicyError,
    AdmissionPolicy,
    (RejectNewestPolicy, ShedOldestPolicy, TenantQuotaPolicy),
)

#: Registered admission-policy names, sorted.
list_admission_policies = _POLICIES.names


def get_admission_policy(policy: "str | AdmissionPolicy") -> AdmissionPolicy:
    """Resolve a policy name (or pass an instance through).

    Raises :class:`~repro.errors.UnknownAdmissionPolicyError` for unknown
    names — the shared did-you-mean shape, still a ``ValueError`` for
    argument-validation callers.
    """
    return _POLICIES.get(policy)
