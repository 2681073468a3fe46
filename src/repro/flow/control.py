"""The flow controller: executes admission decisions and accounts overload.

One :class:`FlowController` lives on each :class:`~repro.serve.Server`.
It is the single place every overload outcome funnels through, so the
``overload`` block of a :class:`~repro.serve.server.ServeReport` — and the
``serve_overload`` registry view the ``STATS`` frame scrapes — is one
consistent ledger:

* **admitted** — requests that entered the queue;
* **rejected** — turned away at admission (reject-newest / quota);
* **shed** — admitted earlier, evicted by a later arrival (shed-oldest);
* **expired** — admitted, but already past their ``deadline_s`` when the
  batcher went to put them in a batch (dropped at admit time, counted,
  never executed);
* **busy_replies** — ``BUSY`` frames the wire front-end sent on this
  server's behalf (credit-window exhaustion or admission rejection).

The conservation law the property suite pins: every submitted request is
exactly one of completed, rejected, shed, expired or lost-to-a-fault.

Everything here is deterministic — pure counter arithmetic driven by the
serving clock, no wall time, no randomness — so overload replays are
bit-for-bit reproducible, and a run in which nothing was ever rejected,
shed or expired reports an *empty* overload block, keeping unsaturated
traces byte-identical to the pre-flow-subsystem output.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.flow.admission import (
    AdmissionLimits,
    AdmissionPolicy,
    get_admission_policy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.serve.queue import RequestQueue
    from repro.serve.request import Request

#: Smallest retry-after hint a rejection carries (the hint scales up with
#: backlog; the floor keeps an empty-queue rejection from telling clients to
#: hammer the server immediately).
RETRY_AFTER_FLOOR_S = 1e-3


class RequestRejectedError(RuntimeError):
    """Admission control turned a request away (or shed it from the queue).

    ``retry_after_s`` is the server's deterministic backoff hint — how long
    the client should wait before resubmitting; it rides the wire in the
    ``BUSY`` frame.
    """

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DeadlineExceededError(RuntimeError):
    """A request expired before the batcher could place it in a batch."""


class _TenantCounters:
    """Per-tenant overload tally (plain counters, cheap to copy out)."""

    __slots__ = ("admitted", "rejected", "shed", "expired")

    def __init__(self) -> None:
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        self.expired = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "expired": self.expired,
        }


class FlowController:
    """Admission execution and overload accounting for one server.

    ``policy=None`` disables admission control entirely: every request is
    admitted without even reading the limits (the queue's own ``capacity``
    then guards overflow with a loud
    :class:`~repro.serve.queue.QueueOverflowError`), nothing is counted on
    the admit path,
    and :meth:`overload` stays empty — the byte-identity fast path.
    """

    def __init__(
        self,
        policy: "str | AdmissionPolicy | None" = None,
        queue_capacity: int | None = None,
        tenant_capacity: int | None = None,
    ):
        self.policy = get_admission_policy(policy) if policy is not None else None
        self.limits = AdmissionLimits(
            queue_capacity=queue_capacity, tenant_capacity=tenant_capacity
        )
        self.reset()

    def reset(self) -> None:
        """Clear every counter (a fresh simulation starts a fresh ledger)."""
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        self.expired = 0
        self.busy_replies = 0
        self._tenants: dict[str, _TenantCounters] = {}

    # -- state -------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether admission control is actually on."""
        return self.policy is not None

    @property
    def touched(self) -> bool:
        """Whether any overload event has been counted this run."""
        return bool(
            self.admitted
            or self.rejected
            or self.shed
            or self.expired
            or self.busy_replies
        )

    def _tenant(self, tenant: str) -> _TenantCounters:
        counters = self._tenants.get(tenant)
        if counters is None:
            counters = self._tenants[tenant] = _TenantCounters()
        return counters

    # -- the admit path ----------------------------------------------------------

    def try_admit(
        self, queue: "RequestQueue", request: Request
    ) -> tuple[bool, list[Request], str]:
        """Run the policy and *execute* its decision against the queue.

        Returns ``(admitted, shed_victims, reason)``.  Victims have
        already been popped from the queue (and counted as shed); the
        caller owes their submitters a typed error.  The arriving request itself
        is *not* pushed — on ``admitted=True`` the caller pushes it, so
        queue observation hooks fire in the caller's order.
        """
        if self.policy is None:
            return True, [], ""
        decision = self.policy.decide(queue, request, self.limits)
        if not decision.admit:
            self.rejected += 1
            self._tenant(request.tenant).rejected += 1
            return False, [], decision.reason
        victims: list[Request] = []
        for victim in decision.shed:
            # Policies only ever shed a subqueue head, so the fair-queuing
            # pop is the eviction primitive (and keeps counters exact).
            popped = queue.pop_for_tenant(victim.tenant)
            assert popped is victim, "admission policies may only shed queue heads"
            victims.append(popped)
            self.shed += 1
            self._tenant(victim.tenant).shed += 1
        self.admitted += 1
        self._tenant(request.tenant).admitted += 1
        return True, victims, decision.reason

    def note_expired(self, request: Request) -> None:
        """Count a request the batcher dropped as already past its deadline."""
        self.expired += 1
        self._tenant(request.tenant).expired += 1

    def note_busy_reply(self) -> None:
        """Count one ``BUSY`` frame the wire front-end sent for this server."""
        self.busy_replies += 1

    def retry_after_s(self, queue: "RequestQueue", drain_rate_hint_s: float) -> float:
        """Deterministic backoff hint for a rejection at the current backlog.

        ``drain_rate_hint_s`` is roughly how long one queue's worth of
        work takes to drain (the server passes its batcher deadline); the
        hint scales linearly with how full the queue is, so clients back
        off harder the deeper the overload — and identically on every
        replay of the same trace.
        """
        if self.limits.queue_capacity:
            fill = queue.depth / self.limits.queue_capacity
        else:
            fill = 1.0
        return max(RETRY_AFTER_FLOOR_S, drain_rate_hint_s * (1.0 + fill))

    # -- reporting ---------------------------------------------------------------

    def overload(self) -> dict[str, Any]:
        """The report's ``overload`` block (``{}`` when nothing happened).

        Empty-when-untouched is the determinism invariant: a server with
        admission enabled that never rejected, shed or expired anything
        still reports ``admitted`` counts (the knob was on and the ledger
        is real), but a server that never counted anything at all — the
        default configuration — contributes nothing to the report.
        """
        if not self.touched:
            return {}
        block: dict[str, Any] = {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "expired": self.expired,
        }
        if self.busy_replies:
            block["busy_replies"] = self.busy_replies
        block["per_tenant"] = {
            tenant: counters.to_dict()
            for tenant, counters in sorted(self._tenants.items())
        }
        if self.policy is not None:
            block["policy"] = self.policy.name
        return block

    def stats_view(self) -> dict[str, float]:
        """Flat registry view (rides ``STATS``; empty when untouched)."""
        if not self.touched:
            return {}
        return {
            "admitted": float(self.admitted),
            "rejected": float(self.rejected),
            "shed": float(self.shed),
            "expired": float(self.expired),
            "busy_replies": float(self.busy_replies),
        }
