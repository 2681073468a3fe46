"""A state machine steps one ``ServingRun`` through its public surface.

Hypothesis draws a server (tenants 1-8, devices 1-4, FIFO or ``fair`` QoS,
no admission or one of the three policies with small capacities, per-request
deadlines, a seeded ``random_fault_schedule`` of deaths)
and then any interleaving of ``offer`` at a non-decreasing arrival,
``resolved()``, a mid-stream ``drain()``, ``close()`` and ``finish()``, on
the simulated clock.  After every step:

* the ledger: queued + completed + lost + rejected + shed + expired ==
  offered, each term read off the server's own counters (a rejection is
  also counted by the caller ``offer`` raised to, and the two agree);
* queued + in-flight + accounted == offered, request by request: in flight
  is the run's outbox (outcomes in ``metrics.outcomes``, drops owed an
  error), accounted is what has left it (outcomes and drops taken through
  ``resolved()``, the outcomes ``finish()`` reports, refusals raised by
  ``offer``), and no request is in two of those places or handed out twice;
* every drop carries the error its kind of counter owes.

After ``finish()`` the report holds exactly the outcomes no consumer took,
and its ledger sums to the offers.
"""

from __future__ import annotations

from collections import Counter

from conftest import random_fault_schedule
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.faults.injector import RequestLostError
from repro.flow import DeadlineExceededError, RequestRejectedError, list_admission_policies
from repro.serve import Request, Server

#: Simulated seconds the fault schedule spans: about what 50 offers reach.
FAULT_SPAN_S = 0.05


class ServingRunMachine(RuleBasedStateMachine):
    """One simulated-clock ``ServingRun`` and the consumer that drives it."""

    @initialize(
        tenants=st.integers(1, 8),
        devices=st.integers(1, 4),
        qos=st.sampled_from(["fifo", "fair"]),
        admission=st.sampled_from([None, *list_admission_policies()]),
        queue_capacity=st.integers(1, 8),
        tenant_capacity=st.integers(1, 4),
        faults=st.none() | st.integers(0, 2**16),
        on_death=st.sampled_from(["retry", "drop"]),
    )
    def begin(
        self, tenants, devices, qos, admission, queue_capacity, tenant_capacity, faults, on_death
    ):
        options = {"devices": devices, "params": "I", "qos": qos, "on_death": on_death}
        if admission is not None:
            options.update(
                admission=admission,
                queue_capacity=queue_capacity,
                tenant_capacity=tenant_capacity,
            )
        if faults is not None:
            options["faults"] = random_fault_schedule(devices, FAULT_SPAN_S, seed=faults)
        self.server = Server(**options)
        self.run = self.server.begin_run(label="machine")
        self.tenants = tenants
        self.arrival = 0.0
        self.offered: list[Request] = []
        self.refused: list[Request] = []
        self.taken: list = []  # outcomes handed to the consumer
        self.taken_drops: list[tuple[Request, Exception]] = []
        self.reported: list = []  # the outcomes finish() reports
        self.closed = self.finished = False

    # -- the consumer's steps ---------------------------------------------------------

    @precondition(lambda self: not self.closed)
    @rule(
        gap=st.sampled_from([0.0, 1e-4, 5e-4, 1.5e-3, 4e-3]),
        tenant=st.integers(0, 7),
        kind=st.sampled_from(["gate", "bootstrap", "encrypt"]),
        items=st.integers(1, 300),
        budget=st.none() | st.sampled_from([5e-4, 1.9e-3, 3e-3]),
    )
    def offer(self, gap, tenant, kind, items, budget):
        self.arrival += gap
        request = Request.make(
            len(self.offered) + 1,
            f"t{tenant % self.tenants}",
            kind,
            items,
            arrival_s=self.arrival,
            deadline_s=None if budget is None else self.arrival + budget,
        )
        self.offered.append(request)
        try:
            self.run.offer(request)
        except RequestRejectedError:
            self.refused.append(request)

    @rule()
    def resolved(self):
        outcomes, drops = self.run.resolved()
        self.taken += outcomes
        self.taken_drops += drops

    @precondition(lambda self: not self.closed)
    @rule()
    def drain(self):
        self.run.drain()
        assert self.run.queue.depth == 0

    @precondition(lambda self: not self.closed)
    @rule()
    def close(self):
        self.run.close()
        self.closed = True
        assert self.server.active_run is None

    @precondition(lambda self: not self.finished)
    @rule()
    def finish(self):
        outbox = list(self.run.metrics.outcomes)
        before = len(self.run.metrics.latencies)
        report = self.run.finish()
        self.closed = self.finished = True
        flushed = self.run.metrics.outcomes  # the report took the outbox ...
        assert flushed == []
        # ... which is what no consumer took: the old outbox, then the drain's.
        assert report.outcomes[: len(outbox)] == outbox
        assert len(report.outcomes) == len(outbox) + len(self.run.metrics.latencies) - before
        self.reported = report.outcomes
        ledger = self.ledger()
        fates = report.metrics
        overload, availability = fates.overload, fates.availability
        assert fates.requests == ledger["completed"]
        assert availability.get("requests_lost", 0) == ledger["lost"]
        for fate in ("rejected", "shed", "expired"):
            assert overload.get(fate, 0) == ledger[fate]
        assert sum(ledger.values()) == len(self.offered)

    # -- what holds after every step --------------------------------------------------

    def ledger(self) -> dict[str, int]:
        flow, faults = self.server.flow, self.server.cluster.faults
        return {
            "queued": self.run.queue.depth,
            "completed": len(self.run.metrics.latencies),
            "lost": faults.requests_lost,
            "rejected": flow.rejected,
            "shed": flow.shed,
            "expired": flow.expired,
        }

    @invariant()
    def every_offer_is_in_the_ledger(self):
        ledger = self.ledger()
        assert ledger["rejected"] == len(self.refused)
        assert sum(ledger.values()) == len(self.offered)

    @invariant()
    def every_request_is_in_one_place(self):
        outbox = self.run.metrics.outcomes
        pending_drops = self.run._drops  # owed an error, not yet asked for
        places = [
            *(outcome.request.request_id for outcome in outbox),
            *(drop[0].request_id for drop in pending_drops),
            *(outcome.request.request_id for outcome in self.taken + self.reported),
            *(request.request_id for request, _ in self.taken_drops),
            *(request.request_id for request in self.refused),
        ]
        held = Counter(places)
        assert not held or max(held.values()) == 1, held.most_common(3)
        in_flight = len(outbox) + len(pending_drops)
        taken = len(self.taken) + len(self.reported)
        accounted = taken + len(self.taken_drops) + len(self.refused)
        assert self.run.queue.depth + in_flight + accounted == len(self.offered)
        assert len(outbox) + taken == len(self.run.metrics.latencies)

    @invariant()
    def every_drop_carries_the_error_of_its_kind(self):
        kinds = Counter(kind for _, kind, _ in self.run._drops)
        kinds.update(type(error) for _, error in self.taken_drops)
        flow, faults = self.server.flow, self.server.cluster.faults
        owed = {
            RequestLostError: faults.requests_lost,
            RequestRejectedError: flow.shed,
            DeadlineExceededError: flow.expired,
        }
        assert kinds == +Counter(owed)  # unary + drops the zero counts

    @invariant()
    def a_finished_run_hands_out_nothing_new(self):
        if self.finished:
            assert self.run.metrics.outcomes == [] and self.run.queue.depth == 0


ServingRunMachine.TestCase.settings = settings(deadline=None, stateful_step_count=30)
TestServingRunMachine = ServingRunMachine.TestCase


def test_finish_after_close_counts_what_expires_in_its_drain():
    """The machine's first find: ``close()`` unhooked the batcher's expiry
    callback, so the drain of a later ``finish()`` dropped a request that
    expired there from every count and owed its submitter nothing."""
    run = Server(devices=1, params="I").begin_run(label="closed first")
    run.offer(Request.make(1, "t0", "gate", arrival_s=0.0, deadline_s=5e-4))
    run.close()
    report = run.finish()
    assert report.metrics.overload["expired"] == 1
    ((request, error),) = run.resolved()[1]
    assert request.request_id == 1 and isinstance(error, DeadlineExceededError)
