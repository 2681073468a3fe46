"""The batcher's flush window and the one walk over a batch.

Two rules are checked against the expressions they replaced rather than
against verbatim copies of the old code.  The flush deadline used to be "the
current queue head's arrival + ``max_delay_s``", re-derived on every poll;
it is now a stored window the batcher owns.  While nothing but a flush
removes the head the two are the same number (the first machine), and where
they differ — something else evicts the head — the old rule's deadline ran
away from the flush and the new one may not (the second machine).  Likewise
a batch's totals used to be summed from its requests on first read; `_take`
now hands over what it summed while popping, and both must agree.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.traffic import heavy_tail_trace, steady_trace
from repro.flow import RequestRejectedError
from repro.serve import AdaptiveBatcher, Request, RequestQueue, Server
from repro.serve.batcher import Batch
from repro.serve.request import RequestKind

MAX_DELAY_S = 2e-3
CAPACITY = 8

_TENANTS = st.sampled_from(["a", "b", "c"])
_GAPS = st.sampled_from([0.0, 0.3e-3, 1e-3, 2.5e-3])
_KINDS = st.sampled_from(["bootstrap", "encrypt", "gate", "inference"])
_PUSH = st.tuples(
    st.just("push"),
    _TENANTS,
    st.integers(1, 6),
    _GAPS,
    st.sampled_from([None, 0.5e-3, 5e-3]),  # relative deadline_s
    _KINDS,
)
_QOS = st.sampled_from(["fifo", "fair"])


def _request(request_id: int, tenant: str, items: int, now: float, budget, kind="bootstrap"):
    return Request.make(
        request_id,
        tenant,
        kind,
        items=items,
        arrival_s=now,
        model="NN-20" if kind == "inference" else None,
        deadline_s=None if budget is None else now + budget,
    )


def _batcher(qos: str, **kwargs) -> AdaptiveBatcher:
    return AdaptiveBatcher(
        CAPACITY, MAX_DELAY_S, qos=qos, tenant_weights={"a": 2.0}, **kwargs
    )


# -- the window anchor --------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    qos=_QOS,
    steps=st.lists(
        st.tuples(
            st.one_of(
                _PUSH,
                st.tuples(st.just("poll"), _GAPS),
                st.tuples(st.just("drain"), _GAPS),
            ),
            st.booleans(),  # read the deadline after this step?
        ),
        max_size=40,
    ),
)
def test_window_deadline_is_the_head_age_rule_while_only_flushes_pop(qos, steps):
    """Head-stable equivalence: with push / poll / drain only, the stored
    window deadline is the old one-line rule after every step — whether or
    not anybody read it in between (the window opens lazily)."""
    queue, batcher = RequestQueue(), _batcher(qos)
    now = 0.0
    for request_id, (step, read) in enumerate(steps):
        now += step[3] if step[0] == "push" else step[1]
        if step[0] == "push":
            _, tenant, items, _, budget, kind = step
            queue.push(_request(request_id, tenant, items, now, budget, kind))
        elif step[0] == "poll":
            batcher.poll(queue, now)
        else:
            batcher.drain(queue, now)
            assert not queue
        if read:
            oldest = queue.oldest()
            assert batcher.next_deadline(queue) == (
                oldest.arrival_s + MAX_DELAY_S if queue else None
            )


@settings(max_examples=150, deadline=None)
@given(
    qos=_QOS,
    steps=st.lists(
        st.one_of(
            _PUSH,
            st.tuples(st.just("evict"), _TENANTS),
            st.tuples(st.just("tick"), _GAPS),
        ),
        max_size=50,
    ),
)
def test_evicting_heads_never_postpones_the_flush(qos, steps):
    """The property the head-age rule violated.  Driven like a simulated run
    (every deadline due before an arrival fires at its due time) with head
    evictions as ``FlowController.try_admit`` does them: an open window's
    deadline is moved by nothing but a flush, and at that deadline a batch
    flushes whenever anything servable is queued."""
    expired: list[Request] = []
    queue, batcher = RequestQueue(), _batcher(qos, on_expired=expired.append)
    waiting: list[Request] = []  # the slow reference of the queue's contents

    def poll(at: float) -> list[Batch]:
        batches = batcher.poll(queue, at)
        for gone in [r for batch in batches for r in batch.requests] + expired:
            waiting.remove(gone)
        expired.clear()
        return batches

    def advance(until: float) -> None:
        while (due := batcher.next_deadline(queue)) is not None and due <= until:
            servable = any(not r.expired(due) for r in waiting)
            assert bool(poll(due)) == servable
            after = batcher.next_deadline(queue)
            assert after is None or after >= due  # a flush only moves it later

    now = 0.0
    for request_id, step in enumerate(steps):
        if step[0] == "tick":
            now += step[1]
            advance(now)
            continue
        if step[0] == "push":
            _, tenant, items, gap, budget, kind = step
            now += gap
            advance(now)
        before = batcher.next_deadline(queue) if queue else None
        if step[0] == "push":
            request = _request(request_id, tenant, items, now, budget, kind)
            queue.push(request)
            waiting.append(request)
            if queue.queued_items >= CAPACITY:  # what offer() does after a push
                poll(now)
                continue
        else:
            victim = next((r for r in waiting if r.tenant == step[1]), None)
            if victim is None:
                continue
            assert queue.pop_for_tenant(victim.tenant) is victim
            waiting.remove(victim)
        if before is not None and queue:
            # Neither joining an open window nor evicting its head moves it,
            # and it is never further away than one full delay.
            assert batcher.next_deadline(queue) == before <= now + MAX_DELAY_S
    advance(float("inf"))
    assert not queue and not waiting


def test_poll_flushes_when_called_unconditionally():
    """``offer`` asks whether a batch is due before entering ``poll``; the
    short-cut is the caller's, not part of ``poll``'s contract — the wire
    flusher and hand-driven callers call it with no ``next_deadline`` first."""
    for qos in ("fifo", "fair"):
        queue, batcher = RequestQueue(), _batcher(qos)
        queue.push(_request(1, "a", 2, 1.0, None))
        queue.push(_request(2, "b", 2, 1.001, None))
        assert batcher.poll(queue, 1.0019) == []
        (batch,) = batcher.poll(queue, 1.002)  # the first arrival's deadline
        assert batch.flush_reason == "deadline" and len(batch.requests) == 2
        assert batcher.next_deadline(queue) is None
        queue.push(_request(3, "a", 5, 2.0, None))
        queue.push(_request(4, "a", 5, 2.0, None))
        assert [b.flush_reason for b in batcher.poll(queue, 2.0)] == ["full"]
        assert batcher.next_deadline(queue) == 2.0 + MAX_DELAY_S  # the head left behind


def test_shed_oldest_sustains_goodput_under_sustained_overload():
    """The livelock, as a plain regression: at 2x the cluster's capacity the
    head is evicted faster than ``max_delay_s``; the flush must still come."""
    capacity_rps, duration_s = 31_300.0, 0.1
    config = dict(devices=4, params="I", queue_capacity=64, batch_capacity=4096)
    trace = steady_trace(
        rate_rps=2 * capacity_rps,
        duration_s=duration_s,
        seed=5,
        kind_mix={RequestKind.BOOTSTRAP: 1.0},
    )
    completed = {}
    for policy in ("shed-oldest", "reject-newest"):
        metrics = Server(admission=policy, **config).simulate(list(trace)).metrics
        overload = metrics.overload
        completed[policy] = metrics.requests
        assert (
            metrics.requests + overload["shed"] + overload["rejected"] + overload["expired"]
            == len(trace)
        )
    assert completed["shed-oldest"] >= 0.8 * capacity_rps * duration_s
    assert completed["shed-oldest"] >= 0.8 * completed["reject-newest"]


# -- one walk, same numbers ---------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    qos=_QOS,
    pushes=st.lists(
        st.tuples(
            _TENANTS,
            st.sampled_from([1, 2, 3, 5, 40]),  # 40 > CAPACITY: ships alone
            st.sampled_from([None, 0.5e-3, 5e-3]),
            _KINDS,
        ),
        min_size=1,
        max_size=12,
    ),
    late=st.sampled_from([0.0, 1e-3, 1.0]),
)
def test_take_hands_the_batch_the_totals_a_fresh_batch_derives(qos, pushes, late):
    expired: list[Request] = []
    queue, batcher = RequestQueue(), _batcher(qos, on_expired=expired.append)
    for request_id, (tenant, items, budget, kind) in enumerate(pushes):
        queue.push(_request(request_id, tenant, items, 0.0, budget, kind))
    batches = batcher.drain(queue, now=late)
    assert sorted(
        [r.request_id for b in batches for r in b.requests] + [r.request_id for r in expired]
    ) == list(range(len(pushes)))
    if late == 1.0 and all(budget is not None for _, _, budget, _ in pushes):
        assert batches == []  # every take expired all its candidates
    for batch in batches:
        handed = vars(batch)
        assert {"total_items", "total_pbs", "linear_items", "tenants"} <= set(handed)
        fresh = Batch(batch.batch_id, batch.requests, batch.created_s, batch.flush_reason)
        assert batch == fresh and repr(batch) == repr(fresh)
        assert handed["total_items"] == sum(r.items for r in batch.requests)
        assert handed["total_pbs"] == sum(r.total_pbs for r in batch.requests)
        assert handed["tenants"] == frozenset(r.tenant for r in batch.requests)
        assert handed["linear_items"] == fresh.linear_items == fresh.request_mix[0]
        assert batch.request_mix == fresh.request_mix
        if len(batch.requests) > 1:
            assert batch.total_items <= CAPACITY

        # The fault injector's retry path: the copy carries the five fields
        # only and derives its own totals.
        replayed = replace(batch, attempt=1)
        assert replayed == replace(fresh, attempt=1)
        assert not {"total_items", "total_pbs", "linear_items", "tenants"} & set(vars(replayed))
        assert (replayed.total_items, replayed.total_pbs, replayed.tenants) == (
            batch.total_items,
            batch.total_pbs,
            batch.tenants,
        )


@pytest.mark.parametrize("qos", ["fifo", "fair"])
def test_whole_trace_and_streamed_offers_agree_field_by_field(qos):
    """``simulate(trace)`` against ``begin_run`` + one ``offer`` per request +
    ``finish``: the one ``_dispatch`` loop feeds the tenant ledger, both
    latency histograms and the report, and all of them must read the same."""
    trace = heavy_tail_trace(3000.0, 0.2, seed=11, tenants=5)
    config = dict(
        devices=2, params="I", qos=qos, admission="reject-newest", queue_capacity=48
    )
    whole, streamed = Server(**config), Server(**config)
    report = whole.simulate(trace, label="t")
    run = streamed.begin_run("t")
    for request in sorted(trace, key=lambda request: request.arrival_s):
        try:
            run.offer(request)
        except RequestRejectedError:
            pass
    assert run.finish().to_dict() == report.to_dict()
    assert report.metrics.requests > 0
    for server in (whole, streamed):
        served = [outcome.request for outcome in report.outcomes]
        for name, state in server.tenants.items():
            mine = [r for r in served if r.tenant == name]
            assert (state.requests, state.items, state.pbs) == (
                len(mine),
                sum(r.items for r in mine),
                sum(r.total_pbs for r in mine),
            )
    for name in ("_latency_hist", "_queue_delay_hist"):
        one, other = getattr(whole, name), getattr(streamed, name)
        assert one.count == other.count == report.metrics.requests
        assert one.sum == other.sum
        assert one.cumulative_buckets() == other.cumulative_buckets()
    assert whole._latency_hist.sum == pytest.approx(
        sum(outcome.latency_s for outcome in report.outcomes)
    )
