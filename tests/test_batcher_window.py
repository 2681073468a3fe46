"""The batcher's flush window and the one walk over a batch.

Two rules are checked against the expressions they replaced rather than
against verbatim copies of the old code.  The flush deadline used to be "the
current queue head's arrival + ``max_delay_s``", re-derived on every poll;
it is now a stored window the batcher owns.  While nothing but a flush
removes the head the two are the same number (the first machine), and where
they differ — something else evicts the head — the old rule's deadline ran
away from the flush and the new one may not (the second machine).  Likewise
a batch's shape (its totals, tenants and request mix) is derived once, when
the batch is built; every batch the batcher flushes must carry what summing its
requests one total at a time gives.  Last, the per-request pass is held to a
bounded number of queue-head reads and polls per arrival.
"""

from __future__ import annotations

from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.traffic import bursty_trace, heavy_tail_trace, steady_trace
from repro.flow import RequestRejectedError
from repro.serve import AdaptiveBatcher, Request, RequestQueue, Server
from repro.serve.batcher import Batch
from repro.serve.request import RequestKind
from repro.serve.server import ServingRun

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


def spec_shape(requests):
    """A batch's shape from its requests, one sum per total: what `Batch` derives."""
    models = [r for r in requests if r.pbs_per_item and r.model is not None]
    return {
        "total_items": sum(r.items for r in requests),
        "total_pbs": sum(r.total_pbs for r in requests),
        "tenants": frozenset(r.tenant for r in requests),
        "request_mix": (
            sum(r.items for r in requests if not r.pbs_per_item),
            sum(r.total_pbs for r in requests if r.pbs_per_item and r.model is None),
            tuple(sorted(models, key=lambda r: (r.model, r.items))),
        ),
    }


@settings(deadline=None)
@given(
    qos=_QOS,
    steps=st.lists(
        st.tuples(
            _TENANTS,
            st.sampled_from([1, 2, 3, 5, 40]),  # 40 > CAPACITY: ships alone
            _GAPS,
            st.sampled_from([None, 0.5e-3, 5e-3]),  # relative deadline_s
            st.sampled_from(
                [
                    ("encrypt", None),
                    ("gate", None),
                    ("bootstrap", None),
                    ("inference", "NN-20"),
                    ("inference", "NN-50"),
                ]
            ),
        ),
        min_size=1,
        max_size=24,
    ),
    late=st.sampled_from([0.0, 1e-3, 1.0]),
)
def test_every_flushed_batch_carries_what_its_requests_derive(qos, steps, late):
    """Every batch `_take` flushes, by a full queue, a deadline or the drain,
    carries the shape its requests derive, as does a `Batch` built from them
    and a `dataclasses.replace` copy; every request ships or expires once."""
    expired: list[Request] = []
    queue, batcher = RequestQueue(), _batcher(qos, on_expired=expired.append)
    batches: list[Batch] = []
    now = 0.0
    for request_id, (tenant, items, gap, budget, (kind, model)) in enumerate(steps):
        now += gap
        batches += batcher.poll(queue, now)
        queue.push(
            Request.make(
                request_id,
                tenant,
                kind,
                items=items,
                arrival_s=now,
                model=model,
                deadline_s=None if budget is None else now + budget,
            )
        )
    batches += batcher.drain(queue, now + late)
    assert sorted(
        [r.request_id for b in batches for r in b.requests] + [r.request_id for r in expired]
    ) == list(range(len(steps)))
    if late == 1.0 and all(budget is not None for _, _, _, budget, _ in steps):
        # Every request still queued has expired: the drain ships nothing.
        assert all(batch.flush_reason != "drain" for batch in batches)
    for batch in batches:
        spec = spec_shape(batch.requests)
        fresh = Batch(batch.batch_id, batch.requests, batch.created_s, batch.flush_reason)
        # The fault injector's retry path: the copy derives its own shape.
        replayed = replace(batch, attempt=1)
        assert batch == fresh and repr(batch) == repr(fresh)
        assert replayed == replace(fresh, attempt=1)
        for derived in (batch, fresh, replayed):
            assert {name: getattr(derived, name) for name in spec} == spec
        if len(batch.requests) > 1:
            assert batch.total_items <= CAPACITY


def assert_whole_trace_equals_streamed_offers(trace, **config):
    """``simulate(trace)`` against ``begin_run`` + one ``offer`` per request +
    ``finish`` on a twin server: the report, every outcome tuple, every drop
    (with its kind and reason) and the whole metrics registry must read the
    same, whichever pass ``simulate`` takes.  ``NetServer`` replays a trace
    through ``offer``, so this is also a trace over TCP against the same trace
    in process."""
    drops: dict[str, list] = {"whole": [], "streamed": []}
    drop = ServingRun._drop

    def recording_drop(run, request, kind, what):
        drops[run.label].append((request, kind, what))
        drop(run, request, kind, what)

    whole, streamed = Server(**config), Server(**config)
    with patch.object(ServingRun, "_drop", recording_drop):
        report = whole.simulate(trace, label="whole")
        run = streamed.begin_run("streamed")
        for request in sorted(trace, key=lambda request: request.arrival_s):
            try:
                run.offer(request)
            except RequestRejectedError:
                pass
        streamed_report = run.finish()
    assert streamed_report.to_dict() == {**report.to_dict(), "label": "streamed"}
    assert [tuple(o) for o in streamed_report.outcomes] == [tuple(o) for o in report.outcomes]
    assert drops["streamed"] == drops["whole"]
    assert streamed.metrics() == whole.metrics()
    for name in ("_latency_hist", "_queue_delay_hist"):
        one, other = getattr(whole, name), getattr(streamed, name)
        assert one.count == other.count == report.metrics.requests
        assert one.sum == other.sum
        assert one.cumulative_buckets() == other.cumulative_buckets()
    assert whole._latency_hist.sum == pytest.approx(
        sum(outcome.latency_s for outcome in report.outcomes)
    )
    return report


@pytest.mark.parametrize("qos", ["fifo", "fair"])
def test_whole_trace_and_streamed_offers_agree_field_by_field(qos):
    """Out of the windowed pass's scope: admission, a queue bound, fair QoS."""
    trace = heavy_tail_trace(3000.0, 0.2, seed=11, tenants=5)
    config = dict(
        devices=2, params="I", qos=qos, admission="reject-newest", queue_capacity=48
    )
    report = assert_whole_trace_equals_streamed_offers(trace, **config)
    assert len(report.outcomes) == report.metrics.requests > 0


@settings(deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            _TENANTS,
            st.sampled_from([1, 2, 3, 5, 40]),  # 40 > every capacity drawn: ships alone
            _GAPS,
            st.sampled_from([None, 0.5e-3, 5e-3]),  # relative deadline_s
            _KINDS,
        ),
        min_size=1,
        max_size=30,
    ),
    cost_model=st.sampled_from(["analytical", "event"]),
    max_batch_delay_s=st.sampled_from([0.0, 1e-3, 2e-3]),
    batch_capacity=st.sampled_from([4, 8, 32]),
    devices=st.integers(1, 3),
    policy=st.sampled_from(["round-robin", "least-loaded"]),
    layout=st.sampled_from(["data-parallel", "pipeline", "elastic"]),
)
def test_whole_trace_and_streamed_offers_agree_on_every_in_scope_trace(
    steps, cost_model, max_batch_delay_s, batch_capacity, devices, policy, layout
):
    """The configurations ``simulate`` serves one flush window at a time,
    with full and deadline flushes, oversized requests and expiring ones."""
    trace, now = [], 0.0
    for request_id, (tenant, items, gap, budget, kind) in enumerate(steps):
        now += gap
        trace.append(_request(request_id, tenant, items, now, budget, kind))
    assert_whole_trace_equals_streamed_offers(
        trace,
        params="I",
        cost_model=cost_model,
        max_batch_delay_s=max_batch_delay_s,
        batch_capacity=batch_capacity,
        devices=devices,
        policy=policy,
        layout=layout,
    )


def test_replay_refuses_what_it_cannot_window():
    """``replay`` windows a FIFO trace onto an empty queue, sorted by finite
    arrivals from 0; anything else is refused before a batch is flushed."""
    first, second = _request(0, "a", 2, 1e-3, None), _request(1, "a", 2, 2e-3, None)
    queue = RequestQueue()
    with pytest.raises(ValueError, match="FIFO"):
        next(_batcher("fair").replay(queue, [first]))
    queue.push(first)
    with pytest.raises(ValueError, match="empty queue"):
        next(_batcher("fifo").replay(queue, [second]))
    for trace in ([second, first], [_request(0, "a", 2, -1e-3, None)]):
        batcher = _batcher("fifo")
        with pytest.raises(ValueError, match="non-decreasing, finite"):
            next(batcher.replay(RequestQueue(), trace))
        assert batcher.batches_flushed == 0


@pytest.mark.parametrize(
    "options",
    [
        {"trace": True},
        {"qos": "fair"},
        {"admission": "reject-newest", "queue_capacity": 8},
    ],
    ids=["traced", "fair", "reject-newest"],
)
def test_the_per_request_pass_costs_a_bounded_number_of_calls_per_arrival(options):
    """Each configuration is out of the windowed pass's scope, so ``simulate``
    offers request by request, as ``begin_run``, async and ``NetServer``
    always do.  There, ``RequestQueue.oldest`` runs at most once per request
    and once per batch, and ``AdaptiveBatcher.poll`` once per batch: a queue
    walk per arrival shows as a count far past either bound."""
    options = dict(options)
    traced = options.pop("trace", False)
    traces = [
        steady_trace(1500.0, 2.0, seed=3),
        bursty_trace(6000.0, 2.0, seed=4),
        heavy_tail_trace(1200.0, 2.0, seed=5, tenants=12),
    ]
    for trace in traces:
        calls = {"oldest": 0, "poll": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def count(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return patch.object(owner, name, count)

        server = Server(devices=4, params="I", **options)
        if traced:
            server.enable_tracing()
        with counted(RequestQueue, "oldest"), counted(AdaptiveBatcher, "poll"):
            report = server.simulate(trace)
        batches = report.metrics.batches
        assert batches > 0
        assert calls["oldest"] <= len(trace) + batches
        assert calls["poll"] == batches
