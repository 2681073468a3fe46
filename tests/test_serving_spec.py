"""The serving pass as the shortest obvious code, and ``Server.simulate`` held to it.

``spec_serve`` is Section IV-C's batcher and its dispatcher as one event loop
over arrivals and flush deadlines: a FIFO queue, a flush when the queued items
reach capacity or the window's anchor has waited ``max_batch_delay_s``,
placement on each device's ``busy_until``, a ledger of whose keys each device
holds, and a price from ``spec_run`` or ``pbs_batch_cycles``.  Per request it
returns ``(id, batch_id, flush_reason, device, start_s, completed_s)`` or its
drop kind.  Both of ``simulate``'s passes (one flush window at a time; one
``offer`` per request, here under ``reject-newest``) must equal it.  Out of
scope: the pipeline and elastic layouts, ``fair`` QoS, key budgets, faults.
"""

from __future__ import annotations

from unittest.mock import patch

from conftest import with_deadline
from hypothesis import given, settings
from hypothesis import strategies as st
from test_scheduler_spec import spec_run

from repro.apps.traffic import bursty_trace, heavy_tail_trace, steady_trace
from repro.arch.accelerator import StrixAccelerator
from repro.arch.config import StrixClusterConfig
from repro.arch.interconnect import InterconnectModel
from repro.flow import DeadlineExceededError
from repro.params import PARAM_SET_I
from repro.sched.cost import batch_graph
from repro.serve import Server
from repro.serve.batcher import Batch
from repro.serve.server import ServingRun
from repro.sim.scheduler import StrixScheduler

PARAMS = PARAM_SET_I
ACCELERATOR = StrixAccelerator()
SCHEDULER = StrixScheduler(ACCELERATOR)
LINK = InterconnectModel(StrixClusterConfig())

#: Each generator's trace of tens of requests: ``(generator, rate, duration, options)``.
GENERATORS = {
    "steady": (steady_trace, 20_000.0, 2e-3, {}),
    "bursty": (bursty_trace, 20_000.0, 4e-3, {"burst_s": 1e-3, "idle_s": 1e-3}),
    "heavy-tail": (heavy_tail_trace, 15_000.0, 3e-3, {}),
}

#: ``(cost model, linear items, simple PBS, model requests)`` -> compute seconds.
_PRICES: dict[tuple, float] = {}


def spec_compute_s(cost_model: str, requests: list) -> float:
    """Seconds one device computes a batch of ``requests``."""
    linear = sum(r.items for r in requests if not r.pbs_per_item)
    simple = sum(r.total_pbs for r in requests if r.pbs_per_item and r.model is None)
    models = tuple(sorted((r.model, r.items) for r in requests if r.pbs_per_item and r.model))
    key = (cost_model, linear, simple, models)
    if key not in _PRICES:
        if cost_model == "analytical":
            cycles = ACCELERATOR.pbs_batch_cycles(PARAMS, sum(r.total_pbs for r in requests))
            pbs_s = ACCELERATOR.config.cycles_to_ms(cycles) / 1e3
            rate = StrixScheduler.linear_macs_per_second(ACCELERATOR.config)
            _PRICES[key] = pbs_s + linear * PARAMS.n / rate
        else:
            graph = batch_graph(Batch(0, tuple(requests), 0.0, "spec"), PARAMS)
            _PRICES[key] = spec_run(SCHEDULER, graph).total_time_s
    return _PRICES[key]


def spec_serve(trace, config: dict) -> dict:
    """Every request's transcript entry, or ``"expired"`` / ``"rejected"``."""
    devices, capacity = config["devices"], config["batch_capacity"]
    delay, bound = config["max_batch_delay_s"], config.get("queue_capacity")
    key_ship_s = LINK.transfer_s(LINK.key_set_bytes(PARAMS))
    busy = [0.0] * devices
    holds = [set() for _ in range(devices)]  # the ledger: whose keys each device holds
    onboarded: set[str] = set()
    transcript, queue, window, batches = {}, [], None, 0  # window: when the open one flushes

    def dispatch(requests: list, now: float, reason: str) -> None:
        nonlocal batches
        if config["policy"] == "round-robin":
            device = batches % devices
        else:
            device = busy.index(min(busy))
        shipping = 0.0  # a tenant's first placement is free, later ones ship to a device without
        for tenant in sorted({r.tenant for r in requests}):
            if tenant in onboarded and tenant not in holds[device]:
                shipping += key_ship_s
            onboarded.add(tenant)
            holds[device].add(tenant)
        transfer_s = LINK.ciphertext_transfer_s(PARAMS, sum(r.items for r in requests))
        service = spec_compute_s(config["cost_model"], requests) + transfer_s + shipping
        start = max(now, busy[device])
        busy[device] = start + service
        for r in requests:
            transcript[r.request_id] = (r.request_id, batches, reason, device, start, busy[device])
        batches += 1

    def flush(now: float, reason: str) -> None:
        nonlocal window
        taken: list = []
        while queue and sum(r.items for r in taken) < capacity:
            head = queue[0]
            if head.deadline_s is not None and now > head.deadline_s:
                transcript[queue.pop(0).request_id] = "expired"
            elif taken and sum(r.items for r in taken) + head.items > capacity:
                break
            else:
                taken.append(queue.pop(0))
        window = queue[0].arrival_s + delay if queue else None
        if taken:
            dispatch(taken, now, reason)

    for request in sorted(trace, key=lambda r: r.arrival_s):
        now = request.arrival_s
        while window is not None and window <= now:
            flush(window, "deadline")
        if bound is not None and len(queue) >= bound:
            transcript[request.request_id] = "rejected"
            continue
        queue.append(request)
        window = now + delay if window is None else window
        while sum(r.items for r in queue) >= capacity:
            flush(now, "full")
        if window is not None and now >= window:
            flush(now, "deadline")
    while window is not None:
        flush(window, "deadline")
    return transcript


def served_transcript(trace, config: dict):
    """``Server(**config).simulate(trace)`` as a transcript, and its report."""
    server = Server(params=PARAMS, **config)
    reasons: dict[int, str] = {}
    dispatch, drop = server.cluster.dispatch, ServingRun._drop

    def recording_dispatch(batch, now, params):
        reasons[batch.batch_id] = batch.flush_reason
        return dispatch(batch, now, params)

    dropped: dict[int, str] = {}

    def recording_drop(run, request, kind, what):
        dropped[request.request_id] = "expired" if kind is DeadlineExceededError else kind.__name__
        drop(run, request, kind, what)

    server.cluster.dispatch = recording_dispatch
    with patch.object(ServingRun, "_drop", recording_drop):
        report = server.simulate(trace)
    transcript = {
        o.request.request_id: (o.request.request_id, o.batch_id, reasons[o.batch_id], *o[2:])
        for o in report.outcomes
    }
    transcript.update(dropped)
    for request in trace:
        transcript.setdefault(request.request_id, "rejected")
    return transcript, report


@settings(deadline=None)
@given(
    generator=st.sampled_from(sorted(GENERATORS)),
    seed=st.integers(0, 2**16),
    tenants=st.integers(1, 8),
    devices=st.integers(1, 4),
    policy=st.sampled_from(["round-robin", "least-loaded"]),
    cost_model=st.sampled_from(["analytical", "event"]),
    batch_capacity=st.sampled_from([8, 24, 512]),  # 8 and 24: full flushes, oversized requests
    max_batch_delay_s=st.sampled_from([0.0, 2e-4, 1e-3]),
    budget=st.sampled_from([None, 1e-4, 1e-3]),  # relative deadline_s
    queue_capacity=st.sampled_from([None, 2, 6]),  # reject-newest's bound
)
def test_simulate_equals_the_spec(
    generator, seed, tenants, devices, policy, cost_model, batch_capacity,
    max_batch_delay_s, budget, queue_capacity,
):  # fmt: skip
    make, rate, duration, options = GENERATORS[generator]
    trace = make(rate, duration, seed=seed, tenants=tenants, **options)
    if budget is not None:
        trace = [with_deadline(r, r.arrival_s + budget) for r in trace]
    config = dict(devices=devices, policy=policy, cost_model=cost_model)
    config.update(batch_capacity=batch_capacity, max_batch_delay_s=max_batch_delay_s)
    if queue_capacity is not None:
        config.update(admission="reject-newest", queue_capacity=queue_capacity)
    transcript, report = served_transcript(trace, config)
    assert transcript == spec_serve(trace, config)
    fates = list(transcript.values())
    assert report.metrics.overload.get("rejected", 0) == fates.count("rejected")
    assert report.metrics.overload.get("expired", 0) == fates.count("expired")
