"""Tests for the event-model schedule cache (``repro.sched.memo``).

Covers the exactness contract (memoized pricing is bit-for-bit equal to
unmemoized pricing, for randomized batch mixes and for every placement
layout), the LRU capacity/eviction behaviour, the counter accounting the
serving report surfaces, and the wiring rule (``"event"`` by name gets the
default cache; a cost-model instance is used as given).
"""

from __future__ import annotations

import random

import pytest

from repro.apps.traffic import bursty_trace, heavy_tail_trace, steady_trace
from repro.params import PARAM_SET_I, PARAM_SET_II
from repro.sched import (
    DEFAULT_COST_CACHE_CAPACITY,
    EventDrivenCostModel,
    ScheduleCache,
    batch_graph,
    batch_mix_signature,
    graph_signature,
)
from repro.serve import Request, Server, StrixCluster
from repro.serve.batcher import Batch

#: Request shapes the randomized mixes draw from: (kind, model).
MIX_KINDS = (
    ("bootstrap", None),
    ("gate", None),
    ("encrypt", None),
    ("inference", "NN-20"),
    ("inference", "NN-50"),
)


def make_batch(requests, batch_id=0):
    return Batch(
        batch_id=batch_id,
        requests=tuple(requests),
        created_s=0.0,
        flush_reason="full",
    )


def random_batch(rng: random.Random, batch_id: int) -> Batch:
    requests = []
    for index in range(rng.randint(1, 6)):
        kind, model = rng.choice(MIX_KINDS)
        items = rng.randint(1, 48) if model is None else rng.randint(1, 3)
        requests.append(
            Request.make(
                batch_id * 100 + index + 1,
                f"tenant{index % 3}",
                kind,
                items,
                model=model,
            )
        )
    return make_batch(requests, batch_id=batch_id)


def random_trace(seed: int, requests: int) -> list[Request]:
    rng = random.Random(seed)
    trace = []
    for index in range(requests):
        kind, model = rng.choice(MIX_KINDS)
        items = rng.randint(1, 24) if model is None else 1
        trace.append(
            Request.make(
                index + 1,
                f"tenant{index % 4}",
                kind,
                items,
                arrival_s=index * 4e-4,
                model=model,
            )
        )
    return trace


# -- exactness: memoized == unmemoized, bit for bit -----------------------------------


def test_randomized_batch_mixes_price_bit_for_bit():
    """Property sweep: memoized BatchCost equals unmemoized for random mixes."""
    rng = random.Random(1234)
    cluster = StrixCluster(devices=1)
    device = cluster.devices[0]
    raw = EventDrivenCostModel()
    memo = ScheduleCache()
    for batch_id in range(40):
        batch = random_batch(rng, batch_id)
        for params in (PARAM_SET_I, PARAM_SET_II):
            assert memo.batch_cost(batch, params, device) == raw.batch_cost(
                batch, params, device
            )
    assert memo.hits + memo.misses == 80


def test_equal_signatures_imply_equal_costs_regardless_of_request_order():
    """The lowering is canonical: request arrival order cannot skew pricing."""
    rng = random.Random(99)
    cluster = StrixCluster(devices=1)
    device = cluster.devices[0]
    raw = EventDrivenCostModel()
    memo = ScheduleCache()
    for batch_id in range(10):
        batch = random_batch(rng, batch_id)
        shuffled_requests = list(batch.requests)
        rng.shuffle(shuffled_requests)
        shuffled = make_batch(shuffled_requests, batch_id=batch_id + 1000)
        assert batch_mix_signature(batch) == batch_mix_signature(shuffled)
        assert raw.batch_cost(batch, PARAM_SET_I, device) == raw.batch_cost(
            shuffled, PARAM_SET_I, device
        )
        memoized = memo.batch_cost(batch, PARAM_SET_I, device)
        assert memo.batch_cost(shuffled, PARAM_SET_I, device) is memoized


@pytest.mark.parametrize("layout", ["data-parallel", "pipeline", "elastic"])
def test_memoized_serving_is_bit_for_bit_for_every_layout(layout):
    """Cached vs uncached event-model serving: identical reports per layout."""
    trace = random_trace(seed=7, requests=160)
    cached = Server(
        devices=3, params="I", layout=layout, cost_model="event", batch_capacity=24
    )
    uncached = Server(
        devices=3,
        params="I",
        layout=layout,
        cost_model=EventDrivenCostModel(),
        batch_capacity=24,
    )
    cached_report = cached.simulate(list(trace), label=layout)
    uncached_report = uncached.simulate(list(trace), label=layout)
    assert cached_report.metrics.latency == uncached_report.metrics.latency
    assert cached_report.metrics.queue_delay == uncached_report.metrics.queue_delay
    assert (
        cached_report.metrics.cost_breakdown == uncached_report.metrics.cost_breakdown
    )
    assert [
        (outcome.device, outcome.dispatched_s, outcome.completed_s)
        for outcome in cached_report.outcomes
    ] == [
        (outcome.device, outcome.dispatched_s, outcome.completed_s)
        for outcome in uncached_report.outcomes
    ]
    # The cached server actually cached (and the uncached one didn't).
    assert cached_report.metrics.cost_cache["hits"] > 0
    assert uncached_report.metrics.cost_cache == {}


def _report_without_cache_counters(report) -> dict:
    data = report.to_dict()
    del data["cost_cache"]
    return data


@pytest.mark.parametrize(
    "trace",
    [
        steady_trace(1500.0, 0.6, seed=101),
        bursty_trace(6000.0, 0.6, seed=102),
        heavy_tail_trace(1200.0, 0.6, seed=103, tenants=12),
    ],
    ids=["steady", "bursty", "heavy-tail"],
)
def test_event_serving_equals_unmemoized(trace):
    memoized = Server(devices=4, params="I", cost_model="event").simulate(trace)
    resimulated = Server(
        devices=4, params="I", cost_model=EventDrivenCostModel()
    ).simulate(trace)
    assert memoized.metrics.cost_cache["misses"] > 0
    assert not resimulated.metrics.cost_cache
    assert _report_without_cache_counters(memoized) == _report_without_cache_counters(resimulated)


def test_pipeline_stage_costs_memoize_per_stage_signature():
    """Pipeline serving prices each distinct stage subgraph exactly once."""
    trace = random_trace(seed=21, requests=120)
    server = Server(
        devices=4, params="I", layout="pipeline", cost_model="event", batch_capacity=24
    )
    report = server.simulate(list(trace), label="pipeline")
    counters = report.metrics.cost_cache
    assert counters["misses"] == counters["entries"]  # one simulation per shape
    assert counters["hits"] > counters["misses"]  # repeated shapes dominate
    # One lookup per priced stage: at least one stage per batch, at most
    # one per device (shallow graphs cut into fewer stages than devices).
    batches = report.metrics.batches
    stages_per_batch = len(server.cluster.devices)
    assert batches <= counters["hits"] + counters["misses"]
    assert counters["hits"] + counters["misses"] <= batches * stages_per_batch


def test_graph_signature_ignores_names_but_not_structure():
    first = batch_graph(
        make_batch([Request.make(1, "a", "inference", 1, model="NN-20")]), PARAM_SET_I
    )
    renamed = batch_graph(
        make_batch([Request.make(9, "b", "inference", 1, model="NN-20")], batch_id=3),
        PARAM_SET_I,
    )
    assert graph_signature(first) == graph_signature(renamed)
    scaled = batch_graph(
        make_batch([Request.make(1, "a", "inference", 2, model="NN-20")]), PARAM_SET_I
    )
    assert graph_signature(first) != graph_signature(scaled)


# -- capacity and eviction -------------------------------------------------------------


def bootstrap_batch(items, batch_id=0):
    return make_batch(
        [Request.make(batch_id * 10 + 1, "t", "bootstrap", items)], batch_id=batch_id
    )


def test_lru_eviction_at_capacity():
    cluster = StrixCluster(devices=1)
    device = cluster.devices[0]
    memo = ScheduleCache(capacity=2)
    memo.batch_cost(bootstrap_batch(8), PARAM_SET_I, device)
    memo.batch_cost(bootstrap_batch(16), PARAM_SET_I, device)
    # Touch the first shape so the 16-item one is now least recently used.
    memo.batch_cost(bootstrap_batch(8), PARAM_SET_I, device)
    memo.batch_cost(bootstrap_batch(24), PARAM_SET_I, device)
    assert memo.cache_stats == {"hits": 1, "misses": 3, "evictions": 1, "entries": 2}
    # The evicted 16-item shape re-misses (evicting the 8-item one, now the
    # least recently used); the 24-item shape is still resident and hits.
    memo.batch_cost(bootstrap_batch(16), PARAM_SET_I, device)
    assert memo.misses == 4
    memo.batch_cost(bootstrap_batch(24), PARAM_SET_I, device)
    assert memo.hits == 2
    assert memo.evictions == 2


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="capacity"):
        ScheduleCache(capacity=0)


def test_cache_distinguishes_params_structure_and_geometry():
    import dataclasses

    from repro.arch.config import StrixConfig

    memo = ScheduleCache()
    batch = bootstrap_batch(32)
    small = StrixCluster(devices=1, device_config=StrixConfig(tvlp=4))
    large = StrixCluster(devices=1)
    memo.batch_cost(batch, PARAM_SET_I, large.devices[0])
    memo.batch_cost(batch, PARAM_SET_I, small.devices[0])
    assert memo.misses == 2  # different device geometry, no aliasing
    tweaked = dataclasses.replace(PARAM_SET_I, n=PARAM_SET_I.n // 2)
    assert tweaked.name == PARAM_SET_I.name
    memo.batch_cost(batch, tweaked, large.devices[0])
    assert memo.misses == 3  # same name, different structure: no aliasing


# -- counters and wiring ---------------------------------------------------------------


def test_counters_reset_but_entries_survive():
    server = Server(devices=2, params="I", cost_model="event", batch_capacity=16)
    trace = random_trace(seed=3, requests=80)
    first = server.simulate(list(trace), label="first")
    entries = first.metrics.cost_cache["entries"]
    assert entries > 0
    assert first.metrics.cost_cache["misses"] == entries
    second = server.simulate(list(trace), label="second")
    # Counters cleared per simulation; cached schedules persisted, so the
    # second run never simulates at all.
    assert second.metrics.cost_cache["misses"] == 0
    assert second.metrics.cost_cache["hits"] > 0
    assert second.metrics.cost_cache["entries"] == entries
    assert second.metrics.latency == first.metrics.latency


def test_report_surfaces_cost_cache_counters():
    server = Server(devices=2, params="I", cost_model="event", batch_capacity=16)
    report = server.simulate(random_trace(seed=5, requests=60), label="counters")
    counters = report.metrics.cost_cache
    assert counters["hits"] + counters["misses"] == report.metrics.batches
    assert report.to_dict()["cost_cache"] == counters
    assert "schedules:" in report.metrics.render()


def test_analytical_default_has_no_cost_cache():
    server = Server(devices=2, params="I", batch_capacity=16)
    assert server.cluster.cost_cache_stats == {}
    report = server.simulate(random_trace(seed=5, requests=40), label="analytical")
    assert report.metrics.cost_cache == {}
    assert "schedules:" not in report.metrics.render()


def test_default_wrap_uses_default_capacity():
    """``"event"`` by name comes from the registry, in the default-size cache."""
    cluster = StrixCluster(devices=1, cost_model="event")
    assert isinstance(cluster.cost_model, ScheduleCache)
    assert cluster.cost_model.capacity == DEFAULT_COST_CACHE_CAPACITY


def test_prebuilt_schedule_cache_passes_through():
    """A cost-model instance is used as given: the object is the option."""
    unmemoized = EventDrivenCostModel()
    assert StrixCluster(devices=1, cost_model=unmemoized).cost_model is unmemoized
    sized = ScheduleCache(capacity=3)
    assert StrixCluster(devices=1, cost_model=sized).cost_model is sized  # never double-wrapped
