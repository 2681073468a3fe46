"""Tests for the event-model schedule cache (``repro.sched.memo``).

Covers the exactness contract (memoized pricing is bit-for-bit equal to
unmemoized pricing, for randomized batch mixes and for every placement
layout), model-free batches keyed on their PBS count, model-bearing ones on
their linear-free twin and both on their busiest core's share of the simple
PBS, on compute-bound and memory-wall chips (held to the event model and to
``spec_run`` on every field), the LRU capacity/eviction behaviour, the counter
accounting the serving report surfaces, and the wiring rule (``"event"`` by name
gets the default cache; a cost-model instance is used as given).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_scheduler_spec import spec_run

from repro.apps.traffic import bursty_trace, heavy_tail_trace, steady_trace
from repro.arch.config import StrixClusterConfig, StrixConfig
from repro.params import PARAM_SET_I, PARAM_SET_II, PARAM_SET_III, PARAM_SET_IV
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


def test_model_free_batches_share_one_entry_per_busiest_core_count():
    """Encryption items do not split the key: the linear side is priced on the way out."""
    device = StrixCluster(devices=1).devices[0]
    memo = ScheduleCache()
    for encrypt in (5, 9):
        batch = make_batch(
            [Request.make(1, "t", "bootstrap", 40), Request.make(2, "t", "encrypt", encrypt)]
        )
        cost = memo.batch_cost(batch, PARAM_SET_I, device)
        assert cost == EventDrivenCostModel().batch_cost(batch, PARAM_SET_I, device)
    assert (memo.misses, memo.hits) == (1, 1)


#: One cache across every example, so later draws hit entries earlier ones made.
MODEL_FREE_CACHE = ScheduleCache()
CHIPS = (
    StrixCluster(devices=1).devices[0],
    StrixCluster(devices=1, config=StrixClusterConfig(device=StrixConfig(tvlp=4))).devices[0],
)
encrypt_requests = st.lists(
    st.tuples(st.just("encrypt"), st.integers(1, 10**8)), min_size=1, max_size=3
)
pbs_requests = st.lists(
    st.tuples(st.sampled_from(["gate", "bootstrap"]), st.integers(1, 600)), min_size=1, max_size=3
)
model_free_batches = st.one_of(
    encrypt_requests,
    pbs_requests,
    st.tuples(encrypt_requests, pbs_requests).map(lambda both: both[0] + both[1]),
).map(lambda specs: make_batch(Request.make(i + 1, "t", *spec) for i, spec in enumerate(specs)))


@settings(deadline=None)
@given(
    batch=model_free_batches,
    params=st.sampled_from((PARAM_SET_I, PARAM_SET_II, PARAM_SET_III, PARAM_SET_IV)),
    device=st.sampled_from(CHIPS),
)
@example(  # the linear unit finishes last
    batch=make_batch([Request.make(1, "t", "encrypt", 10**7), Request.make(2, "t", "gate", 3)]),
    params=PARAM_SET_I,
    device=CHIPS[1],
)
def test_model_free_batches_price_as_the_event_model_and_the_spec(batch, params, device):
    cost = MODEL_FREE_CACHE.batch_cost(batch, params, device)
    assert cost == EventDrivenCostModel().batch_cost(batch, params, device)
    spec = spec_run(device.scheduler, batch_graph(batch, params))
    assert (cost.compute_s, cost.pbs, cost.epochs) == (
        spec.total_time_s,
        spec.total_pbs,
        spec.total_epochs,
    )


def test_model_bearing_batches_share_their_linear_free_twins_entry():
    """Encryption items that end before every core's first epoch do not split the key."""
    device = StrixCluster(devices=1).devices[0]
    memo = ScheduleCache()
    for encrypt in (5, 9):
        batch = make_batch(
            [
                Request.make(1, "t", "bootstrap", 40),
                Request.make(2, "t", "encrypt", encrypt),
                Request.make(3, "t", "inference", 1, model="NN-20"),
            ]
        )
        cost = memo.batch_cost(batch, PARAM_SET_I, device)
        assert cost == EventDrivenCostModel().batch_cost(batch, PARAM_SET_I, device)
    assert (memo.misses, memo.hits) == (1, 1)


def make_requests(specs):
    """One tenant's requests from ``(kind, items, model)`` specs."""
    return [
        Request.make(i + 1, "t", kind, items, model=model)
        for i, (kind, items, model) in enumerate(specs)
    ]


#: One cache across every example, so a batch can hit its twin's entry.
MODEL_BEARING_CACHE = ScheduleCache()
#: 16 cores at 20 GB/s: the chip's whole bandwidth demand is many times its HBM's,
#: so every core iteration, a lone LWE's too, waits on the memory wall.
KEY_FETCH_BOUND_CHIP = StrixCluster(
    devices=1,
    config=StrixClusterConfig(device=StrixConfig(tvlp=16, hbm_bandwidth_gbps=20.0)),
).devices[0]
model_bearing_batches = st.tuples(
    st.tuples(st.just("encrypt"), st.integers(1, 10**8), st.none()).map(lambda spec: [spec]),
    st.lists(  # simple PBS 0-600
        st.tuples(st.sampled_from(["gate", "bootstrap"]), st.integers(1, 600), st.none()),
        max_size=1,
    ),
    st.lists(
        st.tuples(st.just("inference"), st.integers(1, 3), st.sampled_from(["NN-20", "NN-50"])),
        min_size=1,
        max_size=2,
    ),
).map(lambda kinds: make_batch(make_requests(kinds[0] + kinds[1] + kinds[2])))


@settings(deadline=None)
@given(
    batch=model_bearing_batches,
    params=st.sampled_from((PARAM_SET_I, PARAM_SET_II, PARAM_SET_III, PARAM_SET_IV)),
    device=st.sampled_from((*CHIPS, KEY_FETCH_BOUND_CHIP)),
)
@example(  # simple PBS below tvlp: idle cores start the model's bootstrap when it is ready
    batch=make_batch(
        make_requests([("encrypt", 10**7, None), ("gate", 1, None), ("inference", 3, "NN-20")])
    ),
    params=PARAM_SET_IV,
    device=KEY_FETCH_BOUND_CHIP,
)
@example(  # the linear side outlasts the shortest first-epoch core, not the longest
    batch=make_batch(
        make_requests([("encrypt", 10**6, None), ("gate", 24, None), ("inference", 1, "NN-20")])
    ),
    params=PARAM_SET_I,
    device=KEY_FETCH_BOUND_CHIP,
)
@example(  # simple_pbs == tvlp: one LWE on every core
    batch=make_batch(
        make_requests([("encrypt", 5, None), ("gate", 8, None), ("inference", 1, "NN-20")])
    ),
    params=PARAM_SET_I,
    device=CHIPS[0],
)
def test_model_bearing_batches_price_as_the_event_model_and_the_spec(batch, params, device):
    twin = make_batch(request for request in batch.requests if request.pbs_per_item)
    for priced in (twin, batch):  # the twin first, so the batch may find its entry
        cost = MODEL_BEARING_CACHE.batch_cost(priced, params, device)
        assert cost == EventDrivenCostModel().batch_cost(priced, params, device)
        spec = spec_run(device.scheduler, batch_graph(priced, params))
        assert (cost.compute_s, cost.pbs, cost.epochs) == (
            spec.total_time_s,
            spec.total_pbs,
            spec.total_epochs,
        )


def chip(**device):
    config = StrixClusterConfig(device=StrixConfig(**device))
    return StrixCluster(devices=1, config=config).devices[0]


#: Two compute-bound chips and two memory-wall chips (16 cores at 20 GB/s, and Table
#: VII's TvLP 2 / CLP 16): on each, a core's epoch time grows with its LWE count.
GROUP_CHIPS = (CHIPS[0], chip(tvlp=16, clp=2), KEY_FETCH_BOUND_CHIP, chip(tvlp=2, clp=16))
#: What rides along with the simple PBS: nothing, encryption items, models.
RIDERS = (
    ("encrypt", 5, None),
    ("encrypt", 10**7, None),
    ("inference", 1, "NN-20"),
    ("inference", 2, "NN-50"),
)


@settings(deadline=None)
@given(
    group=st.integers(1, 80),
    slots=st.tuples(st.integers(0, 31), st.integers(0, 31)),
    riders=st.lists(st.sampled_from(RIDERS), max_size=2),
    params=st.sampled_from((PARAM_SET_I, PARAM_SET_II, PARAM_SET_III, PARAM_SET_IV)),
    device=st.sampled_from(GROUP_CHIPS),
)
@example(  # tvlp + 1 gates, then tvlp + 2, on a memory-wall chip: one entry prices both
    group=2, slots=(0, 1), riders=[], params=PARAM_SET_I, device=KEY_FETCH_BOUND_CHIP
)
def test_batches_in_one_busiest_core_group_price_as_the_event_model_and_the_spec(
    group, slots, riders, params, device
):
    """A cache primed with one batch prices a second whose simple PBS count shares
    its ``ceil(simple_pbs / tvlp)``: both equal the uncached model and ``spec_run``."""
    tvlp = device.accelerator.config.tvlp
    cache = ScheduleCache()
    for slot in slots:  # the first primes the entry the second may hit
        gates = (group - 1) * tvlp + 1 + slot % tvlp
        batch = make_batch(make_requests([("gate", gates, None), *riders]))
        cost = cache.batch_cost(batch, params, device)
        assert cost == EventDrivenCostModel().batch_cost(batch, params, device)
        spec = spec_run(device.scheduler, batch_graph(batch, params))
        assert (cost.compute_s, cost.pbs, cost.epochs) == (
            spec.total_time_s,
            spec.total_pbs,
            spec.total_epochs,
        )


@pytest.mark.parametrize("device", [CHIPS[0], KEY_FETCH_BOUND_CHIP])
def test_simple_pbs_keys_on_the_busiest_core_where_core_time_grows(device):
    """Simple PBS 9-16 put two LWEs on core 0 of the default chip (8 cores) and one on
    core 0 of the memory-wall chip (16 cores): one entry on each."""
    cache = ScheduleCache()
    for gates in range(9, 17):
        cache.batch_cost(make_batch(make_requests([("gate", gates, None)])), PARAM_SET_I, device)
    assert (cache.misses, cache.hits) == (1, 7)


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

    memo = ScheduleCache()
    batch = bootstrap_batch(32)
    small = StrixCluster(devices=1, config=StrixClusterConfig(device=StrixConfig(tvlp=4)))
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
