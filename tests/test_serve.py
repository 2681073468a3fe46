"""Tests of the serving layer (:mod:`repro.serve`): queue, batcher, metrics,
traffic generators, the Server facade (sync trace replay and asyncio) and
per-tenant session management.

Cluster/sharding/backends are covered in ``test_serve_cluster.py``.
"""

from __future__ import annotations

import asyncio
import gc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.traffic import (
    TRAFFIC_PATTERNS,
    bursty_trace,
    heavy_tail_trace,
    steady_trace,
)
from repro.serve import (
    AdaptiveBatcher,
    Request,
    RequestQueue,
    RoundRobinPolicy,
    RunActiveError,
    ServeConfig,
    Server,
    percentile,
)
from repro.arch.accelerator import StrixAccelerator
from repro.arch.interconnect import InterconnectModel
from repro.faults import FaultSchedule
from repro.params import TOY_PARAMETERS
from repro.serve.batcher import Batch
from repro.serve.metrics import LatencySummary
from repro.sim.compiler import full_adder_netlist


def make_request(
    request_id: int,
    items: int = 1,
    arrival_s: float = 0.0,
    tenant: str = "t0",
    kind: str = "bootstrap",
) -> Request:
    return Request.make(request_id, tenant, kind, items=items, arrival_s=arrival_s)


# -- requests -------------------------------------------------------------------


def test_request_pbs_costs_per_kind():
    assert make_request(1, items=8, kind="bootstrap").total_pbs == 8
    assert make_request(2, items=8, kind="gate").total_pbs == 8
    assert make_request(3, items=8, kind="encrypt").total_pbs == 0
    inference = Request.make(4, "t0", "inference", items=1, model="NN-20")
    assert inference.total_pbs == 2588  # NN-20's full PBS count


def test_request_validation():
    with pytest.raises(ValueError, match="at least one item"):
        make_request(1, items=0)
    with pytest.raises(ValueError, match="model name"):
        Request.make(1, "t0", "inference")
    with pytest.raises(KeyError, match="NN-20"):
        Request.make(1, "t0", "inference", model="NN-9000")


# -- queue ----------------------------------------------------------------------


def test_queue_fifo_order_and_accounting():
    queue = RequestQueue()
    assert not queue and queue.oldest() is None
    for index in range(3):
        queue.push(make_request(index, items=4, tenant=f"t{index % 2}"))
    assert queue.depth == 3
    assert queue.queued_items == 12
    assert queue.queued_pbs == 12
    assert queue.tenant_depths == {"t0": 2, "t1": 1}
    assert [queue.pop().request_id for _ in range(3)] == [0, 1, 2]
    assert queue.peak_depth == 3
    assert queue.total_enqueued == 3
    assert queue.tenant_depths == {}


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("push"), st.sampled_from("abc")),
            st.tuples(st.just("pop"), st.none()),
            st.tuples(st.just("pop_for_tenant"), st.sampled_from("abc")),
            st.tuples(st.just("oldest"), st.none()),
        ),
        max_size=40,
    )
)
def test_remembered_queue_head_equals_a_full_scan(steps):
    """``oldest()`` is remembered between pops; a plain arrival-ordered list
    is the slow reference for every interleaving of pushes, FIFO pops,
    per-tenant pops (the fair batcher's, and shed-oldest's victims) and reads."""
    queue, reference = RequestQueue(), []
    for request_id, (step, tenant) in enumerate(steps):
        if step == "push":
            request = make_request(request_id, tenant=tenant)
            queue.push(request)
            reference.append(request)
        elif step == "pop" and reference:
            assert queue.pop() is reference.pop(0)
        elif step == "pop_for_tenant" and any(r.tenant == tenant for r in reference):
            victim = next(r for r in reference if r.tenant == tenant)
            assert queue.oldest_for_tenant(tenant) is victim
            assert queue.pop_for_tenant(tenant) is victim
            reference.remove(victim)
        assert queue.oldest() is (reference[0] if reference else None)
        assert len(queue) == len(reference)
    assert [queue.pop() for _ in reference] == reference
    assert queue.oldest() is None
    with pytest.raises(IndexError):
        queue.pop()


# -- adaptive batcher -------------------------------------------------------------


def test_batch_totals_are_derived_once_and_a_replayed_copy_derives_its_own():
    requests = (
        make_request(1, items=4, tenant="a"),
        make_request(2, items=3, tenant="b", kind="encrypt"),
        Request.make(3, "a", "inference", items=2, model="NN-20"),
    )
    batch = Batch(batch_id=7, requests=requests, created_s=0.5, flush_reason="full")
    assert batch.total_items == 9
    assert batch.total_pbs == 4 + 2 * requests[2].pbs_per_item
    assert batch.tenants == {"a", "b"}
    assert batch.request_mix == (3, 4, (requests[2],))
    assert batch.tenants is batch.tenants  # computed once, kept
    assert batch.fill_fraction(18) == 0.5

    # The fault injector replays a batch as a copy with `attempt` bumped: the
    # kept totals are not fields, so they neither travel with the copy nor
    # show up in ==, repr or hash — the copy derives its own.
    replayed = replace(batch, attempt=1)
    assert "total_items" not in vars(replayed) and "tenants" not in vars(replayed)
    assert replayed.total_items == 9 and replayed.tenants == {"a", "b"}
    assert replayed != batch and replace(replayed, attempt=0) == batch
    assert hash(replace(replayed, attempt=0)) == hash(batch)
    assert repr(batch) == repr(Batch(7, requests, 0.5, "full"))
    assert "total_items" not in repr(batch)

    shorter = replace(batch, requests=requests[:1])
    assert (shorter.total_items, shorter.total_pbs, shorter.tenants) == (4, 4, {"a"})
    assert shorter.request_mix == (0, 4, ())


def test_batcher_empty_queue_flushes_nothing():
    """Edge case: polling (and draining) an empty queue yields no batches."""
    queue = RequestQueue()
    batcher = AdaptiveBatcher(capacity_items=8, max_delay_s=1e-3)
    assert batcher.poll(queue, now=10.0) == []
    assert batcher.drain(queue, now=10.0) == []
    assert batcher.next_deadline(queue) is None
    assert batcher.batches_flushed == 0


def test_batcher_flushes_on_capacity():
    queue = RequestQueue()
    batcher = AdaptiveBatcher(capacity_items=8, max_delay_s=1.0)
    for index in range(3):
        queue.push(make_request(index, items=3, arrival_s=0.0))
        flushed = batcher.poll(queue, now=0.0)
        if index < 2:
            assert flushed == []
    # 9 items >= 8 triggers a flush; the third request (3 more items) would
    # push the batch past capacity, so it stays queued for the next trigger.
    assert len(flushed) == 1
    (batch,) = flushed
    assert batch.flush_reason == "full"
    assert batch.total_items == 6
    assert queue.depth == 1
    assert queue.queued_items == 3


def test_batcher_never_splits_a_request_across_batches():
    queue = RequestQueue()
    batcher = AdaptiveBatcher(capacity_items=8, max_delay_s=1.0)
    queue.push(make_request(1, items=5))
    queue.push(make_request(2, items=5))
    queue.push(make_request(3, items=5))
    batches = batcher.poll(queue, now=0.0)
    # 15 items queued: each 5-item request would push a started batch past
    # the 8-item capacity, so two single-request batches flush (capacity kept)
    # and the leftover request waits for its deadline.
    assert [batch.total_items for batch in batches] == [5, 5]
    assert all(len(batch.requests) == 1 for batch in batches)
    assert queue.queued_items == 5


def test_batcher_single_request_deadline_flush():
    """Edge case: one lone request flushes at exactly arrival + max delay."""
    queue = RequestQueue()
    batcher = AdaptiveBatcher(capacity_items=1024, max_delay_s=2e-3)
    queue.push(make_request(1, items=4, arrival_s=1.0))
    assert batcher.next_deadline(queue) == pytest.approx(1.002)
    assert batcher.poll(queue, now=1.0015) == []  # before the deadline
    (batch,) = batcher.poll(queue, now=1.002)
    assert batch.flush_reason == "deadline"
    assert batch.total_items == 4
    assert queue.depth == 0


def test_batcher_oversized_request_ships_alone():
    queue = RequestQueue()
    batcher = AdaptiveBatcher(capacity_items=8, max_delay_s=1.0)
    queue.push(make_request(1, items=50))
    (batch,) = batcher.poll(queue, now=0.0)
    assert batch.flush_reason == "full"
    assert batch.total_items == 50
    assert batch.fill_fraction(8) > 1.0


def test_batcher_validation():
    with pytest.raises(ValueError, match="capacity"):
        AdaptiveBatcher(capacity_items=0, max_delay_s=1.0)
    with pytest.raises(ValueError, match="delay"):
        AdaptiveBatcher(capacity_items=1, max_delay_s=-1.0)


# -- metrics ----------------------------------------------------------------------


def test_percentile_interpolation():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    with pytest.raises(ValueError, match="empty"):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(values, 101)


def test_percentile_single_sample_is_exact():
    # A one-element sample must come back bit-for-bit, at every rank.
    value = 0.1 + 0.2  # deliberately not exactly representable
    for q in (0, 37.5, 50, 99, 100):
        assert percentile([value], q) == value


def test_latency_summary_orders_percentiles():
    summary = LatencySummary.from_samples([0.004, 0.001, 0.002, 0.1, 0.003])
    assert summary.count == 5
    assert summary.p50_s <= summary.p99_s <= summary.max_s == 0.1
    assert summary.to_dict()["p50_ms"] == pytest.approx(summary.p50_s * 1e3)
    empty = LatencySummary.from_samples([])
    assert empty.count == 0 and empty.p99_s == 0.0


def test_snapshot_window_s_drops_idle_tenants():
    """A tenant with no completions inside the time window has no p99.

    Without the time bound, a tenant that burst once and went idle keeps
    its stale percentile in every later snapshot — the count-bounded
    window never ages it out on a quiet server.
    """
    trace = [
        make_request(1, items=4, arrival_s=0.001, tenant="cold"),
        make_request(2, items=4, arrival_s=0.002, tenant="hot"),
        make_request(3, items=4, arrival_s=0.090, tenant="hot"),
    ]
    server = Server(devices=2)
    run = server.begin_run(label="window")
    for request in trace:
        run.offer(request)
    run.drain()
    stale = server.snapshot(now_s=0.1)
    assert set(stale.tenant_p99_s) == {"cold", "hot"}  # cold is inherited
    fresh = server.snapshot(now_s=0.1, window_s=0.05)
    assert "cold" not in fresh.tenant_p99_s
    assert "hot" in fresh.tenant_p99_s
    # A window wide enough to cover everything changes nothing.
    wide = server.snapshot(now_s=0.1, window_s=10.0)
    assert wide.tenant_p99_s == stale.tenant_p99_s
    run.finish()


# -- traffic generators -------------------------------------------------------------


@pytest.mark.parametrize("pattern", sorted(TRAFFIC_PATTERNS))
def test_traffic_patterns_are_deterministic_and_well_formed(pattern):
    generator = TRAFFIC_PATTERNS[pattern]
    first = generator(1000.0, 0.05, seed=3)
    second = generator(1000.0, 0.05, seed=3)
    assert len(first) > 0
    assert [request.arrival_s for request in first] == [
        request.arrival_s for request in second
    ]
    arrivals = [request.arrival_s for request in first]
    assert arrivals == sorted(arrivals)
    assert all(0.0 <= arrival < 0.05 for arrival in arrivals)
    assert all(request.items >= 1 for request in first)
    assert len({request.tenant for request in first}) > 1


def test_heavy_tail_sizes_are_more_dispersed_than_steady():
    steady = steady_trace(4000.0, 0.2, seed=1)
    heavy = heavy_tail_trace(4000.0, 0.2, seed=1)
    assert max(request.items for request in heavy) > max(
        request.items for request in steady
    )


def test_bursty_trace_has_idle_gaps():
    trace = bursty_trace(8000.0, 0.5, seed=2, burst_s=0.02, idle_s=0.08)
    arrivals = [request.arrival_s for request in trace]
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    # The largest inter-arrival gap spans an off phase, far above the
    # in-burst spacing of ~1/8000 s.
    assert max(gaps) > 20 * (1.0 / 8000.0)


def test_traffic_validation():
    with pytest.raises(ValueError):
        steady_trace(0.0, 1.0)
    with pytest.raises(ValueError):
        heavy_tail_trace(100.0, 1.0, pareto_shape=0.9)
    with pytest.raises(ValueError, match="burst and idle"):
        bursty_trace(1000.0, 1.0, burst_s=0.0, idle_s=0.0)
    with pytest.raises(ValueError, match="mean_items"):
        steady_trace(100.0, 1.0, mean_items=0.0)


def test_top_level_serve_exports_are_lazy_but_resolve():
    import repro

    assert repro.Server is __import__("repro.serve", fromlist=["Server"]).Server
    with pytest.raises(AttributeError):
        repro.does_not_exist


# -- server: trace replay ------------------------------------------------------------


@pytest.fixture(scope="module")
def pattern_reports():
    """One simulated report per arrival pattern (shared across tests)."""
    reports = {}
    for pattern, generator in TRAFFIC_PATTERNS.items():
        server = Server(devices=2, params="I", policy="least-loaded")
        reports[pattern] = server.simulate(
            generator(1200.0, 0.1, seed=11), label=pattern
        )
    return reports


def test_simulate_reports_latency_percentiles_and_utilization(pattern_reports):
    """Acceptance: p50/p99 and per-device utilization for three patterns."""
    assert set(pattern_reports) == {"steady", "bursty", "heavy-tail"}
    for report in pattern_reports.values():
        metrics = report.metrics
        assert metrics.requests > 0
        assert 0.0 < metrics.latency.p50_s <= metrics.latency.p99_s
        assert metrics.requests_per_s > 0 and metrics.pbs_per_s > 0
        assert set(metrics.device_utilization) == {"dev0", "dev1"}
        assert all(0.0 <= u <= 1.0 for u in metrics.device_utilization.values())
        payload = report.to_dict()
        assert payload["latency"]["p99_ms"] >= payload["latency"]["p50_ms"]


def test_simulate_accounts_every_request_exactly_once(pattern_reports):
    for pattern, report in pattern_reports.items():
        trace = TRAFFIC_PATTERNS[pattern](1200.0, 0.1, seed=11)
        assert report.metrics.requests == len(trace)
        assert sorted(o.request.request_id for o in report.outcomes) == sorted(
            request.request_id for request in trace
        )
        # No request completes before it was dispatched, nor is dispatched
        # before it arrived.
        for outcome in report.outcomes:
            assert outcome.completed_s >= outcome.dispatched_s
            assert outcome.dispatched_s >= outcome.request.arrival_s


HANDED_FLOAT_RUNS = {
    f"{layout}/{cost_model}": dict(layout=layout, cost_model=cost_model)
    for layout in ("data-parallel", "pipeline", "elastic")
    for cost_model in ("analytical", "event")
} | {
    "retried batch": dict(on_death="retry"),  # the death is aimed below
    "shed and expired": dict(devices=1, admission="shed-oldest", queue_capacity=8),
}


@pytest.mark.parametrize("options", HANDED_FLOAT_RUNS.values(), ids=HANDED_FLOAT_RUNS)
def test_report_summaries_equal_the_ones_derived_from_its_outcomes(options):
    """``_dispatch`` hands the collector each request's two latencies instead
    of ``summarize`` reading them back off the outcomes: same floats."""
    trace = bursty_trace(3000.0, 0.1, seed=29)
    if "admission" in options:
        trace = [replace(r, deadline_s=r.arrival_s + 0.0019) for r in trace]
    options = {"devices": 4, "params": "I", **options}
    if "on_death" in options:  # kill a device halfway through a batch it is serving
        victim = Server(**options).simulate(trace).outcomes[len(trace) // 2]
        midway = (victim.dispatched_s + victim.completed_s) / 2
        options["faults"] = FaultSchedule.of(FaultSchedule.death(victim.device, midway))
    report = Server(**options).simulate(trace)
    outcomes, metrics = report.outcomes, report.metrics
    assert outcomes
    assert metrics.latency == LatencySummary.from_samples([o.latency_s for o in outcomes])
    assert metrics.queue_delay == LatencySummary.from_samples(
        [o.queue_delay_s for o in outcomes]
    )
    assert metrics.tenant_latency == {
        tenant: LatencySummary.from_samples(
            [o.latency_s for o in outcomes if o.request.tenant == tenant]
        )
        for tenant in {o.request.tenant for o in outcomes}
    }
    if "faults" in options:
        assert metrics.availability["requests_retried"] > 0
    if "admission" in options:
        assert metrics.overload["shed"] > 0 and metrics.overload["expired"] > 0


def test_resolved_streams_the_outcome_objects_the_report_holds():
    run = Server(devices=2, params="I").begin_run()
    streamed = []
    for request in steady_trace(1500.0, 0.1, seed=29):
        run.offer(request)
        streamed += run.resolved()[0]
    report = run.finish()
    streamed += run.resolved()[0]
    assert len(streamed) == len(report.outcomes) > 0
    assert all(ours is theirs for ours, theirs in zip(streamed, report.outcomes))


def test_a_batch_sizes_keys_when_it_ships_them_and_plans_at_most_two_epochs(monkeypatch):
    """Call counts, not timings: ``place`` sizes a key set only when it
    inserts one (once per batch before), and pricing a batch looks up at most
    the full-epoch plan and the remainder's (one per epoch before)."""
    calls = {"key_set_bytes": 0, "plan_epoch": 0}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(InterconnectModel, "key_set_bytes")
    counted(StrixAccelerator, "plan_epoch")
    metrics = Server(devices=4, params="I").simulate(steady_trace(1500.0, 2.0, seed=3)).metrics
    keys = metrics.key_cache
    assert keys["hits"] > keys["misses"] > 0 and metrics.batches > 100
    assert 0 < calls["key_set_bytes"] <= keys["onboards"] + keys["misses"]
    assert 0 < calls["plan_epoch"] <= 2 * metrics.batches


def test_light_load_latency_is_bounded_by_deadline_plus_service():
    """Under light load the deadline flush bounds queueing delay."""
    server = Server(devices=2, params="I", max_batch_delay_s=1e-3)
    trace = [
        make_request(1, items=4, arrival_s=0.0),
        make_request(2, items=4, arrival_s=0.5),
    ]
    report = server.simulate(trace)
    for outcome in report.outcomes:
        assert outcome.queue_delay_s == pytest.approx(1e-3)
    assert report.metrics.flush_reasons == {"deadline": 2}


def test_submit_then_simulate_uses_the_serving_clock():
    server = Server(devices=1, params="I", max_batch_delay_s=1e-3)
    server.submit("alice", "bootstrap", items=8, at=0.00)
    server.submit("bob", "gate", items=4, at=0.01)
    report = server.simulate()
    assert report.metrics.requests == 2
    assert server.tenants["alice"].pbs == 8
    assert server.tenants["bob"].pbs == 4


def test_affinity_policy_pins_tenants_to_devices():
    server = Server(
        devices=4, params="I", policy="affinity", max_batch_delay_s=1e-4
    )
    trace = [
        make_request(index, items=2, arrival_s=index * 0.01, tenant="sticky")
        for index in range(8)
    ]
    report = server.simulate(trace)
    assert len({outcome.device for outcome in report.outcomes}) == 1


def test_repeated_simulations_are_deterministic():
    """Cluster, batcher and policy state all reset between simulations."""
    server = Server(devices=3, params="I", policy="round-robin")
    trace = steady_trace(1200.0, 0.05, seed=13)
    first = server.simulate(trace)
    second = server.simulate(steady_trace(1200.0, 0.05, seed=13))
    assert [o.device for o in first.outcomes] == [o.device for o in second.outcomes]
    assert first.metrics.latency.p99_s == second.metrics.latency.p99_s
    assert first.metrics.device_utilization == second.metrics.device_utilization


def test_server_run_accepts_params_override():
    server = Server(devices=2, params="I")
    result = server.run(full_adder_netlist(TOY_PARAMETERS, bits=2), params="II")
    assert result.parameter_set == "II"
    default = server.run(full_adder_netlist(TOY_PARAMETERS, bits=2))
    assert default.parameter_set == "I"


def test_server_config_overrides():
    server = Server(ServeConfig(devices=3), policy="round-robin", batch_capacity=64)
    assert len(server.cluster) == 3
    assert server.batch_capacity == 64
    assert server.cluster.policy.name == "round-robin"


def test_server_forwards_cluster_cost_knobs():
    from repro.arch.config import StrixClusterConfig

    config = StrixClusterConfig(
        devices=2, interconnect_gbps=1.0, dispatch_overhead_s=5e-3
    )
    cheap = Server(devices=2, params="I")
    taxed = Server(params="I", cluster=config)
    assert len(taxed.cluster) == 2  # cluster config's device count wins
    assert taxed.cluster.config.dispatch_overhead_s == 5e-3
    trace = [make_request(1, items=64, arrival_s=0.0)]
    slow = taxed.simulate(trace)
    fast = cheap.simulate([make_request(1, items=64, arrival_s=0.0)])
    assert slow.metrics.latency.p50_s > fast.metrics.latency.p50_s


def test_sync_paths_refused_inside_async_context():
    async def scenario():
        async with Server(devices=1, params="I") as server:
            with pytest.raises(RuntimeError, match="async context"):
                server.simulate([make_request(1, items=2)])
            with pytest.raises(RuntimeError, match="async context"):
                server.submit("t0", "bootstrap", items=2)
            with pytest.raises(RuntimeError, match="already has an active"):
                async with server:
                    pass

    asyncio.run(scenario())


def test_second_run_while_one_is_active_names_the_active_run():
    """One run at a time, whichever entry point asks: a single typed error."""
    server = Server(devices=1, params="I")
    first = server.begin_run(label="first")
    first.offer(make_request(1, items=2, arrival_s=0.001))

    async def enter():
        async with server:
            pass

    for start in (
        lambda: server.begin_run(label="second"),
        lambda: server.simulate([make_request(2, items=2)]),
        lambda: server.submit("t0", "bootstrap", items=2),
        lambda: asyncio.run(enter()),
    ):
        with pytest.raises(RunActiveError, match="simulated run \\('first'\\)"):
            start()
    # The refused starts disturbed nothing: the first run still holds its
    # request, and finishing it frees the server for the next run.
    assert server.active_run is first and server.queue is first.queue
    assert [o.request.request_id for o in first.finish().outcomes] == [1]
    assert server.active_run is None
    assert server.simulate([make_request(3, items=2)]).metrics.requests == 1
    with pytest.raises(RuntimeError, match="closed"):
        first.offer(make_request(4, items=2, arrival_s=0.002))


def test_simulated_run_refuses_out_of_order_offers():
    """Dispatching into the past would report negative queueing delays."""
    server = Server(devices=1, params="I")
    run = server.begin_run()
    run.offer(make_request(1, items=2, arrival_s=0.010))
    with pytest.raises(ValueError, match="non-decreasing"):
        run.offer(make_request(2, items=2, arrival_s=0.001))
    run.offer(make_request(3, items=2, arrival_s=0.010))  # ties are in order
    report = run.finish()
    # The refused offer was never counted, admitted or served.
    assert [o.request.request_id for o in report.outcomes] == [1, 3]
    assert report.metrics.queue_delay.p50_s >= 0.0
    assert server.queue.total_enqueued == 2


def test_simulate_crashing_mid_trace_leaves_the_server_reusable():
    class ExplodesOnce(RoundRobinPolicy):
        armed = True

        def select(self, busy_until, batch, resident=None):
            if self.armed:
                self.armed = False
                raise RuntimeError("boom")
            return super().select(busy_until, batch, resident)

    trace = [make_request(index, items=2, arrival_s=index * 1e-3) for index in range(6)]
    server = Server(devices=1, params="I", policy=ExplodesOnce(), batch_capacity=4)
    with pytest.raises(RuntimeError, match="boom"):
        server.simulate(trace)
    assert server.active_run is None
    assert server.simulate(trace).metrics.requests == len(trace)


def test_streamed_run_refuses_offers_after_a_flush_crash():
    """A caller streaming through ``begin_run`` must not re-enter the batcher
    with the half-flushed queue a crashed flush left behind."""

    class Explodes(RoundRobinPolicy):
        def select(self, busy_until, batch, resident=None):
            raise RuntimeError("boom")

    server = Server(devices=1, params="I", policy=Explodes(), batch_capacity=4)
    run = server.begin_run()
    run.offer(make_request(1, items=2))
    with pytest.raises(RuntimeError, match="boom") as crash:
        run.offer(make_request(2, items=2))  # capacity reached: the flush crashes
    assert run.error is crash.value
    enqueued = run.queue.total_enqueued
    with pytest.raises(RuntimeError, match="flush loop has crashed") as refused:
        run.offer(make_request(3, items=1, arrival_s=0.001))
    assert refused.value.__cause__ is crash.value
    assert run.queue.total_enqueued == enqueued  # refused before it was queued
    run.close()
    assert server.active_run is None


def test_async_report_stats_do_not_inherit_sync_history():
    server = Server(devices=1, params="I", max_batch_delay_s=1e-3)
    sync_report = server.simulate(
        [make_request(index, items=2, arrival_s=index * 0.01) for index in range(5)]
    )
    assert sync_report.metrics.batches > 0

    async def scenario():
        async with server:
            await server.submit_async("t0", "bootstrap", items=4)

    asyncio.run(scenario())
    report = server.last_async_report
    assert report is not None
    assert report.metrics.batches == 1
    assert sum(report.metrics.flush_reasons.values()) == 1
    assert report.metrics.peak_queue_depth == 1


# -- server: tenant sessions ----------------------------------------------------------


def test_tenant_sessions_are_cached_and_distinct():
    server = Server(devices=1, params="TOY", seed=5)
    alice = server.session_for("alice")
    bob = server.session_for("bob")
    assert alice is server.session_for("alice")
    assert alice is not bob
    assert alice.params == bob.params
    # Distinct deterministic seeds -> distinct key material.
    assert (
        alice.context.lwe_key.bits.tolist() != bob.context.lwe_key.bits.tolist()
    )


def test_tenant_session_round_trips_real_ciphertexts():
    server = Server(devices=1, params="TOY", seed=5)
    session = server.session_for("alice")
    messages = [0, 1, 2, 3]
    assert session.decrypt_batch(session.encrypt_batch(messages)) == messages


# -- server: async path ----------------------------------------------------------------


def test_async_submission_coalesces_and_resolves_every_future():
    async def scenario():
        async with Server(
            devices=2, params="I", max_batch_delay_s=0.004
        ) as server:
            jobs = [
                server.submit_async(f"tenant{index % 3}", "bootstrap", items=16)
                for index in range(12)
            ]
            return await asyncio.gather(*jobs)

    outcomes = asyncio.run(scenario())
    assert len(outcomes) == 12
    assert all(outcome.completed_s > 0 for outcome in outcomes)
    assert all(outcome.latency_s >= 0 for outcome in outcomes)
    # Twelve small requests coalesce into far fewer batches.
    assert len({outcome.batch_id for outcome in outcomes}) < 12


def test_async_capacity_flush_fires_without_waiting_for_deadline():
    async def scenario():
        async with Server(
            devices=1, params="I", max_batch_delay_s=10.0, batch_capacity=8
        ) as server:
            jobs = [
                server.submit_async("t0", "bootstrap", items=4) for _ in range(2)
            ]
            return await asyncio.wait_for(asyncio.gather(*jobs), timeout=2.0)

    outcomes = asyncio.run(scenario())
    assert len({outcome.batch_id for outcome in outcomes}) == 1


def test_async_context_exposes_a_report_after_close():
    async def scenario():
        server = Server(devices=2, params="I", max_batch_delay_s=0.003)
        async with server:
            await asyncio.gather(
                *(server.submit_async("t0", "bootstrap", items=8) for _ in range(4))
            )
        return server

    server = asyncio.run(scenario())
    report = server.last_async_report
    assert report is not None and report.label == "async"
    assert report.metrics.requests == 4
    assert report.metrics.latency.p99_s >= report.metrics.latency.p50_s > 0


def test_async_close_drains_pending_requests():
    async def scenario():
        server = Server(devices=1, params="I", max_batch_delay_s=10.0)
        async with server:
            job = asyncio.ensure_future(
                server.submit_async("t0", "bootstrap", items=4)
            )
            await asyncio.sleep(0.01)  # deadline far away: still queued
            assert not job.done()
        return await job  # __aexit__ drained the queue

    outcome = asyncio.run(scenario())
    assert outcome.request.items == 4


def test_submit_async_outside_context_raises():
    async def scenario():
        await Server(devices=1, params="I").submit_async("t0", "bootstrap")

    with pytest.raises(RuntimeError, match="async with"):
        asyncio.run(scenario())


def test_async_flush_crash_propagates_to_awaiters_instead_of_hanging():
    """A policy crashing mid-flush must fail pending futures, not strand them."""

    class ExplodingPolicy(RoundRobinPolicy):
        def select(self, busy_until, batch, resident=None):
            raise RuntimeError("boom")

    async def scenario():
        server = Server(
            devices=1, params="I", policy=ExplodingPolicy(), batch_capacity=4
        )
        async with server:
            # 4 items reach capacity and trigger an immediate (crashing) flush.
            await asyncio.wait_for(
                server.submit_async("t0", "bootstrap", items=4), timeout=2.0
            )

    with pytest.raises(RuntimeError, match="boom"):
        asyncio.run(scenario())


def test_server_remains_usable_after_a_crashed_async_context():
    """aclose() must clean up even when the flusher died, not wedge the server."""

    class ExplodingPolicy(RoundRobinPolicy):
        def select(self, busy_until, batch, resident=None):
            raise RuntimeError("boom")

    async def scenario():
        server = Server(
            devices=1, params="I", policy=ExplodingPolicy(), batch_capacity=4
        )
        async with server:
            with pytest.raises(RuntimeError, match="boom"):
                await asyncio.wait_for(
                    server.submit_async("t0", "bootstrap", items=4), timeout=2.0
                )
        return server

    server = asyncio.run(scenario())
    assert server.active_run is None  # context fully closed
    # Sync paths work again; a dispatch through the broken policy still
    # raises its own error, but the server is not wedged in async mode.
    with pytest.raises(RuntimeError, match="boom"):
        server.simulate([make_request(1, items=2)])


def test_async_submission_after_flusher_crash_raises_instead_of_hanging():
    class ExplodingPolicy(RoundRobinPolicy):
        def select(self, busy_until, batch, resident=None):
            raise RuntimeError("boom")

    async def scenario():
        server = Server(
            devices=1, params="I", policy=ExplodingPolicy(), batch_capacity=4
        )
        async with server:
            with pytest.raises(RuntimeError, match="boom"):
                await asyncio.wait_for(
                    server.submit_async("t0", "bootstrap", items=4), timeout=2.0
                )
            # A later (sub-capacity) submission must fail fast, not strand.
            with pytest.raises(RuntimeError, match="flush loop has crashed"):
                await server.submit_async("t0", "bootstrap", items=1)

    asyncio.run(scenario())


def test_async_refused_submission_fails_only_its_caller():
    """A submit the bounded queue (or a raising admission policy) refuses is
    that caller's error: it must not be fanned out to the requests already
    waiting, nor mark the run crashed for everyone after it."""
    from repro.serve import QueueOverflowError

    async def scenario():
        server = Server(
            devices=1, params="I", queue_capacity=2, max_batch_delay_s=30.0
        )
        async with server:
            waiting = [
                asyncio.ensure_future(server.submit_async("t0", "bootstrap"))
                for _ in range(2)
            ]
            await asyncio.sleep(0)  # both are queued, far from their deadline
            with pytest.raises(QueueOverflowError):
                await server.submit_async("t1", "bootstrap")
            run = server.active_run
            assert run.error is None and len(server._waiting) == 2
            assert not any(future.done() for future in waiting)
        return await asyncio.gather(*waiting), server.last_async_report

    outcomes, report = asyncio.run(scenario())
    assert [outcome.request.tenant for outcome in outcomes] == ["t0", "t0"]
    assert report.metrics.requests == 2


def test_servers_are_freed_by_reference_counting_alone():
    """No serving object is a reference cycle: with the collector off, each
    is gone the moment its last name is."""
    from repro.net import AsyncNetClient, NetServer

    async def in_context():
        server = Server(devices=1, params="I")
        async with server:
            await server.submit_async("t0", "bootstrap")
        return weakref.ref(server)

    async def over_the_wire():
        net = NetServer(mode="live", devices=1, params="I")
        await net.start()
        client = await AsyncNetClient.connect(*net.address)
        await client.submit("t0", "bootstrap")
        await client.close()
        await net.aclose()
        return weakref.ref(net)

    gc.disable()
    try:
        server = Server(devices=1, params="I")
        server.simulate([make_request(1, items=2)])
        simulated = weakref.ref(server)
        del server
        assert simulated() is None
        assert asyncio.run(in_context())() is None
        assert asyncio.run(over_the_wire())() is None
    finally:
        gc.enable()


# -- per-tenant QoS (weighted fair queuing) -----------------------------------------


def test_queue_tenant_heads_and_pop_for_tenant():
    queue = RequestQueue()
    queue.push(make_request(1, items=4, tenant="a", arrival_s=0.0))
    queue.push(make_request(2, items=4, tenant="b", arrival_s=1.0))
    queue.push(make_request(3, items=4, tenant="a", arrival_s=2.0))
    heads = queue.tenant_heads()
    assert heads["a"].request_id == 1 and heads["b"].request_id == 2
    assert queue.oldest_for_tenant("a").request_id == 1
    assert queue.pop_for_tenant("b").request_id == 2
    assert queue.queued_items == 8
    with pytest.raises(KeyError, match="no queued requests"):
        queue.pop_for_tenant("b")
    # FIFO pop still follows global arrival order afterwards.
    assert [queue.pop().request_id, queue.pop().request_id] == [1, 3]


def test_fair_batcher_interleaves_a_flooded_queue():
    queue = RequestQueue()
    fair = AdaptiveBatcher(capacity_items=8, max_delay_s=1.0, qos="fair")
    # A flooder queues 4 requests before the light tenant's first arrives.
    for index in range(4):
        queue.push(make_request(index, items=4, tenant="flood", arrival_s=0.0))
    queue.push(make_request(9, items=1, tenant="light", arrival_s=0.1))
    batches = fair.poll(queue, now=0.1)
    first = batches[0]
    # FIFO would fill the first batch with flood requests only; fair queuing
    # gives the light tenant a slot in it (1 item beats 4 items / weight 1).
    assert "light" in first.tenants


def test_fair_batcher_respects_tenant_weights():
    queue = RequestQueue()
    weighted = AdaptiveBatcher(
        capacity_items=4,
        max_delay_s=1.0,
        qos="fair",
        tenant_weights={"gold": 4.0, "bronze": 1.0},
    )
    for index in range(4):
        queue.push(make_request(index, items=2, tenant="bronze", arrival_s=0.0))
        queue.push(make_request(10 + index, items=2, tenant="gold", arrival_s=0.0))
    shipped: list[str] = []
    while queue:
        for batch in weighted.poll(queue, now=0.0) or weighted.drain(queue, now=0.0):
            shipped.extend(request.tenant for request in batch.requests)
    # The heavier tenant's virtual time advances 4x slower, so its whole
    # backlog ships before the bronze tenant's last request.
    assert shipped.index("gold") < 2
    assert shipped[:2].count("gold") >= 1


def test_fair_queuing_protects_light_tenant_p99():
    """The QoS satellite: a flooding tenant stops inflating everyone's p99."""

    def trace() -> list[Request]:
        requests = []
        request_id = 0
        for burst in range(10):
            at = burst * 1e-3
            for _ in range(5):
                request_id += 1
                requests.append(
                    Request.make(request_id, "flood", "bootstrap", 500, arrival_s=at)
                )
            request_id += 1
            requests.append(
                Request.make(request_id, "light", "bootstrap", 1, arrival_s=at)
            )
        return requests

    fifo = Server(devices=1, qos="fifo").simulate(trace(), label="fifo")
    fair = Server(devices=1, qos="fair").simulate(trace(), label="fair")
    assert fifo.metrics.requests == fair.metrics.requests
    assert fifo.metrics.total_pbs == fair.metrics.total_pbs
    light_fifo = fifo.metrics.tenant_latency["light"]
    light_fair = fair.metrics.tenant_latency["light"]
    assert light_fair.p99_s < light_fifo.p99_s
    assert light_fair.mean_s < light_fifo.mean_s
    # The per-tenant split is part of the serialized report.
    assert "light" in fair.to_dict()["tenant_latency"]


def test_qos_validation():
    with pytest.raises(ValueError, match="unknown QoS"):
        AdaptiveBatcher(capacity_items=8, max_delay_s=1.0, qos="wfq")
    with pytest.raises(ValueError, match="weights must be positive"):
        AdaptiveBatcher(
            capacity_items=8, max_delay_s=1.0, qos="fair", tenant_weights={"t": 0.0}
        )
    with pytest.raises(ValueError, match="unknown QoS"):
        Server(devices=1, qos="strict")


def test_fifo_qos_is_unchanged_by_queue_restructure():
    """Default FIFO service order is exactly global arrival order."""
    queue = RequestQueue()
    batcher = AdaptiveBatcher(capacity_items=6, max_delay_s=1.0)
    for index, tenant in enumerate(["a", "b", "a", "c", "b", "a"]):
        queue.push(make_request(index, items=2, tenant=tenant, arrival_s=index * 0.1))
    shipped: list[int] = []
    while queue:
        for batch in batcher.drain(queue, now=1.0):
            shipped.extend(request.request_id for request in batch.requests)
    assert shipped == [0, 1, 2, 3, 4, 5]
