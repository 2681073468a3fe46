"""Chaos property suite for the fault-injection subsystem (Seam 7).

Three invariants, pinned across layouts, policies and seeded random fault
mixes:

* **determinism** — same seed, same schedule: the :class:`ServeReport` is
  bit-for-bit identical across runs, on every layout;
* **conservation** — ``completed + lost == submitted`` under every fault
  mix (no request silently vanishes, none is double-counted);
* **byte-identity** — an empty schedule, and a schedule whose every fault
  heals before the first batch flushes, leave the report byte-identical
  to a fault-free run.

One more property ties faults to key memory: under random schedules, key
budgets and policies, a permanently dead device holds no keys and every
orphaned tenant's re-ship is charged once.
"""

import asyncio
import json
import math
import re

import pytest
from conftest import ledger
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.traffic import steady_trace
from repro.arch.key_cache import list_key_policies
from repro.faults import (
    ON_DEATH_POLICIES,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    RequestLostError,
)
from repro.serve import Server

LAYOUTS = ("data-parallel", "pipeline", "elastic")

RATE = 2000.0
DURATION = 0.1


def _trace(seed: int = 7):
    return steady_trace(rate_rps=RATE, duration_s=DURATION, seed=seed)


def _submitted(seed: int = 7) -> int:
    return len(_trace(seed))


def _report_blob(report) -> str:
    """Canonical JSON of everything the report observed (for bit-identity)."""
    return json.dumps(
        {
            "metrics": report.metrics.to_dict(),
            "outcomes": [
                (
                    outcome.request.request_id,
                    outcome.batch_id,
                    outcome.device,
                    outcome.dispatched_s,
                    outcome.completed_s,
                )
                for outcome in report.outcomes
            ],
        },
        sort_keys=True,
    )


def _serve(schedule, layout="data-parallel", on_death="retry", seed=7, **kw):
    server = Server(devices=4, layout=layout, faults=schedule, on_death=on_death, **kw)
    return server, server.simulate(_trace(seed), label="chaos")


MID_DEATH = FaultSchedule.of(FaultSchedule.death(device=1, at_s=DURATION / 2))


# -- schedule construction and queries ------------------------------------------------


def test_schedule_sorts_and_sizes():
    late = FaultSchedule.death(device=0, at_s=0.9)
    early = FaultSchedule.partition(device=1, at_s=0.1, heal_s=0.2)
    schedule = FaultSchedule.of(late, early)
    assert schedule.events == (early, late)
    assert len(schedule) == 2 and bool(schedule)
    assert not FaultSchedule.empty()
    assert len(FaultSchedule.empty()) == 0


def test_schedule_refuses_an_event_listed_twice():
    death = FaultSchedule.death(device=1, at_s=0.05)
    with pytest.raises(ValueError, match=re.escape(str(death))):
        FaultSchedule.of(death, FaultSchedule.partition(device=2, at_s=0.01), death)
    # Equal fields are one event; a different heal time is another.
    assert len(FaultSchedule.of(death, FaultSchedule.death(device=1, at_s=0.05, heal_s=0.1))) == 2


def test_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.DEVICE_DEATH, device=-1, inject_s=0.0)
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.DEVICE_DEATH, device=0, inject_s=-1.0)
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.DEVICE_DEATH, device=0, inject_s=0.5, heal_s=0.5)
    with pytest.raises(ValueError):
        FaultSchedule.slowdown(device=0, factor=1.0, at_s=0.0)
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.DEVICE_DEATH, device=0, inject_s=0.0, slow_factor=2.0)
    # String kinds coerce.
    assert FaultEvent("death", 0, 0.0).kind is FaultKind.DEVICE_DEATH


def test_event_to_dict():
    death = FaultSchedule.death(device=2, at_s=0.25)
    assert death.to_dict() == {
        "kind": "death",
        "device": 2,
        "inject_s": 0.25,
        "heal_s": None,
    }
    slow = FaultSchedule.slowdown(device=1, factor=2.5, at_s=0.1, heal_s=0.2)
    assert slow.to_dict()["slow_factor"] == 2.5
    assert slow.to_dict()["heal_s"] == 0.2


def test_time_indexed_queries():
    schedule = FaultSchedule.of(
        FaultSchedule.death(device=1, at_s=0.1, heal_s=0.3),
        FaultSchedule.partition(device=2, at_s=0.2, heal_s=0.4),
        FaultSchedule.slowdown(device=0, factor=2.0, at_s=0.0, heal_s=0.5),
        FaultSchedule.slowdown(device=0, factor=3.0, at_s=0.1, heal_s=0.2),
    )
    assert not schedule.dead_at(1, 0.05)
    assert schedule.dead_at(1, 0.1) and schedule.dead_at(1, 0.29)
    assert not schedule.dead_at(1, 0.3)  # heal boundary is exclusive
    assert schedule.partitioned_at(2, 0.25)
    assert not schedule.placeable_at(2, 0.25)
    assert schedule.placeable_at(0, 0.25)  # slow devices still place
    assert schedule.available_indices(0.25, 4) == [0, 3]
    assert schedule.available_indices(0.45, 4) == [0, 1, 2, 3]
    # Overlapping slowdowns compose multiplicatively.
    injector = FaultInjector(schedule)
    assert injector.adjust_service(0, 0.15, 1.0) == pytest.approx(6.0)
    assert injector.adjust_service(0, 0.45, 1.0) == pytest.approx(2.0)
    assert injector.adjust_service(0, 0.6, 1.0) == 1.0


def test_first_available_s():
    schedule = FaultSchedule.of(
        FaultSchedule.death(device=0, at_s=0.1, heal_s=0.3),
        FaultSchedule.death(device=1, at_s=0.1, heal_s=0.2),
    )
    assert schedule.first_available_s(0.05, 2) == 0.05
    assert schedule.first_available_s(0.15, 2) == 0.2  # device 1 reboots first
    everyone = FaultSchedule.of(
        FaultSchedule.death(device=0, at_s=0.1),
        FaultSchedule.death(device=1, at_s=0.1),
    )
    assert everyone.first_available_s(0.15, 2) is None


def test_random_schedule_is_seeded():
    a = FaultSchedule.random(devices=4, duration_s=0.1, seed=11)
    b = FaultSchedule.random(devices=4, duration_s=0.1, seed=11)
    assert a == b
    assert a != FaultSchedule.random(devices=4, duration_s=0.1, seed=12)
    # Device 0 never permanently dies or partitions: a survivor always exists.
    for seed in range(50):
        schedule = FaultSchedule.random(devices=4, duration_s=0.1, seed=seed)
        assert schedule.first_available_s(1e9, 4) is not None


def test_injector_rejects_unknown_policy():
    with pytest.raises(ValueError, match="on_death"):
        FaultInjector(FaultSchedule.empty(), on_death="panic")
    assert set(ON_DEATH_POLICIES) == {"retry", "drop"}


# -- invariant: empty schedule is byte-identical ---------------------------------------


@pytest.mark.parametrize("layout", LAYOUTS)
def test_empty_schedule_is_byte_identical(layout):
    plain = Server(devices=4, layout=layout)
    base = plain.simulate(_trace(), label="chaos")
    _, faulted = _serve(FaultSchedule.empty(), layout=layout)
    assert _report_blob(base) == _report_blob(faulted)
    assert "availability" not in faulted.metrics.to_dict()


@pytest.mark.parametrize("layout", LAYOUTS)
def test_heal_before_first_flush_is_byte_identical(layout):
    """Satellite (c): a schedule healed before any batch flushes is a no-op."""
    ghost = FaultSchedule.of(
        FaultSchedule.death(device=1, at_s=1e-7, heal_s=2e-7),
        FaultSchedule.partition(device=2, at_s=1e-7, heal_s=2e-7),
        FaultSchedule.slowdown(device=3, factor=4.0, at_s=1e-7, heal_s=2e-7),
    )
    base = Server(devices=4, layout=layout).simulate(_trace(), label="chaos")
    _, faulted = _serve(ghost, layout=layout)
    assert _report_blob(base) == _report_blob(faulted)
    assert faulted.metrics.availability == {}


# -- invariant: determinism ------------------------------------------------------------


@pytest.mark.parametrize("on_death", ON_DEATH_POLICIES)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_same_seed_same_schedule_bitwise_identical(layout, on_death):
    schedule = FaultSchedule.of(
        FaultSchedule.death(device=1, at_s=DURATION / 2),
        FaultSchedule.slowdown(device=0, factor=2.0, at_s=0.01, heal_s=0.05),
        FaultSchedule.partition(device=3, at_s=0.02, heal_s=0.06),
    )
    _, first = _serve(schedule, layout=layout, on_death=on_death)
    _, second = _serve(schedule, layout=layout, on_death=on_death)
    assert _report_blob(first) == _report_blob(second)


# -- invariant: conservation -----------------------------------------------------------


def _assert_conserved(report, submitted):
    lost = report.metrics.availability.get("requests_lost", 0)
    assert len(report.outcomes) + lost == submitted
    assert report.metrics.requests == len(report.outcomes)


@pytest.mark.parametrize("on_death", ON_DEATH_POLICIES)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("fault_seed", range(6))
def test_conservation_under_random_faults(layout, on_death, fault_seed):
    schedule = FaultSchedule.random(
        devices=4, duration_s=DURATION, seed=fault_seed, events=4
    )
    _, report = _serve(schedule, layout=layout, on_death=on_death)
    _assert_conserved(report, _submitted())


@settings(max_examples=20, deadline=None, derandomize=True)
@given(fault_seed=st.integers(min_value=0, max_value=10**6))
def test_conservation_hypothesis_sweep(fault_seed):
    schedule = FaultSchedule.random(
        devices=4, duration_s=DURATION, seed=fault_seed, events=5
    )
    _, report = _serve(schedule, on_death="drop")
    _assert_conserved(report, _submitted())


@settings(max_examples=settings.default.max_examples // 4, deadline=None)
@given(
    fault_seed=st.integers(0, 10**6),
    tenants=st.integers(1, 8),
    budget_sets=st.sampled_from([None, 1, 2, 3]),
    key_policy=st.sampled_from(list_key_policies()),
    on_death=st.sampled_from(ON_DEATH_POLICIES),
)
def test_key_residency_under_random_faults(fault_seed, tenants, budget_sets, key_policy, on_death):
    """Random schedules × key budgets × policies: the ledger balances, a device
    whose permanent death was applied holds no keys, and re-ship attribution sums
    to whole key sets of evicted tenants that were really shipped."""
    probe = Server(devices=4)
    key_set = probe.cluster.interconnect.key_set_bytes(probe.params)
    server = Server(
        devices=4,
        faults=FaultSchedule.random(devices=4, duration_s=DURATION, seed=fault_seed, events=5),
        on_death=on_death,
        key_budget_bytes=None if budget_sets is None else budget_sets * key_set,
        key_policy=key_policy,
    )
    trace = steady_trace(rate_rps=RATE, duration_s=DURATION, seed=7, tenants=tenants)
    report = server.simulate(trace, label="chaos")
    assert sum(ledger(report).values()) == len(trace)
    cluster = server.cluster
    for event in cluster.faults._deaths_applied:
        if math.isinf(event.heal_s):
            assert not cluster.key_residency.devices[event.device].resident
    availability = report.metrics.availability
    events = availability.get("events", ())
    for event in events:  # an event charges only tenants it evicted, once per eviction
        assert event["reship_bytes"] <= event["evicted_tenants"] * key_set
    if budget_sets is None:  # every eviction is a death's, counted by exactly one event
        evicted = sum(event["evicted_tenants"] for event in events)
        assert evicted == report.metrics.key_cache["evictions"]
    charged = sum(event["reship_bytes"] for event in events)
    assert charged == availability.get("key_reship_bytes", 0)
    assert charged % key_set == 0
    assert charged <= report.metrics.key_cache["shipped_bytes"]


# -- death semantics -------------------------------------------------------------------


def test_retry_replays_and_drop_loses():
    _, retried = _serve(MID_DEATH, on_death="retry")
    assert len(retried.outcomes) == _submitted()
    availability = retried.metrics.availability
    assert availability["requests_lost"] == 0
    assert availability["requests_retried"] > 0
    assert availability["batches_retried"] > 0

    _, dropped = _serve(MID_DEATH, on_death="drop")
    availability = dropped.metrics.availability
    assert availability["requests_lost"] > 0
    assert availability["requests_retried"] == 0
    assert len(dropped.outcomes) == _submitted() - availability["requests_lost"]


def test_dead_device_rejects_placement():
    _, report = _serve(MID_DEATH)
    inject = MID_DEATH.events[0].inject_s
    for outcome in report.outcomes:
        if outcome.dispatched_s >= inject:
            assert outcome.device != 1


def test_availability_block_shape():
    _, report = _serve(MID_DEATH)
    availability = report.metrics.availability
    assert availability["degraded_s"] > 0
    events = availability["events"]
    assert len(events) == 1
    event = events[0]
    assert event["kind"] == "death" and event["device"] == 1
    assert event["recovery_s"] > 0
    assert event["heal_s"] is None
    # The block survives JSON round-trips (what BENCH records embed).
    assert json.loads(json.dumps(availability)) == availability


def test_all_devices_dead_loses_the_tail():
    graveyard = FaultSchedule.of(
        *(FaultSchedule.death(device=index, at_s=DURATION / 2) for index in range(4))
    )
    _, report = _serve(graveyard, on_death="retry")
    availability = report.metrics.availability
    assert availability["requests_lost"] > 0
    _assert_conserved(report, _submitted())
    # Lost work never reaches the serving counters.
    assert report.metrics.requests == len(report.outcomes)


def test_death_heal_return_serves_again():
    reboot = FaultSchedule.of(
        FaultSchedule.death(device=1, at_s=0.03, heal_s=0.05)
    )
    _, report = _serve(reboot)
    _assert_conserved(report, _submitted())
    assert any(
        outcome.device == 1
        for outcome in report.outcomes
        if outcome.dispatched_s >= 0.05
    )


def test_orphan_reship_attributed_once():
    """Keys lost with every replica re-ship once and bill the causing event."""
    # Both devices die together and reboot together: the tenant's keys are
    # orphaned everywhere, so the first placement after the heal must pay
    # exactly one key-set re-ship, attributed to one death, not both.
    outage = FaultSchedule.of(
        FaultSchedule.death(device=0, at_s=0.03, heal_s=0.05),
        FaultSchedule.death(device=1, at_s=0.03, heal_s=0.05),
    )
    server = Server(devices=2, faults=outage)
    trace = steady_trace(rate_rps=RATE, duration_s=DURATION, seed=7, tenants=1)
    report = server.simulate(trace, label="chaos")
    lost = report.metrics.availability.get("requests_lost", 0)
    assert len(report.outcomes) + lost == len(trace)
    key_bytes = server.cluster.interconnect.key_set_bytes(server.params)
    availability = report.metrics.availability
    assert availability["key_reship_bytes"] == key_bytes
    assert sum(
        event["reship_bytes"] for event in availability["events"]
    ) == key_bytes


def test_dead_device_keeps_no_keys_a_late_flush_shipped():
    """A failure queued past the death applies it ahead of the serving clock; a
    batch flushed before the death may still land there, and its keys die too."""
    server = Server(devices=4, faults=FaultSchedule.of(FaultSchedule.death(device=1, at_s=0.03)))
    trace = steady_trace(rate_rps=RATE, duration_s=DURATION, seed=7, tenants=1)
    server.simulate(trace, label="chaos")
    assert server.cluster.key_residency.devices[1].resident == {}


# -- slow-device semantics -------------------------------------------------------------


def test_slowdown_inflates_latency_and_accounts_extra():
    slow = FaultSchedule.of(
        FaultSchedule.slowdown(device=0, factor=3.0, at_s=0.0, heal_s=0.05)
    )
    base = Server(devices=4).simulate(_trace(), label="chaos")
    _, throttled = _serve(slow)
    assert len(throttled.outcomes) == _submitted()
    availability = throttled.metrics.availability
    assert availability["throttle_extra_s"] > 0
    assert availability["requests_lost"] == 0
    assert throttled.metrics.latency.p99_s > base.metrics.latency.p99_s
    event = availability["events"][0]
    assert event["throttled_batches"] > 0
    assert event["throttle_extra_s"] == pytest.approx(
        availability["throttle_extra_s"]
    )


# -- partition semantics ---------------------------------------------------------------


def test_partition_excludes_placement_but_keeps_keys():
    window = (0.03, 0.07)
    part = FaultSchedule.of(FaultSchedule.partition(device=1, at_s=window[0], heal_s=window[1]))
    server, report = _serve(part)
    _assert_conserved(report, _submitted())
    for outcome in report.outcomes:
        if window[0] <= outcome.dispatched_s < window[1]:
            assert outcome.device != 1
    # The healed device rejoins warm: no eviction happened, so nothing was
    # orphaned and no re-shipping is attributed.
    assert report.metrics.availability.get("key_reship_bytes", 0) == 0
    assert server.cluster.faults._deaths_applied == set()


# -- layout-specific degraded modes ----------------------------------------------------


def test_pipeline_recuts_stages_across_survivors():
    server, report = _serve(MID_DEATH, layout="pipeline")
    _assert_conserved(report, _submitted())
    tracer = Server(devices=4, layout="pipeline", faults=MID_DEATH)
    watcher = tracer.enable_tracing()
    tracer.simulate(_trace(), label="chaos")
    inject = MID_DEATH.events[0].inject_s
    recut = [
        span
        for span in watcher.spans()
        if span.execute_s is not None and span.execute_s >= inject
    ]
    assert recut, "the trace must extend past the death"
    for span in recut:
        assert 1 not in span.devices
        assert len(span.stages) <= 3  # re-cut over the three survivors


def test_elastic_backfills_dead_actives():
    """Deaths that push the active set below the floor provision spares."""
    from repro.serve import ElasticLayout

    deaths = FaultSchedule.of(
        FaultSchedule.death(device=0, at_s=DURATION / 2),
        FaultSchedule.death(device=1, at_s=DURATION / 2),
    )
    layout = ElasticLayout(min_devices=2)
    # Light load: backlog never triggers a scale-up, so the active set is
    # exactly the two devices the schedule kills — the backfill path, not
    # ordinary scaling, must replace them.
    trace = steady_trace(rate_rps=300, duration_s=DURATION, seed=7)
    server = Server(devices=4, layout=layout, faults=deaths)
    report = server.simulate(trace, label="chaos")
    lost = report.metrics.availability.get("requests_lost", 0)
    assert len(report.outcomes) + lost == len(trace)
    assert layout.backfills >= 1
    assert layout.runtime_stats["backfills"] == float(layout.backfills)
    assert 0 not in layout._active and 1 not in layout._active


# -- spans, registry and the async path ------------------------------------------------


def test_spans_annotate_retried_batches():
    server = Server(devices=4, faults=MID_DEATH, on_death="retry")
    tracer = server.enable_tracing()
    server.simulate(_trace(), label="chaos")
    spans = tracer.spans()
    assert any(span.retried for span in spans)
    assert not any(span.lost for span in spans)
    payload = next(span for span in spans if span.retried).to_dict()
    assert payload["retried"] is True and payload["lost"] is False


def test_spans_annotate_lost_batches():
    server = Server(devices=4, faults=MID_DEATH, on_death="drop")
    tracer = server.enable_tracing()
    server.simulate(_trace(), label="chaos")
    assert any(span.lost for span in tracer.spans())


def test_registry_exposes_fault_counters():
    server, _ = _serve(MID_DEATH)
    snapshot = server.metrics()
    assert snapshot["serve_faults_events_scheduled"] == 1.0
    assert snapshot["serve_faults_deaths_applied"] == 1.0
    assert snapshot["serve_faults_batches_retried"] >= 1.0
    # Fault-free servers emit no serve_faults samples at all.
    plain = Server(devices=4)
    plain.simulate(_trace(), label="chaos")
    assert not any(key.startswith("serve_faults") for key in plain.metrics())


def test_async_drop_raises_request_lost():
    dead_on_arrival = FaultSchedule.of(FaultSchedule.death(device=0, at_s=0.0))

    async def scenario():
        async with Server(
            devices=1, faults=dead_on_arrival, on_death="drop"
        ) as server:
            with pytest.raises(RequestLostError):
                await server.submit_async("acme", "bootstrap", items=4)

    asyncio.run(scenario())


def test_wire_stats_carry_fault_state():
    """STATS over the wire is registry collect(); the faults view rides along."""
    from repro.net.client import AsyncNetClient
    from repro.net.server import NetServer

    async def scenario():
        async with NetServer(Server(devices=4, faults=MID_DEATH)) as net:
            host, port = net.address
            client = await AsyncNetClient.connect(host, port)
            try:
                return await client.stats()
            finally:
                await client.close()

    stats = asyncio.run(scenario())
    assert stats["serve_faults_events_scheduled"] == 1.0
    assert "serve_faults_requests_lost" in stats


def test_degraded_window_clips_to_horizon():
    """An unhealed death is degraded from injection to the horizon, not inf."""
    injector = FaultInjector(MID_DEATH)
    record = injector._impact(MID_DEATH.events[0])
    record["requests_lost"] = 1
    injector.requests_lost = 1
    block = injector.availability(DURATION)
    assert block["degraded_s"] == pytest.approx(DURATION - DURATION / 2)
    assert math.isfinite(block["degraded_s"])
    # Overlapping impact windows union, they do not double-count.
    both = FaultSchedule.of(
        FaultSchedule.death(device=1, at_s=0.02, heal_s=0.06),
        FaultSchedule.partition(device=2, at_s=0.04, heal_s=0.08),
    )
    injector = FaultInjector(both)
    for event in both.events:
        injector._impact(event)["requests_lost"] = 1
    injector.requests_lost = 2
    assert injector.availability(0.1)["degraded_s"] == pytest.approx(0.06)
