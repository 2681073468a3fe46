"""Tests for the unified scheduling core: cost models, layouts, interconnect.

Covers the refactor invariant (one device + data-parallel + analytical is
bit-for-bit the closed-form service arithmetic), the event-driven cost
model's scheduler-visible effects, stage partitioning, pipeline and elastic
placement, BSK/KSK key shipping on tenant migration, and the shared
did-you-mean error shape of every registry.
"""

from __future__ import annotations

import pickle

import pytest
from test_compiler import model_graph
from test_scheduler_spec import node_seconds

from repro import run
from repro.apps.deep_nn import ZAMA_DEEP_NN_MODELS
from repro.arch.config import StrixClusterConfig
from repro.arch.interconnect import InterconnectModel
from repro.errors import (
    UnknownCostModelError,
    UnknownLayoutError,
    UnknownNameError,
    UnknownPolicyError,
)
from repro.params import PARAM_SET_I, get_parameters
from repro.sched import (
    AnalyticalCostModel,
    ElasticLayout,
    EventDrivenCostModel,
    batch_graph,
    get_cost_model,
    get_layout,
    list_cost_models,
    list_layouts,
    partition_graph_stages,
)
from repro.serve import Request, Server, StrixCluster
from repro.serve.batcher import Batch
from repro.serve.sharding import get_policy
from repro.sim.graph import ComputationGraph
from repro.sim.scheduler import StrixScheduler


def make_batch(requests, batch_id=0, created_s=0.0):
    return Batch(
        batch_id=batch_id,
        requests=tuple(requests),
        created_s=created_s,
        flush_reason="full",
    )


def bootstrap_batch(items=64, tenant="t0", batch_id=0):
    return make_batch(
        [Request.make(1, tenant, "bootstrap", items)], batch_id=batch_id
    )


# -- interconnect model ------------------------------------------------------------


def test_interconnect_payload_sizes_match_memory_model():
    params = PARAM_SET_I
    model = InterconnectModel(StrixClusterConfig())
    assert model.lwe_bytes(params) == (params.n + 1) * 4
    assert model.ciphertext_bytes(params, 10) == 10 * model.lwe_bytes(params)
    # One Fourier-domain GGSW per LWE-key bit.
    assert model.bootstrapping_key_bytes(params) % params.n == 0
    assert model.key_set_bytes(params) == (
        model.bootstrapping_key_bytes(params) + model.keyswitching_key_bytes(params)
    )


def test_interconnect_transfer_scales_with_bandwidth():
    fast = InterconnectModel(StrixClusterConfig(interconnect_gbps=128.0))
    slow = InterconnectModel(StrixClusterConfig(interconnect_gbps=32.0))
    params = PARAM_SET_I
    key_set = fast.key_set_bytes(params)
    assert slow.transfer_s(key_set) == pytest.approx(4 * fast.transfer_s(key_set))
    assert fast.transfer_s(0) == 0.0


# -- batch graph lowering ----------------------------------------------------------


def test_batch_graph_coalesces_simple_traffic():
    params = PARAM_SET_I
    batch = make_batch(
        [
            Request.make(1, "a", "encrypt", 10),
            Request.make(2, "b", "bootstrap", 7),
            Request.make(3, "a", "gate", 5),
        ]
    )
    graph = batch_graph(batch, params)
    assert len(graph) == 2  # one LINEAR node, one fused PBS node
    assert graph.total_pbs() == 12
    assert graph.total_linear_operations() == 10 * params.n


def test_batch_graph_expands_inference_models():
    params = get_parameters("I")
    batch = make_batch(
        [
            Request.make(1, "a", "inference", 1, model="NN-20"),
            Request.make(2, "b", "bootstrap", 4),
        ]
    )
    graph = batch_graph(batch, params)
    assert len(graph) == 1 + len(model_graph("NN-20", params))
    assert graph.total_pbs() == ZAMA_DEEP_NN_MODELS["NN-20"].pbs_count() + 4
    # Layer dependencies survive the request prefixing.
    assert len(graph.levels()) > 2


# -- stage partitioning ------------------------------------------------------------


def test_partition_covers_all_nodes_contiguously():
    params = get_parameters("I")
    graph = model_graph("NN-50", params)
    plan = partition_graph_stages(graph, 4)
    assert plan.stages == 4
    assert sum(len(stage) for stage in plan.graphs) == len(graph)
    assert sum(stage.total_pbs() for stage in plan.graphs) == graph.total_pbs()
    # Stage 0 reads from the host; later stages have real boundary traffic.
    assert plan.boundary_ciphertexts[0] == 0
    assert all(count > 0 for count in plan.boundary_ciphertexts[1:])


def test_partition_never_exceeds_level_count():
    params = PARAM_SET_I
    batch = bootstrap_batch(128)
    graph = batch_graph(batch, params)  # a single PBS node -> one level
    plan = partition_graph_stages(graph, 8)
    assert plan.stages == 1


def test_partition_rejects_zero_stages():
    params = PARAM_SET_I
    with pytest.raises(ValueError, match="at least one stage"):
        partition_graph_stages(batch_graph(bootstrap_batch(), params), 0)


# -- cost models -------------------------------------------------------------------


def test_cost_model_registry():
    assert list_cost_models() == ["analytical", "event"]
    assert isinstance(get_cost_model("analytical"), AnalyticalCostModel)
    instance = EventDrivenCostModel()
    assert get_cost_model(instance) is instance


def test_analytical_batch_cost_matches_closed_form():
    """The analytical model is the historical arithmetic, term for term."""
    params = PARAM_SET_I
    cluster = StrixCluster(devices=1)
    device = cluster.devices[0]
    batch = make_batch(
        [Request.make(1, "a", "bootstrap", 48), Request.make(2, "b", "encrypt", 16)]
    )
    cost = AnalyticalCostModel().batch_cost(batch, params, device)
    pbs_s = device.accelerator.pbs_batch_time_ms(params, 48) / 1e3
    linear_s = (
        16 * params.n / StrixScheduler.linear_macs_per_second(device.accelerator.config)
    )
    assert cost.compute_s == pbs_s + linear_s
    assert cost.pbs == 48
    assert cost.breakdown["pbs_s"] == pbs_s
    assert cost.breakdown["linear_s"] == linear_s


def test_analytical_stage_prices_linear_ops_as_the_scheduler_books_them():
    """A LINEAR op is ``ciphertexts × max(operations, 1)`` MACs in every pricer:
    a 0-operation node still streams each ciphertext through the linear unit."""
    params = PARAM_SET_I
    device = StrixCluster(devices=1).devices[0]
    graph = ComputationGraph(params, name="linear-only")
    graph.add_linear_layer("copy", ciphertexts=7, operations_per_ciphertext=0)
    graph.add_linear_layer("dot", ciphertexts=5, operations_per_ciphertext=3)
    booked = device.scheduler.run(graph)
    assert [node_seconds(node) > 0 for node in booked.node_schedules] == [True, True]
    cost = AnalyticalCostModel().stage_cost(graph, params, device)
    assert cost.pbs == cost.epochs == 0
    assert cost.breakdown["pbs_s"] == 0.0
    assert cost.breakdown["linear_s"] == pytest.approx(booked.total_time_s, rel=1e-12)
    macs_per_s = StrixScheduler.linear_macs_per_second(device.accelerator.config)
    assert cost.breakdown["linear_s"] == (7 * 1 + 5 * 3) / macs_per_s


def test_event_cost_equals_scheduler_on_batch_graph():
    params = PARAM_SET_I
    cluster = StrixCluster(devices=1)
    device = cluster.devices[0]
    batch = make_batch([Request.make(1, "a", "inference", 1, model="NN-20")])
    cost = EventDrivenCostModel().batch_cost(batch, params, device)
    schedule = device.scheduler.run(batch_graph(batch, params))
    assert cost.compute_s == schedule.total_time_s
    assert cost.epochs == schedule.total_epochs


def test_event_cost_sees_fragmentation_analytical_cannot():
    """A deep model's dependency levels fragment epochs under the event model."""
    params = PARAM_SET_I
    cluster = StrixCluster(devices=1)
    device = cluster.devices[0]
    batch = make_batch([Request.make(1, "a", "inference", 1, model="NN-50")])
    analytical = AnalyticalCostModel().batch_cost(batch, params, device)
    event = EventDrivenCostModel().batch_cost(batch, params, device)
    # Same bootstraps, different service: layer-by-layer scheduling cannot
    # pack the whole model into back-to-back full epochs.
    assert event.pbs == analytical.pbs
    assert event.compute_s > analytical.compute_s
    assert event.epochs >= analytical.epochs


# -- layouts: registry + dispatch ----------------------------------------------------


def test_layout_registry():
    assert list_layouts() == ["data-parallel", "elastic", "pipeline"]
    instance = ElasticLayout(min_devices=2)
    assert get_layout(instance) is instance


def test_data_parallel_single_device_dispatch_is_closed_form():
    """devices=1 + analytical + data-parallel reproduces the legacy service."""
    params = PARAM_SET_I
    cluster = StrixCluster(devices=1)
    batch = make_batch(
        [Request.make(1, "a", "bootstrap", 48), Request.make(2, "b", "encrypt", 16)]
    )
    expected = cluster.batch_service_s(batch, params)
    device, start, end = cluster.dispatch(batch, 0.0, params)[:3]
    assert device == 0
    assert start == 0.0
    assert end == expected
    # No key shipping on a one-device cluster, ever.
    dispatch = cluster.dispatch(bootstrap_batch(8, tenant="a", batch_id=1), end, params)
    assert dispatch.breakdown["key_shipping_s"] == 0.0


def test_key_shipping_charged_on_migration_only():
    params = PARAM_SET_I
    cluster = StrixCluster(devices=2, policy="round-robin")
    first = cluster.dispatch(bootstrap_batch(8, tenant="t"), 0.0, params)
    assert first.breakdown["key_shipping_s"] == 0.0  # onboarding is free
    second = cluster.dispatch(bootstrap_batch(8, tenant="t", batch_id=1), 0.0, params)
    # Round-robin moved the tenant to the other device: one key set ships.
    assert second.device != first.device
    assert second.breakdown["key_shipping_s"] == pytest.approx(
        cluster.interconnect.transfer_s(cluster.interconnect.key_set_bytes(params))
    )
    # Keys accumulate: devices that already received a tenant's keys keep
    # them, so bouncing back and forth never ships the same set twice.
    for batch_id in range(2, 6):
        again = cluster.dispatch(
            bootstrap_batch(8, tenant="t", batch_id=batch_id), 0.0, params
        )
        assert again.breakdown["key_shipping_s"] == 0.0


def test_reset_serving_state_clears_key_residency():
    params = PARAM_SET_I
    cluster = StrixCluster(devices=2, policy="round-robin")
    cluster.dispatch(bootstrap_batch(8, tenant="t"), 0.0, params)
    shipped = cluster.dispatch(
        bootstrap_batch(8, tenant="t", batch_id=1), 0.0, params
    ).breakdown["key_shipping_s"]
    assert shipped > 0.0
    cluster.reset_serving_state()
    fresh = cluster.dispatch(bootstrap_batch(8, tenant="t", batch_id=2), 0.0, params)
    assert fresh.breakdown["key_shipping_s"] == 0.0


# -- pipeline layout ----------------------------------------------------------------


def test_pipeline_dispatch_reports_stages_and_transfers():
    params = get_parameters("I")
    cluster = StrixCluster(devices=4, layout="pipeline")
    batch = make_batch([Request.make(1, "a", "inference", 1, model="NN-50")])
    dispatch = cluster.dispatch(batch, 0.0, params)
    assert len(dispatch.stages) == 4
    assert dispatch.devices == (0, 1, 2, 3)
    assert dispatch.device == 3  # last stage completes the batch
    # Stages serialize: each starts at or after the previous stage's end.
    for earlier, later in zip(dispatch.stages, dispatch.stages[1:]):
        assert later.start_s >= earlier.end_s
        assert later.transfer_in_s > 0.0
    assert dispatch.breakdown["stage_transfer_s"] > 0.0
    assert dispatch.end_s >= dispatch.stages[-1].end_s


def test_pipeline_run_reports_per_stage_breakdown():
    result = run("NN-100", backend="strix-cluster", devices=4, layout="pipeline")
    stages = result.details["stages"]
    assert len(stages) == 4
    assert result.details["layout"] == "pipeline"
    assert result.details["stage_transfer_s"] > 0.0
    assert "key_shipping_s" in result.details
    assert sum(stage["pbs"] for stage in stages) == result.pbs_count
    # Latency is the sum of stage latencies plus boundary transfers.
    reconstructed = (
        sum(stage["latency_s"] + stage["transfer_in_s"] for stage in stages)
    )
    assert result.latency_s == pytest.approx(reconstructed, rel=1e-12)


def test_pipeline_shares_tenant_keys_across_stages_once():
    params = get_parameters("I")
    cluster = StrixCluster(devices=2, layout="pipeline")
    batch = make_batch([Request.make(1, "a", "inference", 1, model="NN-20")])
    first = cluster.dispatch(batch, 0.0, params)
    assert first.breakdown["key_shipping_s"] == 0.0
    again = make_batch(
        [Request.make(2, "a", "inference", 1, model="NN-20")], batch_id=1
    )
    second = cluster.dispatch(again, first.end_s, params)
    assert second.breakdown["key_shipping_s"] == 0.0  # keys already staged


# -- elastic layout -----------------------------------------------------------------


def test_elastic_scales_up_under_backlog():
    params = PARAM_SET_I
    layout = ElasticLayout(
        min_devices=1, scale_up_backlog_s=1e-4, scale_up_latency_s=2e-3
    )
    cluster = StrixCluster(devices=4, policy="least-loaded", layout=layout)
    # Hammer the cluster at time zero: everything lands on device 0 first,
    # backlog builds, devices provision one by one.
    for batch_id in range(8):
        cluster.dispatch(bootstrap_batch(512, batch_id=batch_id), 0.0, params)
    assert layout.scale_ups > 0
    used = {device.index for device in cluster.devices if device.batches > 0}
    assert len(used) > 1


def test_elastic_scale_up_latency_delays_new_device():
    params = PARAM_SET_I
    layout = ElasticLayout(
        min_devices=1, scale_up_backlog_s=1e-6, scale_up_latency_s=5e-3
    )
    cluster = StrixCluster(devices=2, policy="least-loaded", layout=layout)
    cluster.dispatch(bootstrap_batch(2048), 0.0, params)
    # Backlog now exceeds the threshold; the next dispatch provisions
    # device 1 but cannot start before the scale-up latency has elapsed.
    second = cluster.dispatch(bootstrap_batch(64, batch_id=1), 1e-6, params)
    if second.device == 1:
        assert second.start_s >= 1e-6 + 5e-3
    assert layout.scale_ups == 1


def test_elastic_does_not_cascade_while_provisioning():
    """One backlog blip provisions one device, not the whole fleet.

    A provisioning device's scale-up latency must not itself read as
    backlog: while one device is on its way, further dispatches see the
    capacity already coming and hold off.
    """
    params = PARAM_SET_I
    layout = ElasticLayout(
        min_devices=1, scale_up_backlog_s=1e-4, scale_up_latency_s=5e-3
    )
    cluster = StrixCluster(devices=8, policy="least-loaded", layout=layout)
    cluster.dispatch(bootstrap_batch(4096), 0.0, params)
    # A trickle of tiny batches inside the 5 ms provisioning window.
    for step in range(1, 8):
        cluster.dispatch(bootstrap_batch(16, batch_id=step), step * 2e-4, params)
    assert layout.scale_ups == 1


def test_elastic_respects_min_devices_and_validation():
    with pytest.raises(ValueError, match="at least one active device"):
        ElasticLayout(min_devices=0)
    with pytest.raises(ValueError, match="cannot be negative"):
        ElasticLayout(scale_up_latency_s=-1.0)


def test_elastic_run_uses_whole_fleet():
    result = run("NN-20", backend="strix-cluster", devices=4, layout="elastic")
    assert result.details["layout"] == "elastic"
    assert result.details["active_devices"] == 4


# -- server integration --------------------------------------------------------------


def test_server_event_cost_model_changes_only_service_times():
    from repro.apps.traffic import heavy_tail_trace

    trace = heavy_tail_trace(rate_rps=600.0, duration_s=0.1, seed=11)
    analytical = Server(devices=2, cost_model="analytical").simulate(
        trace, label="analytical"
    )
    event = Server(devices=2, cost_model="event").simulate(trace, label="event")
    assert analytical.metrics.requests == event.metrics.requests
    assert analytical.metrics.total_pbs == event.metrics.total_pbs
    assert event.cost_model == "event"
    assert event.metrics.latency.p50_s != analytical.metrics.latency.p50_s


def test_server_reports_layout_and_breakdown():
    from repro.apps.traffic import steady_trace

    trace = steady_trace(rate_rps=800.0, duration_s=0.1, seed=5)
    report = Server(devices=4, layout="pipeline").simulate(trace, label="pipe")
    assert report.layout == "pipeline"
    assert report.metrics.cost_breakdown["stage_transfer_s"] > 0.0
    assert "key_shipping_s" in report.metrics.cost_breakdown
    assert report.to_dict()["layout"] == "pipeline"
    assert "cost_breakdown" in report.to_dict()


def test_server_simulation_is_deterministic_across_repeats():
    from repro.apps.traffic import bursty_trace

    trace = bursty_trace(burst_rate_rps=4000.0, duration_s=0.1, seed=9)
    server = Server(devices=3, policy="round-robin", layout="elastic")
    first = server.simulate(trace, label="a")
    second = server.simulate(trace, label="b")
    assert first.metrics.latency.p99_s == second.metrics.latency.p99_s
    assert first.metrics.cost_breakdown == second.metrics.cost_breakdown


def test_pipeline_server_repeats_a_mixed_trace_with_equal_metrics():
    """Every dispatch lowers and cuts its batch afresh, so a second pass is the first."""
    trace = [
        Request.make(
            i + 1,
            f"tenant{i % 4}",
            "inference" if i % 4 == 3 else "bootstrap",
            1 if i % 4 == 3 else 8,
            arrival_s=i * 5e-4,
            model="NN-20" if i % 4 == 3 else None,
        )
        for i in range(64)
    ]
    server = Server(devices=4, params="I", layout="pipeline", batch_capacity=32)
    first = server.simulate(list(trace), label="first")
    second = server.simulate(list(trace), label="second")
    assert first.metrics.batches > 1
    assert first.metrics == second.metrics


# -- shared error shape ---------------------------------------------------------------


@pytest.mark.parametrize(
    ("lookup", "bad", "error", "suggestion"),
    [
        (get_layout, "pipelin", UnknownLayoutError, "pipeline"),
        (get_cost_model, "events", UnknownCostModelError, "event"),
        (get_policy, "round-robbin", UnknownPolicyError, "round-robin"),
    ],
)
def test_registry_errors_share_did_you_mean_shape(lookup, bad, error, suggestion):
    with pytest.raises(error) as excinfo:
        lookup(bad)
    message = str(excinfo.value)
    assert bad in message
    assert suggestion in message
    assert "did you mean" in message
    assert not message.startswith('"')  # plain sentence, not KeyError's repr
    assert isinstance(excinfo.value, UnknownNameError)
    assert isinstance(excinfo.value, KeyError)
    restored = pickle.loads(pickle.dumps(excinfo.value))
    assert type(restored) is error
    assert str(restored) == message
    assert restored.registered == excinfo.value.registered


def test_policy_error_remains_a_value_error():
    with pytest.raises(ValueError, match="unknown sharding policy"):
        get_policy("nope")
