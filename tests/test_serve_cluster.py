"""Tests of the sharded Strix cluster and the ``"strix-cluster"`` backend.

Covers the sharding policies, graph/netlist partitioning, aggregation of
per-device results, the degenerate one-device case (bit-for-bit against the
single-device simulator), the acceptance speedup on the Fig. 7 Deep-NN
workload, batches beyond cluster capacity, and the improved unknown-backend
error of the runtime registry.
"""

from __future__ import annotations

import pytest

from repro import list_backends, run
from repro.apps.workloads import lut_pipeline_graph, pbs_batch_graph
from repro.arch.config import StrixClusterConfig
from repro.params import PARAM_SET_I, TOY_PARAMETERS
from repro.runtime import UnknownBackendError, get_backend
from repro.serve import (
    AffinityPolicy,
    Batch,
    LeastLoadedPolicy,
    Request,
    RoundRobinPolicy,
    StrixCluster,
    StrixClusterBackend,
    get_policy,
    list_policies,
)
from repro.sim.compiler import full_adder_netlist

#: The Fig. 7 application workload used by the acceptance checks.
FIG7_WORKLOAD = "NN-20"


def one_request_batch(items: int, tenant: str = "t0") -> Batch:
    request = Request.make(1, tenant, "bootstrap", items=items)
    return Batch(batch_id=0, requests=(request,), created_s=0.0, flush_reason="full")


# -- sharding policies -------------------------------------------------------------


def test_policy_registry():
    assert list_policies() == ["affinity", "key-affinity", "least-loaded", "round-robin"]
    assert isinstance(get_policy("round-robin"), RoundRobinPolicy)
    instance = LeastLoadedPolicy()
    assert get_policy(instance) is instance
    with pytest.raises(ValueError, match="unknown sharding policy"):
        get_policy("random")


@pytest.mark.parametrize("policy_name", ["round-robin", "least-loaded", "affinity"])
def test_partition_is_balanced_and_exact(policy_name):
    policy = get_policy(policy_name)
    for items, devices in ((100, 4), (7, 4), (3, 8), (0, 2), (1, 1)):
        shares = policy.partition(items, devices)
        assert sum(shares) == items
        assert len(shares) == devices
        assert max(shares) - min(shares) <= 1


def test_partition_offset_rotates_the_remainder():
    policy = RoundRobinPolicy()
    assert policy.partition(5, 4, offset=0) == [2, 1, 1, 1]
    assert policy.partition(5, 4, offset=2) == [1, 1, 2, 1]


def test_round_robin_select_cycles():
    policy = RoundRobinPolicy()
    batch = one_request_batch(4)
    picks = [policy.select([0.0, 0.0, 0.0], batch) for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_least_loaded_select_picks_earliest_free_device():
    policy = LeastLoadedPolicy()
    assert policy.select([5.0, 1.0, 3.0], one_request_batch(4)) == 1


def test_affinity_select_is_sticky_per_tenant():
    policy = AffinityPolicy()
    loads = [0.0] * 4
    first = policy.select(loads, one_request_batch(4, tenant="alice"))
    assert all(
        policy.select(loads, one_request_batch(s, tenant="alice")) == first
        for s in (1, 2, 3)
    )
    assert any(
        policy.select(loads, one_request_batch(4, tenant=f"tenant{i}")) != first
        for i in range(8)
    )


# -- cluster: sharded workload execution ----------------------------------------------


def test_single_device_cluster_matches_strix_sim_bit_for_bit():
    """Edge case: devices=1 degenerates to the PR 1 single-device results."""
    graph = pbs_batch_graph(PARAM_SET_I, 3000)
    single = run(graph, backend="strix-sim")
    cluster = run(graph, backend="strix-cluster", devices=1)
    assert cluster.latency_s == single.latency_s
    assert cluster.pbs_count == single.pbs_count
    assert cluster.energy_j == single.energy_j
    assert cluster.details["epochs"] == single.details["epochs"]
    # Same per-core utilization, re-keyed under the device prefix.
    assert cluster.utilization == {
        f"dev0/{core}": value for core, value in single.utilization.items()
    }
    assert cluster.backend == "strix-cluster"


def test_four_device_cluster_beats_single_device_on_fig7_workload():
    """Acceptance: strix-cluster throughput exceeds strix-sim on Fig. 7."""
    single = run(FIG7_WORKLOAD, backend="strix-sim", params="I")
    cluster = run(FIG7_WORKLOAD, backend="strix-cluster", devices=4)
    assert cluster.pbs_count == single.pbs_count
    assert cluster.throughput_pbs_per_s > single.throughput_pbs_per_s
    assert cluster.latency_s < single.latency_s
    # Sharding a wide workload over 4 devices lands well above 2x.
    assert single.latency_s / cluster.latency_s > 2.0
    straggler = cluster.details["straggler"]
    assert straggler["slowest_s"] >= straggler["mean_s"] > 0
    assert straggler["imbalance"] >= 1.0
    assert cluster.details["devices"] == 4


def test_cluster_shards_preserve_total_pbs_and_structure():
    cluster = StrixCluster(devices=3)
    graph = lut_pipeline_graph(PARAM_SET_I, stages=4, ciphertexts_per_stage=100)
    result = cluster.run(graph)
    assert result.pbs_count == graph.total_pbs()
    per_device = result.details["per_device"]
    assert sum(entry.pbs for entry in per_device) == graph.total_pbs()
    # Every active device scheduled the same 4-stage dependency chain.
    assert all(entry.latency_s > 0 for entry in per_device)


def test_cluster_netlist_instances_shard_at_instance_granularity():
    netlist = full_adder_netlist(TOY_PARAMETERS, bits=2)
    single = run(netlist, backend="strix-sim", params="I", instances=64)
    cluster = run(netlist, backend="strix-cluster", devices=4, params="I", instances=64)
    assert cluster.pbs_count == single.pbs_count == netlist.pbs_count() * 64
    assert cluster.latency_s <= single.latency_s


def test_cluster_with_fewer_ciphertexts_than_devices():
    """A 2-ciphertext workload on 4 devices leaves two devices idle."""
    cluster = StrixCluster(devices=4)
    result = cluster.run(pbs_batch_graph(PARAM_SET_I, 2))
    assert result.pbs_count == 2
    assert result.details["active_devices"] == 2
    assert result.latency_s > 0


def test_cluster_dispatch_overhead_is_charged():
    config = StrixClusterConfig(devices=2, dispatch_overhead_s=1e-3)
    free = StrixCluster(config=StrixClusterConfig(devices=2))
    taxed = StrixCluster(config=config)
    graph = pbs_batch_graph(PARAM_SET_I, 1000)
    assert taxed.run(graph).latency_s == pytest.approx(
        free.run(graph).latency_s + 1e-3
    )


def test_cluster_config_validation():
    with pytest.raises(ValueError, match="at least one device"):
        StrixClusterConfig(devices=0)
    with pytest.raises(ValueError, match="interconnect"):
        StrixClusterConfig(interconnect_gbps=0)
    assert StrixClusterConfig(devices=2).with_devices(6).devices == 6


# -- cluster: serving path ------------------------------------------------------------


def test_batch_larger_than_cluster_capacity_runs_in_multiple_epochs():
    """Edge case: one batch beyond the whole cluster's epoch capacity."""
    cluster = StrixCluster(devices=2)
    capacity = cluster.epoch_capacity(PARAM_SET_I)
    small = cluster.batch_service_s(one_request_batch(16), PARAM_SET_I)
    huge = cluster.batch_service_s(one_request_batch(3 * capacity), PARAM_SET_I)
    # A batch 3x beyond cluster capacity streams through one device in many
    # epochs — it completes, and takes several times longer than a small one.
    assert huge > 3 * small
    device, start, end = cluster.dispatch(
        one_request_batch(3 * capacity), 0.0, PARAM_SET_I
    )[:3]
    assert end - start == pytest.approx(huge)
    assert cluster.devices[device].pbs == 3 * capacity


def test_dispatch_serializes_on_a_busy_device():
    cluster = StrixCluster(devices=1)
    _, start_a, end_a = cluster.dispatch(one_request_batch(64), 0.0, PARAM_SET_I)[:3]
    _, start_b, _ = cluster.dispatch(one_request_batch(64), 0.0, PARAM_SET_I)[:3]
    assert start_a == 0.0
    assert start_b == pytest.approx(end_a)
    cluster.reset_serving_state()
    assert cluster.devices[0].busy_until == 0.0


def test_device_utilization_over_horizon():
    cluster = StrixCluster(devices=2)
    cluster.dispatch(one_request_batch(256), 0.0, PARAM_SET_I)
    utilization = cluster.device_utilization(horizon_s=1.0)
    assert set(utilization) == {"dev0", "dev1"}
    assert utilization["dev0"] > 0.0 or utilization["dev1"] > 0.0
    assert cluster.device_utilization(0.0) == {"dev0": 0.0, "dev1": 0.0}


# -- backend registration ---------------------------------------------------------------


def test_strix_cluster_backend_is_registered():
    assert "strix-cluster" in list_backends()
    backend = get_backend("strix-cluster", devices=2)
    assert isinstance(backend, StrixClusterBackend)
    assert len(backend.cluster) == 2


def test_run_options_reshape_the_cluster_per_call():
    backend = StrixClusterBackend(devices=2)
    result = backend.run(pbs_batch_graph(PARAM_SET_I, 512), devices=3)
    assert result.details["devices"] == 3
    # The backend's own cluster is untouched.
    assert len(backend.cluster) == 2
    policy_result = backend.run(
        pbs_batch_graph(PARAM_SET_I, 512), policy="least-loaded"
    )
    assert policy_result.details["policy"] == "least-loaded"


def test_run_devices_override_preserves_custom_policy_instances():
    class CustomPolicy(RoundRobinPolicy):
        name = "custom-unregistered"

    backend = StrixClusterBackend(devices=2, policy=CustomPolicy())
    result = backend.run(pbs_batch_graph(PARAM_SET_I, 512), devices=3)
    assert result.details["devices"] == 3
    assert result.details["policy"] == "custom-unregistered"


# -- unknown-backend error (registry bugfix) ---------------------------------------------


def test_unknown_backend_error_lists_names_and_suggests():
    with pytest.raises(UnknownBackendError) as excinfo:
        get_backend("strix-clutser")
    message = str(excinfo.value)
    assert "strix-clutser" in message
    assert "strix-cluster" in message  # full listing + did-you-mean
    assert "did you mean" in message
    assert "reference" in message
    # Still a KeyError for callers catching the historical exception…
    assert isinstance(excinfo.value, KeyError)
    # …but renders as a sentence, not a quoted repr.
    assert not message.startswith('"')


def test_unknown_backend_error_without_close_match():
    with pytest.raises(UnknownBackendError) as excinfo:
        get_backend("totally-unrelated")
    assert "did you mean" not in str(excinfo.value)
    assert "registered backends" in str(excinfo.value)


def test_unknown_backend_error_survives_pickling():
    """Exceptions cross process boundaries (xdist, executors) via pickle."""
    import pickle

    with pytest.raises(UnknownBackendError) as excinfo:
        get_backend("strix-clutser")
    restored = pickle.loads(pickle.dumps(excinfo.value))
    assert isinstance(restored, UnknownBackendError)
    assert str(restored) == str(excinfo.value)
    assert restored.registered == excinfo.value.registered
