"""Tests for key residency under a per-device HBM budget.

Covers the eviction policies (LRU / LFU / pinned) and their registry, the
budget-enforcement and re-shipping arithmetic of the residency manager, the
compatibility contract (unbounded budget — and a budget large enough for
every key set — stay bit-for-bit with the pre-eviction serving numbers),
the key-affinity sharding policy, and the batch request-mix signature the
schedule cache keys on.

The policies are stateless choosers over a device's recency-ordered resident
map.  Like circlestark's ``fft`` beside ``fast_fft``, ``spec_victim`` and
``SpecResidency`` keep the tick-based bookkeeping they replaced — a global
clock and a use count per (device, tenant) — and the manager must equal
them after every step of random placement and device-death sequences.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run
from repro.arch.config import StrixClusterConfig
from repro.arch.interconnect import InterconnectModel
from repro.arch.key_cache import (
    KeyCacheStats,
    KeyResidencyManager,
    LRUEvictionPolicy,
    PinnedTenantPolicy,
    get_key_policy,
    hbm_key_budget_bytes,
    list_key_policies,
)
from repro.errors import UnknownKeyPolicyError, UnknownNameError
from repro.params import PARAM_SET_I
from repro.sched import batch_mix_signature
from repro.serve import Request, Server, StrixCluster
from repro.serve.batcher import Batch
from repro.sim.graph import ComputationGraph


def make_batch(requests, batch_id=0, created_s=0.0):
    return Batch(
        batch_id=batch_id,
        requests=tuple(requests),
        created_s=created_s,
        flush_reason="full",
    )


def bootstrap_batch(items=8, tenant="t0", batch_id=0, request_id=1):
    return make_batch(
        [Request.make(request_id, tenant, "bootstrap", items)], batch_id=batch_id
    )


def key_set_bytes(cluster):
    return cluster.interconnect.key_set_bytes(PARAM_SET_I)


def budget_for(cluster, key_sets):
    """A per-device budget holding exactly ``key_sets`` params-I key sets."""
    return key_sets * key_set_bytes(cluster) + 1


# -- policy registry ----------------------------------------------------------------


def test_key_policy_registry():
    assert list_key_policies() == ["lfu", "lru", "pinned"]
    assert isinstance(get_key_policy("lru"), LRUEvictionPolicy)
    instance = PinnedTenantPolicy(pinned={"vip"})
    assert get_key_policy(instance) is instance


def test_unknown_key_policy_shares_did_you_mean_shape():
    with pytest.raises(UnknownKeyPolicyError) as excinfo:
        get_key_policy("lrru")
    error = excinfo.value
    assert isinstance(error, UnknownNameError)
    message = str(error)
    assert "unknown key-cache policy 'lrru'" in message
    assert "did you mean 'lru'?" in message
    assert str(pickle.loads(pickle.dumps(error))) == message


def test_hbm_key_budget_derivation():
    config = StrixClusterConfig()
    half = hbm_key_budget_bytes(config.device)
    assert half == int(config.device.hbm_capacity_gb * 1e9 * 0.5)
    assert hbm_key_budget_bytes(config.device, fraction=1.0) == 2 * half
    with pytest.raises(ValueError, match="fraction"):
        hbm_key_budget_bytes(config.device, fraction=0.0)
    # A 16 GB stack holds a few hundred ~22.5 MB key sets, not millions.
    per_tenant = StrixCluster(devices=1).interconnect.key_set_bytes(PARAM_SET_I)
    assert 100 < half // per_tenant < 1000


def test_cluster_config_validates_key_budget():
    with pytest.raises(ValueError, match="key-memory budget"):
        StrixClusterConfig(key_budget_bytes=0)
    tight = StrixClusterConfig().with_key_budget(1024, key_policy="lfu")
    assert tight.key_budget_bytes == 1024
    assert tight.key_policy == "lfu"


# -- eviction policies over the residency manager ------------------------------------


def manager(cluster, key_sets, policy="lru"):
    return KeyResidencyManager(
        devices=len(cluster.devices),
        interconnect=cluster.interconnect,
        budget_bytes=budget_for(cluster, key_sets),
        policy=policy,
    )


def test_lru_evicts_least_recently_used():
    cluster = StrixCluster(devices=1)
    residency = manager(cluster, key_sets=2, policy="lru")
    residency.place(["a"], (0,), PARAM_SET_I)
    residency.place(["b"], (0,), PARAM_SET_I)
    residency.place(["a"], (0,), PARAM_SET_I)  # refresh a: b is now coldest
    residency.place(["c"], (0,), PARAM_SET_I)
    assert residency.resident_devices("a") == frozenset({0})
    assert residency.resident_devices("b") == frozenset()
    assert residency.resident_devices("c") == frozenset({0})
    assert residency.stats.evictions == 1


def test_lfu_evicts_least_frequent():
    cluster = StrixCluster(devices=1)
    residency = manager(cluster, key_sets=2, policy="lfu")
    residency.place(["a"], (0,), PARAM_SET_I)
    residency.place(["b"], (0,), PARAM_SET_I)
    for _ in range(3):
        residency.place(["a"], (0,), PARAM_SET_I)
    residency.place(["b"], (0,), PARAM_SET_I)  # a used 4x, b used 2x
    residency.place(["c"], (0,), PARAM_SET_I)
    assert residency.resident_devices("a") == frozenset({0})
    assert residency.resident_devices("b") == frozenset()


def test_pinned_tenants_survive_churn():
    cluster = StrixCluster(devices=1)
    residency = KeyResidencyManager(
        devices=1,
        interconnect=cluster.interconnect,
        budget_bytes=budget_for(cluster, 2),
        policy=PinnedTenantPolicy(pinned={"vip"}),
    )
    residency.place(["vip"], (0,), PARAM_SET_I)
    for tenant in ("a", "b", "c", "d"):
        residency.place([tenant], (0,), PARAM_SET_I)
        assert residency.resident_devices("vip") == frozenset({0})
    assert residency.stats.evictions == 3  # a, b, c evicted; vip never


def test_per_device_pin_sets():
    cluster = StrixCluster(devices=2)
    # vip is untouchable on device 0 only; device 1 may evict it freely.
    policy = PinnedTenantPolicy(pinned={0: {"vip"}})
    assert policy.is_pinned(0, "vip")
    assert not policy.is_pinned(1, "vip")
    residency = KeyResidencyManager(
        devices=2,
        interconnect=cluster.interconnect,
        budget_bytes=budget_for(cluster, 2),
        policy=policy,
    )
    for device in (0, 1):
        residency.place(["vip"], (device,), PARAM_SET_I)
        for tenant in ("a", "b", "c"):
            residency.place([tenant], (device,), PARAM_SET_I)
    assert residency.resident_devices("vip") == frozenset({0})
    # pin() with a device argument extends one device's set, not the globals.
    policy.pin("gold", device=1)
    assert policy.is_pinned(1, "gold") and not policy.is_pinned(0, "gold")
    # pin() without a device stays global, alongside the per-device sets.
    policy.pin("everywhere")
    assert policy.is_pinned(0, "everywhere") and policy.is_pinned(1, "everywhere")


@pytest.mark.parametrize("pinned", ["vip", {0: "vip"}])
def test_pinned_policy_refuses_a_bare_string(pinned):
    # A bare string is an iterable of characters: "vip" would pin 'v', 'i', 'p'.
    with pytest.raises(TypeError, match="'vip'"):
        PinnedTenantPolicy(pinned=pinned)


def test_all_protected_overcommits_instead_of_thrashing():
    cluster = StrixCluster(devices=1)
    residency = manager(cluster, key_sets=1, policy="lru")
    # One batch carries two tenants: both are protected during placement,
    # so the device overcommits rather than evicting a key it just shipped.
    residency.place(["a", "b"], (0,), PARAM_SET_I)
    assert residency.resident_devices("a") == frozenset({0})
    assert residency.resident_devices("b") == frozenset({0})
    assert residency.devices[0].over_budget
    # The next single-tenant placement brings the device back under budget.
    residency.place(["c"], (0,), PARAM_SET_I)
    assert not residency.devices[0].over_budget


def test_eviction_triggers_paid_reshipping():
    params = PARAM_SET_I
    cluster = StrixCluster(devices=1, key_budget_bytes=budget_for_single(1))
    per_ship = one_ship_s(cluster)
    first = cluster.dispatch(bootstrap_batch(tenant="a"), 0.0, params)
    assert first.breakdown["key_shipping_s"] == 0.0  # onboarding is free
    second = cluster.dispatch(bootstrap_batch(tenant="b", batch_id=1), 0.0, params)
    assert second.breakdown["key_shipping_s"] == 0.0  # onboarding evicts a
    third = cluster.dispatch(bootstrap_batch(tenant="a", batch_id=2), 0.0, params)
    # a's keys were evicted: returning costs one full BSK/KSK re-ship.
    assert third.breakdown["key_shipping_s"] == pytest.approx(per_ship)
    stats = cluster.key_cache_stats
    assert stats["evictions"] >= 2
    assert stats["reships"] == 1
    assert stats["shipped_bytes"] == cluster.interconnect.key_set_bytes(params)


def one_ship_s(cluster):
    """Seconds to ship one tenant's BSK + KSK set over the cluster interconnect."""
    return cluster.interconnect.transfer_s(cluster.interconnect.key_set_bytes(PARAM_SET_I))


def budget_for_single(key_sets):
    return key_sets * StrixCluster(devices=1).interconnect.key_set_bytes(
        PARAM_SET_I
    ) + 1


# -- serving-level churn -------------------------------------------------------------


def churn_trace(tenants, rounds, items=8):
    requests = []
    request_id = 0
    for round_index in range(rounds):
        for tenant_index in range(tenants):
            request_id += 1
            requests.append(
                Request.make(
                    request_id,
                    f"tenant{tenant_index}",
                    "bootstrap",
                    items,
                    arrival_s=request_id * 1e-3,
                )
            )
    return requests


def test_tenant_churn_past_budget_surfaces_counters_in_report():
    server = Server(
        devices=2,
        policy="round-robin",
        params="I",
        key_budget_bytes=budget_for_single(2),
        batch_capacity=8,
    )
    report = server.simulate(churn_trace(tenants=6, rounds=4), label="churn")
    counters = report.metrics.key_cache
    assert counters["evictions"] > 0
    assert counters["reships"] > 0
    assert counters["misses"] >= counters["reships"]
    assert report.metrics.cost_breakdown["key_shipping_s"] > 0.0
    assert report.to_dict()["key_cache"] == counters
    assert "evictions" in report.render()


def test_unbounded_budget_never_evicts():
    server = Server(devices=2, policy="round-robin", params="I", batch_capacity=8)
    report = server.simulate(churn_trace(tenants=6, rounds=4), label="unbounded")
    counters = report.metrics.key_cache
    assert counters["evictions"] == 0
    assert counters["reships"] == 0
    assert counters["onboards"] == 6


def test_large_budget_matches_unbounded_serving_bit_for_bit():
    trace = churn_trace(tenants=4, rounds=3)
    unbounded = Server(devices=2, params="I", batch_capacity=8)
    bounded = Server(
        devices=2,
        params="I",
        batch_capacity=8,
        key_budget_bytes=hbm_key_budget_bytes(StrixClusterConfig().device),
    )
    baseline = unbounded.simulate(list(trace), label="x")
    budgeted = bounded.simulate(list(trace), label="x")
    assert budgeted.metrics.latency == baseline.metrics.latency
    assert budgeted.metrics.cost_breakdown == baseline.metrics.cost_breakdown
    assert budgeted.metrics.key_cache["evictions"] == 0


def test_single_device_large_budget_stays_bit_for_bit_with_strix_sim():
    from repro.serve.backend import StrixClusterBackend

    graph = ComputationGraph(PARAM_SET_I, name="invariant")
    graph.add_pbs_layer("lut0", 96)
    graph.add_pbs_layer("lut1", 64, depends_on=["lut0"])
    single = run(graph, backend="strix-sim")
    backend = StrixClusterBackend(
        devices=1,
        config=StrixClusterConfig(devices=1).with_key_budget(
            hbm_key_budget_bytes(StrixClusterConfig().device)
        ),
    )
    cluster = run(graph, backend=backend)
    assert cluster.latency_s == single.latency_s
    assert cluster.pbs_count == single.pbs_count


# -- key-affinity sharding -----------------------------------------------------------


def test_key_affinity_policy_follows_resident_keys():
    params = PARAM_SET_I
    cluster = StrixCluster(devices=4, policy="key-affinity")
    first = cluster.dispatch(bootstrap_batch(tenant="t"), 0.0, params)
    assert first.breakdown["key_shipping_s"] == 0.0
    # Load the home device: a residency-blind least-loaded policy would now
    # migrate the tenant (and ship keys); key-affinity stays put.
    cluster.devices[first.device].busy_until = 1.0
    second = cluster.dispatch(bootstrap_batch(tenant="t", batch_id=1), 0.0, params)
    assert second.device == first.device
    assert second.breakdown["key_shipping_s"] == 0.0
    assert cluster.key_cache_stats["misses"] == 0


def test_key_affinity_falls_back_to_least_loaded_without_residency():
    params = PARAM_SET_I
    cluster = StrixCluster(devices=3, policy="key-affinity")
    cluster.devices[0].busy_until = 5.0
    dispatch = cluster.dispatch(bootstrap_batch(tenant="fresh"), 0.0, params)
    assert dispatch.device == 1  # least loaded among the idle devices


# -- batch-mix signature -------------------------------------------------------------


def inference_batch(request_id, tenant, batch_id):
    return make_batch(
        [
            Request.make(request_id, tenant, "inference", 1, model="NN-20"),
            Request.make(request_id + 1, tenant, "bootstrap", 16),
        ],
        batch_id=batch_id,
    )


def test_batch_mix_signature_ignores_ids_and_tenants():
    first = inference_batch(1, "alice", 0)
    second = inference_batch(7, "bob", 3)
    assert batch_mix_signature(first) == batch_mix_signature(second)
    different = make_batch([Request.make(9, "alice", "bootstrap", 17)], batch_id=4)
    assert batch_mix_signature(different) != batch_mix_signature(first)


def test_string_key_policy_override_lands_in_config():
    cluster = StrixCluster(devices=2, key_budget_bytes=1024, key_policy="lfu")
    assert cluster.config.key_policy == "lfu"
    assert cluster.config.key_budget_bytes == 1024
    rebuilt = StrixCluster(config=cluster.config)
    assert rebuilt.key_residency.policy.name == "lfu"
    assert rebuilt.key_residency.budget_bytes == 1024


# -- reset ---------------------------------------------------------------------------


def test_residency_reset_clears_everything():
    cluster = StrixCluster(devices=2, key_budget_bytes=budget_for_single(1))
    cluster.dispatch(bootstrap_batch(tenant="a"), 0.0, PARAM_SET_I)
    cluster.dispatch(bootstrap_batch(tenant="b", batch_id=1), 0.0, PARAM_SET_I)
    cluster.reset_serving_state()
    stats = cluster.key_cache_stats
    assert all(value == 0 for value in stats.values())
    assert cluster.key_residency.resident_devices("a") == frozenset()
    assert cluster.key_residency.resident_devices("b") == frozenset()


# -- device-death recovery (the fault injector's reclamation path) -------------------


def test_evict_device_reclaims_every_resident_tenant():
    cluster = StrixCluster(devices=2)
    manager = cluster.key_residency
    manager.place(["a", "b"], [0, 1], PARAM_SET_I)  # onboarding, free
    assert manager.resident_devices("a") == frozenset({0, 1})
    evicted = manager.evict_device(0)
    assert evicted == ["a", "b"]
    assert manager.resident_devices("a") == frozenset({1})
    assert manager.resident_devices("b") == frozenset({1})
    assert manager.stats.evictions == 2
    # Double death: the device is already empty, nothing more to reclaim.
    assert manager.evict_device(0) == []
    assert manager.stats.evictions == 2


def test_death_then_return_pays_exactly_one_reship():
    cluster = StrixCluster(devices=2)
    manager = cluster.key_residency
    per_ship = one_ship_s(cluster)
    manager.place(["a"], [0, 1], PARAM_SET_I)
    manager.evict_device(0)
    # The healed device returns empty: landing there again re-ships once.
    assert manager.place(["a"], [0], PARAM_SET_I) == pytest.approx(per_ship)
    assert manager.stats.reships == 1
    # Now resident again: the next placement is a hit, not another ship.
    assert manager.place(["a"], [0], PARAM_SET_I) == 0.0
    assert manager.stats.reships == 1


def test_die_heal_die_charges_each_return():
    cluster = StrixCluster(devices=2)
    manager = cluster.key_residency
    per_ship = one_ship_s(cluster)
    manager.place(["a"], [0, 1], PARAM_SET_I)
    manager.evict_device(0)
    assert manager.place(["a"], [0], PARAM_SET_I) == pytest.approx(per_ship)
    manager.evict_device(0)
    assert manager.place(["a"], [0], PARAM_SET_I) == pytest.approx(per_ship)
    assert manager.stats.reships == 2
    assert manager.stats.evictions == 2  # one resident tenant, two deaths


def test_replacing_after_evict_device_fits_the_budget():
    cluster = StrixCluster(devices=2, key_budget_bytes=budget_for_single(2))
    manager = cluster.key_residency
    manager.place(["a", "b"], [0], PARAM_SET_I)
    manager.evict_device(0)
    # The death freed every byte: re-placing both fits the two-set budget
    # without evicting either.
    manager.place(["a", "b"], [0], PARAM_SET_I)
    assert manager.resident_devices("a") == frozenset({0})
    assert manager.resident_devices("b") == frozenset({0})
    assert manager.devices[0].used_bytes == 2 * cluster.interconnect.key_set_bytes(PARAM_SET_I)
    assert manager.stats.evictions == 2  # the death's two, no budget evictions


# -- the spec: the tick-based bookkeeping the stateless policies replaced -----------

INTERCONNECT = InterconnectModel(StrixClusterConfig())
KEY_BYTES = INTERCONNECT.key_set_bytes(PARAM_SET_I)


def spec_victim(policy, ticks, uses, device, candidates):
    """LRU: the oldest last use.  LFU: the fewest uses, then the oldest.  Pinned: LRU
    over the unpinned.  Every tick is distinct, so the candidates' order never matters."""
    if policy.name == "pinned":
        candidates = [tenant for tenant in candidates if not policy.is_pinned(device, tenant)]

    def rank(tenant):
        tick = ticks[device, tenant]
        return (uses[device, tenant], tick) if policy.name == "lfu" else tick

    return min(candidates, key=rank, default=None)


class SpecResidency:
    """Per-device resident sets, a tick and a use count per (device, tenant), and
    every (device, tenant) pair ever held — what the policies' hooks used to mirror."""

    def __init__(self, devices, budget_sets, policy):
        self.resident = [set() for _ in range(devices)]
        self.ticks, self.uses, self.held, self.onboarded = {}, {}, set(), set()
        self.budget_sets, self.policy, self.clock = budget_sets, policy, 0
        self.stats = KeyCacheStats()

    def use(self, device, tenant, landed):
        self.clock += 1
        self.ticks[device, tenant] = self.clock
        self.uses[device, tenant] = 1 if landed else self.uses[device, tenant] + 1

    def place(self, tenants, targets):
        for tenant in sorted(tenants):
            onboarding = tenant not in self.onboarded
            self.onboarded.add(tenant)
            self.stats.onboards += onboarding
            for device in targets:
                resident = self.resident[device]
                if tenant in resident:
                    self.stats.hits += not onboarding
                    self.use(device, tenant, landed=False)
                    continue
                if not onboarding:
                    self.stats.misses += 1
                    self.stats.shipped_bytes += KEY_BYTES
                    self.stats.reships += (device, tenant) in self.held
                resident.add(tenant)
                self.held.add((device, tenant))
                self.use(device, tenant, landed=True)
                while len(resident) > self.budget_sets:
                    victim = spec_victim(
                        self.policy, self.ticks, self.uses, device, resident - tenants
                    )
                    if victim is None:
                        break
                    resident.remove(victim)
                    self.stats.evictions += 1

    def evict_device(self, device):
        self.stats.evictions += len(self.resident[device])
        self.resident[device].clear()


@st.composite
def residency_runs(draw, policy_name):
    """1–3 devices, a budget of 1–3 key sets, pins, and 8–20 steps, a third of them deaths."""
    devices = draw(st.integers(1, 3))
    device, tenant = st.integers(0, devices - 1), st.sampled_from("abcde")
    policy = get_key_policy(policy_name)
    if policy_name == "pinned":
        policy = PinnedTenantPolicy(draw(st.dictionaries(device, st.sets(tenant, max_size=2))))
        for pinned in draw(st.sets(tenant, max_size=2)):
            policy.pin(pinned)
    place = st.tuples(
        st.frozensets(tenant, min_size=1, max_size=3),
        st.lists(device, min_size=1, max_size=devices, unique=True),
    )
    steps = draw(st.lists(st.one_of(place, place, device), min_size=8, max_size=20))
    return devices, draw(st.integers(1, 3)), policy, steps


@pytest.mark.parametrize("policy_name", list_key_policies())
@settings(max_examples=settings.default.max_examples // 2)
@given(data=st.data())
def test_residency_equals_the_tick_based_spec(policy_name, data):
    devices, budget_sets, policy, steps = data.draw(residency_runs(policy_name))
    manager = KeyResidencyManager(devices, INTERCONNECT, budget_sets * KEY_BYTES, policy)
    spec = SpecResidency(devices, budget_sets, policy)
    for step in steps:
        if isinstance(step, int):
            assert manager.evict_device(step) == sorted(spec.resident[step])
            spec.evict_device(step)
        else:
            manager.place(*step, PARAM_SET_I)
            spec.place(*step)
        for cache, resident in zip(manager.devices, spec.resident):
            by_age = sorted(resident, key=lambda tenant: spec.ticks[cache.index, tenant])
            assert list(cache.resident.items()) == [
                (tenant, spec.uses[cache.index, tenant]) for tenant in by_age
            ]
            assert cache.used_bytes == len(resident) * KEY_BYTES
        assert manager.stats == spec.stats
