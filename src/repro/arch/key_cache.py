"""Per-device key residency under an HBM key-memory budget.

Every tenant served by a device needs that tenant's bootstrapping key and
keyswitching key resident in the device's HBM — at the paper's parameter
set I that is ~22.5 MB per tenant, so a 16 GB stack holds a few hundred
tenants, not millions.  This module is the subsystem that makes the
serving tier honest about it:

* :class:`DeviceKeyCache` — one device's resident key sets and byte budget;
* :class:`KeyEvictionPolicy` — *which* tenant loses residency when a device
  runs out of key memory.  Three policies ship behind the same
  registry/did-you-mean shape as layouts and cost models:

  - ``"lru"`` — evict the least-recently-used tenant (the default: serving
    traffic is bursty per tenant, so recency predicts re-use);
  - ``"lfu"`` — evict the least-frequently-used tenant (frequency counts
    reset on eviction), ties broken by recency;
  - ``"pinned"`` — LRU over the *unpinned* tenants only; pinned tenants
    (premium / latency-SLA customers) never lose residency.

* :class:`KeyResidencyManager` — the cluster-wide coordinator every
  :class:`~repro.sched.layouts.PlacementLayout` charges through: it tracks
  which devices hold which tenants' keys, prices BSK/KSK (re-)shipping on
  the shared :class:`~repro.arch.interconnect.InterconnectModel`, enforces
  the per-device budget, and keeps the hit/miss/evict/re-ship counters the
  serving report surfaces.

The compatibility contract: with an *unbounded* budget (``budget_bytes is
None``, the default) nothing is ever evicted and the manager reproduces the
historical key-shipping arithmetic bit-for-bit — a tenant's first placement
is free (onboarding provisions keys) and each device pays for one key-set
transfer the first time the tenant lands on it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.arch.config import StrixConfig
from repro.errors import UnknownKeyPolicyError
from repro.params import TFHEParameters
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.arch.interconnect import InterconnectModel


def hbm_key_budget_bytes(device: StrixConfig, fraction: float = 0.5) -> int:
    """A hardware-honest per-device key-memory budget.

    ``fraction`` of the device's HBM capacity is reserved for resident
    tenant key sets; the rest stays with ciphertexts, test vectors and
    staging buffers.  Capacity follows the GB = 1e9 bytes convention the
    bandwidth figures already use.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("key-memory fraction must be in (0, 1]")
    return int(device.hbm_capacity_gb * 1e9 * fraction)


class KeyEvictionPolicy(abc.ABC):
    """Strategy choosing which resident tenant a full device evicts.

    The policy observes every cache event (insert / access / evict, always
    per device) and answers :meth:`victim` when a device must free key
    memory.  Implementations keep their own recency/frequency state, so the
    caches themselves stay plain byte maps.
    """

    #: Registry name of the policy.
    name = ""

    def __init__(self) -> None:
        self._clock = 0

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    @abc.abstractmethod
    def on_insert(self, device: int, tenant: str) -> None:
        """A tenant's key set became resident on ``device``."""

    @abc.abstractmethod
    def on_access(self, device: int, tenant: str) -> None:
        """A resident tenant's key set was used on ``device``."""

    @abc.abstractmethod
    def on_evict(self, device: int, tenant: str) -> None:
        """A tenant's key set was evicted from ``device``."""

    @abc.abstractmethod
    def victim(self, device: int, candidates: Iterable[str]) -> str | None:
        """The tenant ``device`` should evict, or ``None`` if none may go.

        ``candidates`` excludes tenants the in-flight dispatch needs — a
        batch must never evict its own keys to admit them.
        """

    def reset(self) -> None:
        """Clear all recency/frequency state between simulations."""
        self._clock = 0


class LRUEvictionPolicy(KeyEvictionPolicy):
    """Evict the tenant whose keys were used longest ago."""

    name = "lru"

    def __init__(self) -> None:
        super().__init__()
        self._last_used: dict[tuple[int, str], int] = {}

    def on_insert(self, device: int, tenant: str) -> None:
        self._last_used[(device, tenant)] = self._tick()

    def on_access(self, device: int, tenant: str) -> None:
        self._last_used[(device, tenant)] = self._tick()

    def on_evict(self, device: int, tenant: str) -> None:
        self._last_used.pop((device, tenant), None)

    def victim(self, device: int, candidates: Iterable[str]) -> str | None:
        pool = list(candidates)
        if not pool:
            return None
        return min(pool, key=lambda tenant: self._last_used.get((device, tenant), 0))

    def reset(self) -> None:
        super().reset()
        self._last_used.clear()


class LFUEvictionPolicy(KeyEvictionPolicy):
    """Evict the tenant whose keys were used least often (ties: least recent).

    Frequency counts cover the *current* residency only — they reset when a
    tenant is evicted, so a historically chatty tenant cannot squat on key
    memory through a quiet spell the way a cumulative count would let it.
    """

    name = "lfu"

    def __init__(self) -> None:
        super().__init__()
        self._uses: dict[tuple[int, str], int] = {}
        self._last_used: dict[tuple[int, str], int] = {}

    def on_insert(self, device: int, tenant: str) -> None:
        self._uses[(device, tenant)] = 1
        self._last_used[(device, tenant)] = self._tick()

    def on_access(self, device: int, tenant: str) -> None:
        key = (device, tenant)
        self._uses[key] = self._uses.get(key, 0) + 1
        self._last_used[key] = self._tick()

    def on_evict(self, device: int, tenant: str) -> None:
        self._uses.pop((device, tenant), None)
        self._last_used.pop((device, tenant), None)

    def victim(self, device: int, candidates: Iterable[str]) -> str | None:
        pool = list(candidates)
        if not pool:
            return None
        return min(
            pool,
            key=lambda tenant: (
                self._uses.get((device, tenant), 0),
                self._last_used.get((device, tenant), 0),
            ),
        )

    def reset(self) -> None:
        super().reset()
        self._uses.clear()
        self._last_used.clear()


class PinnedTenantPolicy(LRUEvictionPolicy):
    """LRU over unpinned tenants; pinned tenants never lose residency.

    The operator's tool for latency-SLA customers: a pinned tenant's keys,
    once shipped, stay resident no matter how hard the rest of the
    population churns.  Pins come in two granularities:

    * a flat iterable of tenants pins them on *every* device (the
      historical form);
    * a ``{device_id: {tenants}}`` mapping pins each set only on its device
      — the shape an operator uses to reserve one device's key memory for a
      premium tenant while the rest of the cluster still evicts them.

    With nothing pinned the policy degenerates to plain LRU, and when
    *every* eviction candidate is pinned the device simply overcommits (see
    :meth:`KeyResidencyManager.place`).
    """

    name = "pinned"

    def __init__(self, pinned: "Iterable[str] | Mapping[int, Iterable[str]]" = ()) -> None:
        super().__init__()
        if isinstance(pinned, Mapping):
            self.pinned = frozenset()
            self.device_pins = {
                int(device): frozenset(tenants) for device, tenants in pinned.items()
            }
        else:
            self.pinned = frozenset(pinned)
            self.device_pins: dict[int, frozenset[str]] = {}

    def pin(self, tenant: str, device: int | None = None) -> None:
        """Pin one more tenant — everywhere, or on one device only."""
        if device is None:
            self.pinned = self.pinned | {tenant}
        else:
            self.device_pins[device] = self.device_pins.get(device, frozenset()) | {tenant}

    def is_pinned(self, device: int, tenant: str) -> bool:
        """Whether the tenant's keys are protected on this device."""
        return tenant in self.pinned or tenant in self.device_pins.get(device, frozenset())

    def victim(self, device: int, candidates: Iterable[str]) -> str | None:
        unpinned = [tenant for tenant in candidates if not self.is_pinned(device, tenant)]
        return super().victim(device, unpinned)


_KEY_POLICIES: Registry[KeyEvictionPolicy] = Registry(
    UnknownKeyPolicyError,
    KeyEvictionPolicy,
    (LRUEvictionPolicy, LFUEvictionPolicy, PinnedTenantPolicy),
)

#: Names of all key-cache eviction policies, sorted.
list_key_policies = _KEY_POLICIES.names


def get_key_policy(policy: "str | KeyEvictionPolicy") -> KeyEvictionPolicy:
    """Resolve an eviction-policy name (or pass an instance through).

    Raises :class:`~repro.errors.UnknownKeyPolicyError` — the shared
    did-you-mean shape — for unknown names.
    """
    return _KEY_POLICIES.get(policy)


@dataclass
class KeyCacheStats:
    """Counters of one serving run's key-residency traffic.

    ``hits`` and ``misses`` count per *(tenant, device)* placement checks;
    ``onboards`` counts free first placements (keys provisioned at tenant
    onboarding, never charged); ``reships`` is the subset of misses where
    the device held this tenant's keys before and evicted them — the cost
    eviction exists to expose.
    """

    hits: int = 0
    misses: int = 0
    onboards: int = 0
    evictions: int = 0
    reships: int = 0
    shipped_bytes: int = 0

    def to_dict(self) -> dict[str, int]:
        """JSON-friendly snapshot (what ``ServeReport`` carries)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "onboards": self.onboards,
            "evictions": self.evictions,
            "reships": self.reships,
            "shipped_bytes": self.shipped_bytes,
        }


@dataclass
class DeviceKeyCache:
    """One device's resident tenant key sets under a byte budget."""

    index: int
    budget_bytes: float | None
    #: Resident tenants mapped to the bytes their key set occupies.
    resident: dict[str, int] = field(default_factory=dict)
    used_bytes: int = 0

    def holds(self, tenant: str) -> bool:
        """Whether the tenant's keys are resident on this device."""
        return tenant in self.resident

    def insert(self, tenant: str, key_bytes: int) -> None:
        """Make a tenant's key set resident (idempotent per tenant)."""
        if tenant in self.resident:
            return
        self.resident[tenant] = key_bytes
        self.used_bytes += key_bytes

    def evict(self, tenant: str) -> int:
        """Drop a tenant's key set; returns the bytes freed."""
        freed = self.resident.pop(tenant)
        self.used_bytes -= freed
        return freed

    @property
    def over_budget(self) -> bool:
        """Whether resident key sets exceed the configured budget."""
        return self.budget_bytes is not None and self.used_bytes > self.budget_bytes


class KeyResidencyManager:
    """Cluster-wide key residency: placement, eviction, (re-)ship pricing.

    One instance per :class:`~repro.serve.cluster.StrixCluster`; every
    placement layout funnels its dispatch targets through :meth:`place`,
    which returns the seconds of BSK/KSK interconnect traffic the dispatch
    must absorb and updates residency, budgets and counters as a side
    effect.
    """

    def __init__(
        self,
        devices: int,
        interconnect: "InterconnectModel",
        budget_bytes: float | None = None,
        policy: "str | KeyEvictionPolicy" = "lru",
    ):
        self.interconnect = interconnect
        self.budget_bytes = budget_bytes
        self.policy = get_key_policy(policy)
        self.devices = [DeviceKeyCache(index, budget_bytes) for index in range(devices)]
        self.stats = KeyCacheStats()
        #: Tenants whose first placement already happened (onboarding).
        self._onboarded: set[str] = set()
        #: Tenants each device ever held — distinguishes a re-ship (evicted,
        #: shipped again) from a first ship to a new device.
        self._ever_held: list[set[str]] = [set() for _ in range(devices)]

    # -- queries -----------------------------------------------------------------

    def resident_devices(self, tenant: str) -> frozenset[int]:
        """Indices of the devices currently holding the tenant's keys."""
        return frozenset(
            cache.index for cache in self.devices if cache.holds(tenant)
        )

    def resident_flags(self, tenant: str, indices: Sequence[int]) -> list[bool]:
        """Residency of ``tenant`` on each of ``indices``, in order.

        The mask the key-affinity sharding policy reads: aligned with the
        ``busy_until`` list the layout passes to
        :meth:`~repro.serve.sharding.ShardingPolicy.select`.
        """
        return [self.devices[index].holds(tenant) for index in indices]

    # -- placement ---------------------------------------------------------------

    def place(
        self,
        tenants: Iterable[str],
        targets: Sequence[int],
        params: TFHEParameters,
    ) -> float:
        """Make every tenant's keys resident on every target device.

        Returns the seconds of key shipping the dispatch is charged.  A
        tenant's very first placement is free — onboarding provisions keys,
        which keeps one-device clusters bit-for-bit with the single-device
        simulator — but still occupies budget; later placements pay one
        key-set transfer per device that lacks the keys (a *re-ship* when
        the device evicted them earlier).

        The in-flight batch's tenants are protected from eviction during
        their own placement, so a device whose budget cannot hold one
        batch's tenant set overcommits instead of thrashing within a single
        dispatch.
        """
        protected = frozenset(tenants)  # a batch's own frozenset is not copied
        key_bytes = None  # sized when a key set is inserted: a hit never needs it
        shipping = 0.0
        for tenant in sorted(protected):
            onboarding = tenant not in self._onboarded
            if onboarding:
                self._onboarded.add(tenant)
                self.stats.onboards += 1
            ships = 0
            for index in targets:
                cache = self.devices[index]
                if cache.holds(tenant):
                    if not onboarding:
                        self.stats.hits += 1
                    self.policy.on_access(index, tenant)
                    continue
                if key_bytes is None:
                    key_bytes = self.interconnect.key_set_bytes(params)
                if not onboarding:
                    ships += 1
                    self.stats.misses += 1
                    self.stats.shipped_bytes += key_bytes
                    if tenant in self._ever_held[index]:
                        self.stats.reships += 1
                cache.insert(tenant, key_bytes)
                self._ever_held[index].add(tenant)
                self.policy.on_insert(index, tenant)
                self._enforce_budget(cache, protected)
            if ships:
                # One multiply per tenant, matching the historical
                # ``len(missing) * per_key_s`` arithmetic to the last bit.
                shipping += ships * self.interconnect.transfer_s(key_bytes)
        return shipping

    def evict_device(self, index: int) -> list[str]:
        """Reclaim every key set resident on ``index`` (the device died).

        Device death loses HBM contents: each resident tenant is evicted —
        through the policy, counted against the ordinary ``evictions``
        stat — and returned, sorted, so the fault injector can attribute
        the re-shipping those tenants pay when they land again.  Because
        the device stays in ``_ever_held``, any return ship is priced as a
        re-ship by :meth:`place`, exactly once per surviving placement.
        """
        cache = self.devices[index]
        evicted = sorted(cache.resident)
        for tenant in evicted:
            cache.evict(tenant)
            self.policy.on_evict(index, tenant)
            self.stats.evictions += 1
        return evicted

    def _enforce_budget(self, cache: DeviceKeyCache, protected: frozenset[str]) -> None:
        """Evict until ``cache`` fits its budget (or only protected keys remain)."""
        while cache.over_budget:
            candidates = [
                tenant for tenant in cache.resident if tenant not in protected
            ]
            victim = self.policy.victim(cache.index, candidates)
            if victim is None:
                return  # everything left is in use or pinned: overcommit
            cache.evict(victim)
            self.policy.on_evict(cache.index, victim)
            self.stats.evictions += 1

    def reset(self) -> None:
        """Clear residency, counters and policy state between simulations."""
        for cache in self.devices:
            cache.resident.clear()
            cache.used_bytes = 0
        self._onboarded.clear()
        for held in self._ever_held:
            held.clear()
        self.policy.reset()
        self.stats = KeyCacheStats()
