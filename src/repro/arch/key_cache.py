"""Per-device key residency under an HBM key-memory budget.

Every tenant served by a device needs that tenant's bootstrapping key and
keyswitching key resident in the device's HBM — at the paper's parameter
set I that is ~22.5 MB per tenant, so a 16 GB stack holds a few hundred
tenants, not millions.  This module is the subsystem that makes the
serving tier honest about it:

* :class:`DeviceKeyCache` — the one owner of a device's key facts: its
  ``resident`` tenants are the eviction order (least recently used first)
  and ``ever_held`` tells a re-ship from a first ship;
* :class:`KeyEvictionPolicy` — a stateless chooser of *which* tenant loses
  residency when a device runs out of key memory, behind the same
  registry/did-you-mean shape as layouts and cost models:

  - ``"lru"`` — evict the least-recently-used tenant (the default: serving
    traffic is bursty per tenant, so recency predicts re-use);
  - ``"pinned"`` — LRU over the *unpinned* tenants only; pinned tenants
    (premium / latency-SLA customers) never lose residency.

* :class:`KeyResidencyManager` — the cluster-wide coordinator every
  :class:`~repro.sched.layouts.PlacementLayout` charges through: it prices
  BSK/KSK (re-)shipping on the shared
  :class:`~repro.arch.interconnect.InterconnectModel`, enforces the
  per-device budget, and keeps the hit/miss/evict/re-ship counters the
  serving report surfaces.

The compatibility contract: with an *unbounded* budget (``budget_bytes is
None``, the default) nothing is ever evicted and the manager reproduces the
historical key-shipping arithmetic bit-for-bit — a tenant's first placement
is free (onboarding provisions keys) and each device pays for one key-set
transfer the first time the tenant lands on it.
"""

from __future__ import annotations

import abc
from dataclasses import asdict, dataclass, field
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


@dataclass
class DeviceKeyCache:
    """One device's resident tenant key sets under a byte budget."""

    index: int
    budget_bytes: float | None
    #: Resident tenants, least recently used first: the device's eviction
    #: order (a dict used as an ordered set; every value is ``None``).
    resident: dict[str, None] = field(default_factory=dict)
    used_bytes: int = 0
    #: Tenants this device ever held: landing again is a re-ship.
    ever_held: set[str] = field(default_factory=set)

    def touch(self, tenant: str) -> bool:
        """Make a resident tenant the most recent; ``False`` if not resident."""
        resident = self.resident
        if tenant not in resident:
            return False
        del resident[tenant]
        resident[tenant] = None
        return True

    def insert(self, tenant: str, key_bytes: int) -> None:
        """Make a non-resident tenant's key set resident, as the most recent."""
        self.resident[tenant] = None
        self.used_bytes += key_bytes
        self.ever_held.add(tenant)

    def evict(self, tenant: str, key_bytes: int) -> None:
        """Drop a resident tenant's key set of ``key_bytes``."""
        del self.resident[tenant]
        self.used_bytes -= key_bytes

    def clear(self) -> list[str]:
        """Drop every resident key set; returns the dropped tenants, sorted."""
        dropped = sorted(self.resident)
        self.resident.clear()
        self.used_bytes = 0
        return dropped

    @property
    def over_budget(self) -> bool:
        """Whether resident key sets exceed the configured budget."""
        return self.budget_bytes is not None and self.used_bytes > self.budget_bytes


class KeyEvictionPolicy(abc.ABC):
    """Strategy choosing which resident tenant a full device evicts.

    Stateless: the recency order lives in the :class:`DeviceKeyCache`.
    """

    #: Registry name of the policy.
    name = ""

    @abc.abstractmethod
    def victim(self, cache: DeviceKeyCache, candidates: Sequence[str]) -> str | None:
        """The tenant ``cache``'s device should evict, or ``None`` if none may go.

        ``candidates`` are resident tenants in recency order, least recent
        first.  It excludes tenants the in-flight dispatch needs — a batch
        must never evict its own keys to admit them.
        """


class LRUEvictionPolicy(KeyEvictionPolicy):
    """Evict the tenant whose keys were used longest ago."""

    name = "lru"

    def victim(self, cache: DeviceKeyCache, candidates: Sequence[str]) -> str | None:
        return candidates[0] if candidates else None


def _tenant_set(tenants: Iterable[str]) -> frozenset[str]:
    if isinstance(tenants, str):
        raise TypeError(f"pin a collection of tenants, not the bare string {tenants!r}")
    return frozenset(tenants)


class PinnedTenantPolicy(LRUEvictionPolicy):
    """LRU over unpinned tenants; pinned tenants never lose residency.

    The operator's tool for latency-SLA customers: a pinned tenant's keys,
    once shipped, stay resident no matter how hard the rest of the
    population churns.  A flat collection of tenants pins them on *every*
    device; a ``{device_id: {tenants}}`` mapping pins each set only on its
    device, reserving one device's key memory for a premium tenant while
    the rest of the cluster still evicts them.  A bare string is refused in
    either form (``"vip"`` would pin ``'v'``, ``'i'`` and ``'p'``).

    With nothing pinned the policy degenerates to plain LRU, and when
    *every* eviction candidate is pinned the device simply overcommits (see
    :meth:`KeyResidencyManager.place`).
    """

    name = "pinned"

    def __init__(self, pinned: "Iterable[str] | Mapping[int, Iterable[str]]" = ()) -> None:
        if isinstance(pinned, Mapping):
            self.pinned = frozenset()
            self.device_pins = {int(device): _tenant_set(pins) for device, pins in pinned.items()}
        else:
            self.pinned = _tenant_set(pinned)
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

    def victim(self, cache: DeviceKeyCache, candidates: Sequence[str]) -> str | None:
        unpinned = [tenant for tenant in candidates if not self.is_pinned(cache.index, tenant)]
        return super().victim(cache, unpinned)


_KEY_POLICIES: Registry[KeyEvictionPolicy] = Registry(
    UnknownKeyPolicyError,
    KeyEvictionPolicy,
    (LRUEvictionPolicy, PinnedTenantPolicy),
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
        return asdict(self)


class KeyResidencyManager:
    """Cluster-wide key residency: placement, eviction, (re-)ship pricing.

    One instance per :class:`~repro.serve.cluster.StrixCluster`; every
    placement layout funnels its dispatch targets through :meth:`place`,
    which returns the seconds of BSK/KSK interconnect traffic the dispatch
    must absorb and updates residency, budgets and counters as a side
    effect.  It is the one holder of the cluster's key budget
    (``budget_bytes``, ``None`` = unbounded) and eviction ``policy``.
    """

    def __init__(
        self,
        devices: int,
        interconnect: "InterconnectModel",
        budget_bytes: float | None = None,
        policy: "str | KeyEvictionPolicy" = "lru",
    ):
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("key-memory budget must be positive (or None)")
        self.interconnect = interconnect
        self.budget_bytes = budget_bytes
        self.policy = get_key_policy(policy)
        self.devices = [DeviceKeyCache(index, budget_bytes) for index in range(devices)]
        self.stats = KeyCacheStats()
        #: Onboarded tenants (first placement done), each mapped to the bytes
        #: of its key set, sized once at onboarding.
        self._key_bytes: dict[str, int] = {}

    # -- queries -----------------------------------------------------------------

    def resident_devices(self, tenant: str) -> frozenset[int]:
        """Indices of the devices currently holding the tenant's keys."""
        return frozenset(cache.index for cache in self.devices if tenant in cache.resident)

    def resident_flags(self, tenant: str, indices: Sequence[int]) -> list[bool]:
        """Residency of ``tenant`` on each of ``indices``, in order.

        The mask the key-affinity sharding policy reads: aligned with the
        ``busy_until`` list the layout passes to
        :meth:`~repro.serve.sharding.ShardingPolicy.select`.
        """
        return [tenant in self.devices[index].resident for index in indices]

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
        dispatch.  A manager serves one parameter set: every ship and eviction
        charges the key-set size ``params`` gave at the tenant's onboarding.
        """
        protected = frozenset(tenants)  # a batch's own frozenset is not copied
        shipping = 0.0
        for tenant in sorted(protected):
            key_bytes = self._key_bytes.get(tenant)
            onboarding = key_bytes is None
            if onboarding:
                key_bytes = self._key_bytes[tenant] = self.interconnect.key_set_bytes(params)
                self.stats.onboards += 1
            ships = 0
            for index in targets:
                cache = self.devices[index]
                if cache.touch(tenant):
                    if not onboarding:
                        self.stats.hits += 1
                    continue
                if not onboarding:
                    ships += 1
                    self.stats.misses += 1
                    self.stats.shipped_bytes += key_bytes
                    if tenant in cache.ever_held:
                        self.stats.reships += 1
                cache.insert(tenant, key_bytes)
                self._enforce_budget(cache, protected)
            if ships:
                # One multiply per tenant, matching the historical
                # ``len(missing) * per_key_s`` arithmetic to the last bit.
                shipping += ships * self.interconnect.transfer_s(key_bytes)
        return shipping

    def evict_device(self, index: int) -> list[str]:
        """Reclaim every key set resident on ``index`` (the device died).

        Device death loses HBM contents: each resident tenant is evicted —
        counted against the ordinary ``evictions`` stat — and returned,
        sorted, so the fault injector can attribute the re-shipping those
        tenants pay when they land again.  The device still remembers it
        held them, so a return ship is priced as a re-ship by :meth:`place`.
        """
        evicted = self.devices[index].clear()
        self.stats.evictions += len(evicted)
        return evicted

    def _enforce_budget(self, cache: DeviceKeyCache, protected: frozenset[str]) -> None:
        """Evict until ``cache`` fits its budget (or only protected keys remain)."""
        while cache.over_budget:
            candidates = [tenant for tenant in cache.resident if tenant not in protected]
            victim = self.policy.victim(cache, candidates)
            if victim is None:
                return  # everything left is in use or pinned: overcommit
            cache.evict(victim, self._key_bytes[victim])
            self.stats.evictions += 1

    def reset(self) -> None:
        """Clear residency and counters between simulations."""
        self.devices = [DeviceKeyCache(cache.index, self.budget_bytes) for cache in self.devices]
        self._key_bytes.clear()
        self.stats = KeyCacheStats()
