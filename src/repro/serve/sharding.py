"""Sharding policies: how work spreads over the cluster's devices.

Two decisions are delegated to a policy:

* :meth:`ShardingPolicy.partition` — splitting one large workload's
  ciphertexts across **all** devices (data-parallel sharding of a
  computation graph); the base class's balanced split is the one value
  in use, a policy may override it;
* :meth:`ShardingPolicy.select` — picking **one** device for a flushed
  serving batch (each batch is a single device's epoch stream).

Four policies ship: ``round-robin`` (rotating dispatch), ``least-loaded``
(dispatch to the device that frees up first), ``affinity`` (tenant-sticky
dispatch so a tenant's bootstrapping keys stay resident on one device's
HBM) and ``key-affinity`` (dispatch to the least-loaded device *currently
holding* the tenant's keys, read from the cluster's key-residency manager —
the policy that stays cheap when a finite key-memory budget starts
evicting).

Dispatch decisions may consult key residency: the placement layout passes
``select`` a ``resident`` mask — one flag per candidate device, true where
the batch's lead tenant's BSK/KSK set is already resident — and policies
are free to ignore it (all but ``key-affinity`` do).
"""

from __future__ import annotations

import abc
import zlib

from repro.errors import UnknownPolicyError
from repro.registry import Registry
from repro.serve.batcher import Batch


class ShardingPolicy(abc.ABC):
    """Strategy for partitioning and dispatching work across devices."""

    #: Registry name of the policy.
    name: str = ""

    def partition(self, items: int, devices: int, *, offset: int = 0) -> list[int]:
        """Per-device item counts for sharding one workload (sums to ``items``).

        The default — what every shipped policy uses, since identical
        devices have identical throughput and one workload has no tenant
        axis — is ``devices`` near-equal shares.  The remainder lands on
        consecutive devices starting at ``offset`` so repeated splits (one
        per graph node) do not pile every leftover ciphertext onto device 0.
        """
        base, remainder = divmod(items, devices)
        return [
            base + (1 if (index - offset) % devices < remainder else 0)
            for index in range(devices)
        ]

    @abc.abstractmethod
    def select(
        self,
        busy_until: list[float],
        batch: Batch,
        resident: list[bool] | None = None,
    ) -> int:
        """Device index that should execute a flushed serving batch.

        ``resident`` (when provided by the layout) flags, per candidate
        device, whether the batch's lead tenant's keys are already resident
        there; key-residency-aware policies prefer those devices to avoid
        BSK/KSK shipping, all others ignore the mask.
        """

    def reset(self) -> None:
        """Clear dispatch state between simulations (default: stateless)."""


class RoundRobinPolicy(ShardingPolicy):
    """Dispatch cycles through the devices in order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(
        self,
        busy_until: list[float],
        batch: Batch,
        resident: list[bool] | None = None,
    ) -> int:
        device = self._next % len(busy_until)
        self._next += 1
        return device

    def reset(self) -> None:
        self._next = 0


class LeastLoadedPolicy(ShardingPolicy):
    """Dispatch to the device that frees up first.

    The policy earns its name on the dispatch path, where device busy
    horizons diverge under uneven batch sizes.
    """

    name = "least-loaded"

    def select(
        self,
        busy_until: list[float],
        batch: Batch,
        resident: list[bool] | None = None,
    ) -> int:
        return min(range(len(busy_until)), key=busy_until.__getitem__)


class AffinityPolicy(ShardingPolicy):
    """Tenant-sticky dispatch: one tenant's batches land on one device.

    Keeps a tenant's bootstrapping/keyswitching keys resident in a single
    device's HBM instead of replicating them cluster-wide.  Multi-tenant
    batches follow the first (oldest) request's tenant.
    """

    name = "affinity"

    def select(
        self,
        busy_until: list[float],
        batch: Batch,
        resident: list[bool] | None = None,
    ) -> int:
        tenant = batch.requests[0].tenant
        return zlib.crc32(tenant.encode()) % len(busy_until)


class KeyAffinityPolicy(ShardingPolicy):
    """Prefer devices where the tenant's keys are already resident.

    The residency-aware refinement of ``affinity``: instead of a static
    tenant→device hash, dispatch follows the *actual* key placement the
    cluster's :class:`~repro.arch.key_cache.KeyResidencyManager` tracks —
    the least-loaded device among those already holding the lead tenant's
    BSK/KSK set.  When no device holds them (first placement, or the budget
    evicted them everywhere) it falls back to plain least-loaded, pays the
    one ship, and subsequent batches stick to that device.  Under a finite
    key-memory budget this is the policy that keeps hit rates high without
    hard-pinning tenants the way the hash policy does.
    """

    name = "key-affinity"

    def select(
        self,
        busy_until: list[float],
        batch: Batch,
        resident: list[bool] | None = None,
    ) -> int:
        candidates = range(len(busy_until))
        if resident is not None and any(resident):
            candidates = [index for index in candidates if resident[index]]
        return min(candidates, key=busy_until.__getitem__)


_POLICIES: Registry[ShardingPolicy] = Registry(
    UnknownPolicyError,
    ShardingPolicy,
    (RoundRobinPolicy, LeastLoadedPolicy, AffinityPolicy, KeyAffinityPolicy),
)

#: Names of all sharding policies, sorted.
list_policies = _POLICIES.names


def get_policy(policy: str | ShardingPolicy) -> ShardingPolicy:
    """Resolve a policy name (or pass an instance through).

    Raises :class:`~repro.errors.UnknownPolicyError` for unknown names —
    the shared did-you-mean shape (registered names listed, picklable,
    plain-sentence rendering), still a ``ValueError`` for historical
    callers.
    """
    return _POLICIES.get(policy)
