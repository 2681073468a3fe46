"""Sharding policies: which device runs each flushed serving batch.

A policy makes one decision, :meth:`ShardingPolicy.select`: picking **one**
device for a flushed serving batch (each batch is a single device's epoch
stream).  Splitting one large workload's ciphertexts across **all** devices
is no policy's choice: identical devices take balanced shares
(``repro.sched.layouts``).

Three policies ship: ``round-robin`` (rotating dispatch), ``least-loaded``
(dispatch to the device that frees up first) and ``key-affinity``
(dispatch to the least-loaded device *currently holding* the tenant's
keys, read from the cluster's key-residency manager — the policy that
stays cheap when a finite key-memory budget starts evicting).

Dispatch decisions may consult key residency: the placement layout passes
``select`` a ``resident`` mask — one flag per candidate device, true where
the batch's lead tenant's BSK/KSK set is already resident — and policies
are free to ignore it (all but ``key-affinity`` do).
"""

from __future__ import annotations

import abc

from repro.errors import UnknownPolicyError
from repro.registry import Registry
from repro.serve.batcher import Batch


class ShardingPolicy(abc.ABC):
    """Strategy for dispatching serving batches across devices."""

    #: Registry name of the policy.
    name: str = ""

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


class KeyAffinityPolicy(ShardingPolicy):
    """Prefer devices where the tenant's keys are already resident.

    Dispatch follows the *actual* key placement the cluster's
    :class:`~repro.arch.key_cache.KeyResidencyManager` tracks — the
    least-loaded device among those already holding the lead tenant's
    BSK/KSK set.  When no device holds them (first placement, or the budget
    evicted them everywhere) it falls back to plain least-loaded, pays the
    one ship, and subsequent batches stick to that device.  Under a finite
    key-memory budget this is the policy that keeps hit rates high.
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
    (RoundRobinPolicy, LeastLoadedPolicy, KeyAffinityPolicy),
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
