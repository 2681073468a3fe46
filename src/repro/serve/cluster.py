"""A sharded multi-device Strix cluster.

One Strix chip saturates at ``TvLP × core-batch`` ciphertexts per epoch; the
serving tier the ROADMAP asks for needs more.  :class:`StrixCluster` models
``N`` identical chips behind one host.  *Where* work lands is delegated to a
pluggable :class:`~repro.sched.layouts.PlacementLayout` (data-parallel /
pipeline / elastic) and *how long* a serving batch occupies its device to a
pluggable :class:`~repro.sched.cost.CostModel` (closed-form analytical or
event-driven on the cycle-level scheduler, the latter memoized by a
:class:`~repro.sched.memo.ScheduleCache` so repeated batch shapes price in
dictionary-lookup time); both paths share the
:class:`~repro.arch.interconnect.InterconnectModel` for ciphertext and
BSK/KSK key-shipping traffic, and every dispatch funnels its targets
through the cluster's :class:`~repro.arch.key_cache.KeyResidencyManager`,
which tracks which devices hold which tenants' keys and — under a finite
``key_budget_bytes`` — evicts and charges re-shipping:

* :meth:`run` — one large workload across the devices: the layout shards it
  (data-parallel: per-node ciphertext splits; pipeline: stage-per-device)
  and aggregates per-device schedules into a cluster-level
  :class:`~repro.runtime.result.RunResult`.
* :meth:`dispatch` — the serving path: a flushed :class:`Batch` executes
  where the layout places it and occupies those devices for the cost
  model's service time; per-device busy horizons are the load signal the
  least-loaded policy (and the elastic layout's autoscaler) read.

With one device, the data-parallel layout, the analytical cost model and
the default (zero) dispatch overhead the cluster degenerates to the
single-device simulator bit-for-bit, which is what ties cluster results
back to the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.accelerator import StrixAccelerator
from repro.arch.config import StrixClusterConfig
from repro.arch.energy import EnergyModel
from repro.arch.interconnect import InterconnectModel
from repro.arch.key_cache import KeyEvictionPolicy, KeyResidencyManager
from repro.faults import FaultInjector, FaultSchedule
from repro.params import PARAM_SET_I, TFHEParameters
from repro.runtime.result import RunResult
from repro.runtime.workload import WorkloadLike, resolve_params
from repro.sched.cost import CostModel, get_cost_model
from repro.sched.layouts import (
    DeviceShardResult,
    Dispatch,
    PlacementLayout,
    get_layout,
)
from repro.serve.batcher import Batch
from repro.serve.sharding import ShardingPolicy, get_policy
from repro.sim.scheduler import StrixScheduler

#: Name under which the cluster registers in the runtime backend registry.
CLUSTER_BACKEND_NAME = "strix-cluster"

__all__ = [
    "CLUSTER_BACKEND_NAME",
    "DeviceShardResult",
    "StrixCluster",
    "StrixDevice",
    "resolve_cluster_params",
]


@dataclass
class StrixDevice:
    """One chip of the cluster plus its serving-time state."""

    index: int
    accelerator: StrixAccelerator
    scheduler: StrixScheduler
    energy_model: EnergyModel
    #: Simulated time at which the device finishes its last accepted batch.
    busy_until: float = 0.0
    #: Accumulated busy seconds (for utilization over a horizon).
    busy_s: float = 0.0
    #: Serving batches and bootstraps this device executed.
    batches: int = 0
    pbs: int = 0

    def reset_serving_state(self) -> None:
        """Clear the busy horizon and counters between simulations."""
        self.busy_until = 0.0
        self.busy_s = 0.0
        self.batches = 0
        self.pbs = 0


class StrixCluster:
    """``N`` simulated Strix devices behind one placement layout."""

    #: Runtime-registry name reported in cluster-level :class:`RunResult`\ s.
    backend_name = CLUSTER_BACKEND_NAME

    def __init__(
        self,
        devices: int = 4,
        policy: str | ShardingPolicy = "round-robin",
        config: StrixClusterConfig = StrixClusterConfig(),
        layout: str | PlacementLayout = "data-parallel",
        cost_model: str | CostModel = "analytical",
        key_budget_bytes: float | None = None,
        key_policy: "str | KeyEvictionPolicy" = "lru",
        faults: FaultSchedule | None = None,
        on_death: str = "retry",
    ):
        """Build ``devices`` identical chips of ``config.device`` behind one layout.

        ``faults`` is the deterministic fault plan serving replays under
        (see :mod:`repro.faults`); ``None`` — and the explicit
        :meth:`~repro.faults.FaultSchedule.empty` — keep every dispatch on
        the historical fast path, byte-for-byte.  ``on_death`` decides what
        happens to a batch whose device dies mid-execution: ``"retry"``
        (default) replays it onto a survivor from the failure instant,
        ``"drop"`` counts its requests as lost.

        ``key_budget_bytes`` (``None`` = unbounded) and ``key_policy`` go to
        the :class:`~repro.arch.key_cache.KeyResidencyManager`, which holds
        them; a policy instance — e.g. a
        :class:`~repro.arch.key_cache.PinnedTenantPolicy` with a pinned
        set — is used as given.

        A ``cost_model`` given by *name* comes from the registry, where
        ``"event"`` is already memoized: a
        :class:`~repro.sched.memo.ScheduleCache` of
        :data:`~repro.sched.memo.DEFAULT_COST_CACHE_CAPACITY` entries
        (memoized batch pricing is bit-for-bit identical).  A cost-model
        *instance* is used as given: ``EventDrivenCostModel()`` is the
        unmemoized bypass, ``ScheduleCache(capacity=n)`` a sized cache.
        """
        if devices < 1:
            raise ValueError("a cluster needs at least one device")
        self.config = config
        self.policy = get_policy(policy)
        self.layout = get_layout(layout)
        #: Tracer notified on every serving dispatch (``None`` = tracing off);
        #: installed by :meth:`repro.serve.Server.enable_tracing`.
        self.tracer = None
        self.cost_model = get_cost_model(cost_model)
        #: Fault resolver (active only when a non-empty schedule is given).
        self.faults = FaultInjector(
            faults if faults is not None else FaultSchedule.empty(),
            on_death=on_death,
        )
        self.interconnect = InterconnectModel(config)
        self.key_residency = KeyResidencyManager(
            devices=devices,
            interconnect=self.interconnect,
            budget_bytes=key_budget_bytes,
            policy=key_policy,
        )
        self.devices = [
            StrixDevice(
                index=index,
                accelerator=(accelerator := StrixAccelerator(config.device)),
                scheduler=StrixScheduler(accelerator),
                energy_model=EnergyModel(accelerator),
            )
            for index in range(devices)
        ]

    def __len__(self) -> int:
        return len(self.devices)

    def available_indices(self, now: float) -> list[int]:
        """Device indices accepting placement at ``now``.

        Every index when no fault is scheduled (the common case — one list
        build, no schedule scan); under a schedule, dead devices are
        excluded for the duration of their deaths.
        """
        if not self.faults.active:
            return list(range(len(self.devices)))
        return self.faults.schedule.available_indices(now, len(self.devices))

    # -- sharded workload execution ----------------------------------------------

    def run(
        self,
        workload: WorkloadLike,
        params: TFHEParameters | str | None = None,
        instances: int = 1,
    ) -> RunResult:
        """Execute one workload across all devices, placed by the layout.

        Under the data-parallel (and elastic) layout, netlists replicated
        over ``instances`` shard at instance granularity and everything
        else lowers to a computation graph whose per-node ciphertexts are
        split into balanced per-device shares; the pipeline layout instead
        cuts the graph's dependency levels into one stage per device.
        """
        return self.layout.run_workload(self, workload, params, instances)

    # -- serving path ------------------------------------------------------------

    def batch_service_s(self, batch: Batch, params: TFHEParameters) -> float:
        """Test reference: the time one device needs to execute a serving batch.

        The cost model prices the compute residency (bootstraps streaming
        through the epoch pipeline, PBS-free encryption traffic on the
        host-side vector pipeline); shipping the batch's ciphertexts to the
        device is charged against the cluster interconnect.
        """
        cost = self.cost_model.batch_cost(batch, params, self.devices[0])
        transfer_s = self.interconnect.ciphertext_transfer_s(params, batch.total_items)
        return cost.compute_s + transfer_s + self.config.dispatch_overhead_s

    def dispatch(self, batch: Batch, now: float, params: TFHEParameters) -> Dispatch:
        """Execute a batch where the layout places it.

        Returns a :class:`~repro.sched.layouts.Dispatch` carrying the
        execution window and the cost breakdown — transfer, dispatch
        overhead, key shipping, per-stage detail under the pipeline layout.

        With a non-empty fault schedule the dispatch routes through the
        cluster's :class:`~repro.faults.FaultInjector`, which excludes
        dead devices, replays (or drops) batches killed by a
        device death, and accounts the availability impact; the returned
        dispatch then carries ``retried`` / ``lost`` flags.
        """
        if self.faults.active:
            dispatch = self.faults.run(self, batch, now, params)
        else:
            dispatch = self.layout.dispatch(self, batch, now, params)
        if self.tracer is not None:
            self.tracer.on_dispatch(batch, dispatch)
        return dispatch

    def reset_serving_state(self) -> None:
        """Clear every device's busy horizon and counters (and policy,
        layout, cost-model and key-residency state), so repeated
        simulations on one cluster are deterministic."""
        for device in self.devices:
            device.reset_serving_state()
        self.policy.reset()
        self.layout.reset()
        self.cost_model.reset()
        self.key_residency.reset()
        self.faults.reset()

    @property
    def key_cache_stats(self) -> dict[str, int]:
        """Key-residency counters of the current simulation (see
        :class:`~repro.arch.key_cache.KeyCacheStats`)."""
        return self.key_residency.stats.to_dict()

    @property
    def cost_cache_stats(self) -> dict[str, int]:
        """Schedule-cache counters of the cost model (empty when the model
        doesn't memoize — e.g. the analytical default)."""
        return self.cost_model.cache_stats

    def device_utilization(self, horizon_s: float) -> dict[str, float]:
        """Busy fraction of every device over a serving horizon."""
        if horizon_s <= 0:
            return {f"dev{device.index}": 0.0 for device in self.devices}
        return {
            f"dev{device.index}": min(device.busy_s / horizon_s, 1.0)
            for device in self.devices
        }


def resolve_cluster_params(params: TFHEParameters | str | None) -> TFHEParameters:
    """Resolve the parameter set serving operates under (set I by default)."""
    return resolve_params(params, PARAM_SET_I)
