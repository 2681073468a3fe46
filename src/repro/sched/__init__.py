"""Unified scheduling core shared by the simulator and serving paths.

Two orthogonal seams, both string-registered and pluggable:

* **Cost models** (:mod:`repro.sched.cost`) price a serving batch on one
  device: :class:`AnalyticalCostModel` keeps the closed-form epoch-stream
  arithmetic (``pbs_batch_time_ms``) as the fast default, while
  :class:`EventDrivenCostModel` lowers the batch's real request composition
  to a computation graph and runs the cycle-level
  :class:`~repro.sim.scheduler.StrixScheduler` on it, so per-epoch
  keyswitch overlap and epoch fragmentation become visible in serving
  latency.  :class:`ScheduleCache` (:mod:`repro.sched.memo`) memoizes the
  event model by request-mix signature × parameter set × device geometry,
  so repeated batch shapes price in dictionary-lookup time — it is what
  the registry builds for ``"event"``.
* **Placement layouts** (:mod:`repro.sched.layouts`) decide *where* work
  lands on the cluster: :class:`DataParallelLayout` (every device runs every
  layer; one batch → one device), :class:`PipelineLayout` (stage-per-device
  for deep LUT pipelines, charging inter-stage ciphertext transfers) and
  :class:`ElasticLayout` (autoscaling the active device count from
  queue-backlog signals with a configurable scale-up latency).  All
  layouts charge BSK/KSK key shipping through the cluster's
  :class:`~repro.arch.key_cache.KeyResidencyManager`, which under a finite
  per-device key-memory budget also evicts cold tenants' keys and prices
  the re-shipping on the shared
  :class:`~repro.arch.interconnect.InterconnectModel`.

The invariant tying everything back to the paper: one device, the
data-parallel layout, the analytical cost model, zero overheads and an
unbounded key budget reproduce the single-device simulator numbers
bit-for-bit.
"""

from repro.sched.cost import (
    AnalyticalCostModel,
    BatchCost,
    CostModel,
    EventDrivenCostModel,
    batch_graph,
    batch_mix_signature,
    get_cost_model,
    list_cost_models,
)
from repro.sched.layouts import (
    DataParallelLayout,
    Dispatch,
    ElasticLayout,
    PipelineLayout,
    PlacementLayout,
    get_layout,
    list_layouts,
)
from repro.sched.memo import (
    DEFAULT_COST_CACHE_CAPACITY,
    ScheduleCache,
    graph_signature,
)
from repro.sched.partition import StagePlan, partition_graph_stages

__all__ = [
    "AnalyticalCostModel",
    "BatchCost",
    "CostModel",
    "DEFAULT_COST_CACHE_CAPACITY",
    "DataParallelLayout",
    "Dispatch",
    "ElasticLayout",
    "EventDrivenCostModel",
    "PipelineLayout",
    "PlacementLayout",
    "ScheduleCache",
    "StagePlan",
    "batch_graph",
    "batch_mix_signature",
    "get_cost_model",
    "get_layout",
    "graph_signature",
    "list_cost_models",
    "list_layouts",
    "partition_graph_stages",
]
