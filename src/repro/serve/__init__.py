"""Multi-tenant FHE serving layer over a sharded Strix cluster.

The paper's throughput comes from streaming device×core epochs through the
accelerator; production traffic arrives as many small independent requests
from many tenants.  This package is the layer in between::

    tenants --> RequestQueue --> AdaptiveBatcher --> StrixCluster
                 (FIFO,           (flush on full      (N devices, sharding
                  per-tenant       or deadline)        policy, aggregation)
                  accounting)

* :class:`Server` — the facade: per-tenant key/session management and the
  entry points that feed a :class:`ServingRun`, the one serving engine —
  a whole trace (:meth:`Server.simulate`) or a streamed one
  (:meth:`Server.begin_run`) on the simulated clock, ``asyncio``
  submissions (:meth:`Server.submit_async`) on the wall clock;
* :class:`StrixCluster` — N simulated Strix devices with round-robin /
  least-loaded / affinity / key-affinity sharding, aggregating per-device
  results into one cluster-level :class:`~repro.runtime.result.RunResult`.
  *Where* work lands and *how long* it runs are pluggable through
  :mod:`repro.sched`: placement layouts (``"data-parallel"`` /
  ``"pipeline"`` / ``"elastic"``) and batch cost models (``"analytical"`` /
  ``"event"``).  Each device's HBM holds a *bounded* number of tenant
  BSK/KSK sets when ``key_budget_bytes`` is finite: the cluster's
  :class:`~repro.arch.key_cache.KeyResidencyManager` evicts under a
  pluggable policy (``"lru"`` / ``"lfu"`` / ``"pinned"``) and charges key
  re-shipping on the interconnect;
* :class:`AdaptiveBatcher` / :class:`RequestQueue` — epoch-sized coalescing
  with bounded tail latency and an optional weighted-fair-queuing QoS
  discipline (``qos="fair"``) so one flooding tenant cannot inflate every
  tenant's p99;
* :mod:`repro.serve.metrics` — p50/p99 latency (global and per tenant),
  throughput, queue depth, device utilization and dispatch-cost breakdowns
  (interconnect transfer, BSK/KSK key shipping);
* fault injection — pass ``faults=FaultSchedule.of(...)`` (see
  :mod:`repro.faults`) to serve through seeded device deaths, thermal
  throttles and interconnect partitions; the report grows an
  ``availability`` block and ``on_death="retry"|"drop"`` picks what
  happens to batches whose device dies under them;
* overload protection — pass ``admission="shed-oldest"`` (or
  ``"reject-newest"`` / ``"tenant-quota"``) with ``queue_capacity`` /
  ``tenant_capacity`` (see :mod:`repro.flow`) to shed or reject work a
  saturated server cannot finish; requests take an optional per-request
  ``deadline_s`` budget and the report grows an ``overload`` block;
* the ``"strix-cluster"`` runtime backend, so ``run(workload,
  backend="strix-cluster", devices=4, layout="pipeline")`` works from the
  PR 1 facade.

Quickstart::

    from repro.serve import Server
    from repro.apps.traffic import steady_trace

    server = Server(devices=4, policy="least-loaded", cost_model="event")
    report = server.simulate(
        steady_trace(rate_rps=2000, duration_s=0.5, seed=7), label="steady"
    )
    print(report.render())                 # p50/p99, PBS/s, device utilization
"""

from repro.sched import (
    AnalyticalCostModel,
    CostModel,
    DataParallelLayout,
    Dispatch,
    ElasticLayout,
    EventDrivenCostModel,
    PipelineLayout,
    PlacementLayout,
    get_cost_model,
    get_layout,
    list_cost_models,
    list_layouts,
)
from repro.faults import FaultEvent, FaultKind, FaultSchedule, RequestLostError
# Imported from the submodules (not the repro.flow package) so that
# ``import repro.flow`` as the *first* repro import works: flow's package
# __init__ pulls QueueOverflowError from repro.serve.queue, which runs this
# module while repro.flow is still only partially bound.
from repro.flow.admission import (
    AdmissionPolicy,
    get_admission_policy,
    list_admission_policies,
)
from repro.flow.control import DeadlineExceededError, RequestRejectedError
from repro.serve.backend import StrixClusterBackend
from repro.serve.batcher import AdaptiveBatcher, Batch
from repro.serve.cluster import (
    CLUSTER_BACKEND_NAME,
    DeviceShardResult,
    StrixCluster,
    StrixDevice,
)
from repro.serve.metrics import (
    LatencySummary,
    MetricsCollector,
    ServeMetrics,
    ServeSnapshot,
    percentile,
)
from repro.serve.queue import QueueOverflowError, RequestQueue
from repro.serve.request import Request, RequestKind, RequestOutcome, pbs_per_item
from repro.serve.server import (
    RunActiveError,
    Server,
    ServeConfig,
    ServeReport,
    ServingRun,
    TenantState,
)
from repro.serve.sharding import (
    AffinityPolicy,
    KeyAffinityPolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    ShardingPolicy,
    get_policy,
    list_policies,
)

__all__ = [
    "AdaptiveBatcher",
    "AdmissionPolicy",
    "AffinityPolicy",
    "AnalyticalCostModel",
    "Batch",
    "CLUSTER_BACKEND_NAME",
    "CostModel",
    "DataParallelLayout",
    "DeadlineExceededError",
    "DeviceShardResult",
    "Dispatch",
    "ElasticLayout",
    "EventDrivenCostModel",
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "KeyAffinityPolicy",
    "LatencySummary",
    "LeastLoadedPolicy",
    "MetricsCollector",
    "PipelineLayout",
    "PlacementLayout",
    "QueueOverflowError",
    "Request",
    "RequestKind",
    "RequestLostError",
    "RequestOutcome",
    "RequestQueue",
    "RequestRejectedError",
    "RoundRobinPolicy",
    "RunActiveError",
    "ServeConfig",
    "ServeMetrics",
    "ServeReport",
    "ServeSnapshot",
    "Server",
    "ServingRun",
    "ShardingPolicy",
    "StrixCluster",
    "StrixClusterBackend",
    "StrixDevice",
    "TenantState",
    "get_admission_policy",
    "get_cost_model",
    "get_layout",
    "get_policy",
    "list_admission_policies",
    "list_cost_models",
    "list_layouts",
    "list_policies",
    "pbs_per_item",
    "percentile",
]
