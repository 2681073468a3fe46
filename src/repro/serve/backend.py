"""``"strix-cluster"``: the sharded cluster as a runtime backend.

Registers the multi-device cluster in the :mod:`repro.runtime` registry so
the PR 1 facade targets it transparently::

    from repro import run

    result = run("NN-20", backend="strix-cluster", devices=4)
    deep = run("NN-100", backend="strix-cluster", devices=4, layout="pipeline")

``devices`` / ``policy`` / ``layout`` ride along as run options (every
other backend ignores them), so the same call site scales from one chip to
a rack and from data-parallel sharding to stage-per-device pipelining.
"""

from __future__ import annotations

from typing import Any

from repro.arch.config import StrixClusterConfig
from repro.params import TFHEParameters
from repro.runtime.backend import Backend, register_backend
from repro.runtime.result import RunResult
from repro.runtime.session import Session
from repro.runtime.workload import WorkloadLike
from repro.sched.layouts import PlacementLayout
from repro.serve.cluster import CLUSTER_BACKEND_NAME, StrixCluster
from repro.serve.sharding import ShardingPolicy


class StrixClusterBackend(Backend):
    """Executes workloads sharded across a simulated Strix cluster."""

    name = CLUSTER_BACKEND_NAME

    def __init__(
        self,
        devices: int = 4,
        policy: str | ShardingPolicy = "round-robin",
        config: StrixClusterConfig = StrixClusterConfig(),
        layout: str | PlacementLayout = "data-parallel",
    ):
        self.cluster = StrixCluster(devices=devices, policy=policy, config=config, layout=layout)

    def run(
        self,
        workload: WorkloadLike,
        *,
        params: TFHEParameters | str | None = None,
        session: Session | None = None,
        inputs: Any = None,
        instances: int = 1,
        devices: int | None = None,
        policy: str | ShardingPolicy | None = None,
        layout: str | PlacementLayout | None = None,
        **options: Any,
    ) -> RunResult:
        """Shard ``workload`` across the cluster's devices.

        ``devices`` / ``policy`` / ``layout`` given at the call site
        re-shape the cluster for this run (the registry instantiates the
        backend with defaults, so per-call overrides are how
        ``run(..., devices=4, layout="pipeline")`` works); ``inputs``
        is ignored — the cluster is a performance model, use the
        ``"reference"`` backend for functional execution.
        """
        cluster = self.cluster
        reshaped = (
            (devices is not None and devices != len(cluster.devices))
            or policy is not None
            or layout is not None
        )
        if reshaped:
            cluster = StrixCluster(
                devices=devices if devices is not None else len(cluster.devices),
                # Pass the instances through (not their registry names) so
                # custom policy/layout objects survive per-call reshaping.
                policy=policy if policy is not None else cluster.policy,
                config=cluster.config,
                layout=layout if layout is not None else cluster.layout,
            )
        return cluster.run(workload, params=params, instances=instances)


register_backend(StrixClusterBackend.name, StrixClusterBackend)
