"""Placement layouts: how work lands on the cluster's devices.

A layout owns both execution paths of a :class:`~repro.serve.cluster
.StrixCluster`:

* the **serving path** (:meth:`PlacementLayout.dispatch`) — where a flushed
  batch executes, which devices it occupies and for how long;
* the **one-shot path** (:meth:`PlacementLayout.run_workload`) — how one
  large workload spreads over the devices and aggregates into a
  :class:`~repro.runtime.result.RunResult`.

Three layouts ship:

* ``data-parallel`` — every device can run every layer; a batch goes whole
  to one device (chosen by the sharding policy) and one-shot workloads
  shard per-node across all devices.  This is the pre-refactor behaviour:
  with one device, zero overheads and the analytical cost model it
  reproduces the single-device simulator bit-for-bit.
* ``pipeline`` — stage-per-device: the workload's dependency levels are cut
  into contiguous stages, one per device, and ciphertexts crossing a stage
  boundary are charged on the cluster interconnect.  Trades the
  data-parallel layout's straggler imbalance for inter-device transfer —
  the right trade for deep LUT pipelines whose layers don't fill a chip.
* ``elastic`` — data-parallel dispatch over an *autoscaled* subset of
  devices: the active count grows when the least-loaded active device's
  backlog exceeds a threshold (after a configurable scale-up latency —
  freshly provisioned devices are not instantly useful) and shrinks when
  the fleet has been idle.

Every layout charges BSK/KSK **key shipping** through the cluster's
:class:`~repro.arch.key_cache.KeyResidencyManager` when a tenant's batch
lands on a device that does not hold its keys.  The *first* placement is
free (keys are provisioned at onboarding), so single-device clusters — and
tenant-sticky policies — never pay it; under a finite per-device key-memory
budget the manager additionally evicts cold tenants and charges the
re-shipping when they return.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.errors import UnknownLayoutError
from repro.params import TFHEParameters
from repro.registry import Registry
from repro.runtime.result import RunResult
from repro.runtime.workload import WorkloadLike, as_graph, as_netlist
from repro.sched.cost import batch_graph
from repro.sched.partition import partition_graph_stages
from repro.sim.compiler import Netlist, compile_netlist
from repro.sim.graph import ComputationGraph, ComputationNode

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.serve.batcher import Batch
    from repro.serve.cluster import StrixCluster


@dataclass(frozen=True)
class StageDispatch:
    """One pipeline stage's slice of a dispatched batch."""

    device: int
    start_s: float
    end_s: float
    compute_s: float
    transfer_in_s: float
    pbs: int


class Dispatch(NamedTuple):
    """Where and when one serving batch executed.

    A named tuple — one is built per dispatched batch, and a tuple is the
    cheapest record that callers still cannot assign to; copies with a field
    changed come from ``_replace``.  ``device`` is the device that
    *completes* the batch (the last stage under the pipeline layout), and
    ``breakdown`` the dispatch's cost components in the order they were
    summed — :class:`~repro.serve.metrics.MetricsCollector` folds them into
    the report's ``cost_breakdown``.

    Under a fault schedule (see :mod:`repro.faults`) ``retried`` marks a
    batch that was replayed after a device death and ``lost`` marks one
    that produced no outcomes at all (``end_s`` is then the failure
    instant, and ``device`` is ``-1`` when no device ever accepted it).
    """

    device: int
    start_s: float
    end_s: float
    devices: tuple[int, ...]
    breakdown: dict[str, float]
    stages: tuple[StageDispatch, ...] = ()
    retried: bool = False
    lost: bool = False

    def windows(self) -> list[tuple[int, float, float]]:
        """``(device, start_s, end_s)`` per execution window: one per stage, else the one."""
        if self.stages:
            return [(stage.device, stage.start_s, stage.end_s) for stage in self.stages]
        return [(self.device, self.start_s, self.end_s)]


@dataclass(frozen=True)
class DeviceShardResult:
    """One device's contribution to a sharded workload run."""

    device: int
    latency_s: float
    pbs: int
    epochs: int
    utilization: dict[str, float]
    energy_j: float


class PlacementLayout(abc.ABC):
    """Strategy for placing serving batches and one-shot workloads.

    Subclasses implement :meth:`dispatch` (the serving path) and may
    override :meth:`run_workload` (the one-shot path).  Key residency is
    *not* layout state: every layout funnels its dispatch targets through
    the cluster's :class:`~repro.arch.key_cache.KeyResidencyManager`, so
    budgets, eviction and the hit/miss counters behave identically under
    every layout.
    """

    #: Registry name of the layout.
    name = ""

    @abc.abstractmethod
    def dispatch(
        self,
        cluster: "StrixCluster",
        batch: "Batch",
        now: float,
        params: TFHEParameters,
    ) -> Dispatch:
        """Execute ``batch`` on the cluster, updating device busy horizons."""

    def run_workload(
        self,
        cluster: "StrixCluster",
        workload: WorkloadLike,
        params: "TFHEParameters | str | None",
        instances: int,
    ) -> RunResult:
        """Execute one large workload across the cluster.

        The default is the data-parallel run: every node of the workload is
        sharded across all devices (only ``pipeline`` places it otherwise).
        """
        if isinstance(workload, Netlist) and instances > 1:
            resolved = as_netlist(workload, params)
            shards = _shard_netlist(cluster, resolved, instances)
            # compile_netlist names the full graph f"{name}-x{instances}";
            # match it without compiling the whole replicated netlist again.
            name = f"{resolved.name}-x{instances}"
            workload_params = resolved.params
        else:
            full_graph = as_graph(workload, params, instances)
            shards = _shard_graph(cluster, full_graph)
            name = full_graph.name
            workload_params = full_graph.params
        return _run_shards(cluster, name, workload_params, shards, self.name)

    def reset(self) -> None:
        """Clear placement state between simulations (default: stateless)."""

    @property
    def runtime_stats(self) -> dict[str, float]:
        """Live placement state for the metrics registry's layout view.

        Stateless layouts report nothing; the elastic layout surfaces its
        autoscaling counters.  Sampled at metrics-collection time, so a
        scrape mid-run sees the current fleet, not an end-of-run summary.
        """
        return {}

    def _dispatch_to_device(
        self,
        cluster: "StrixCluster",
        batch: "Batch",
        now: float,
        params: TFHEParameters,
        index: int,
        effective_busy: float,
    ) -> Dispatch:
        """Price and book one whole batch onto one device.

        The single-device service arithmetic shared by the data-parallel
        and elastic layouts: cost-model compute, ciphertext transfer,
        dispatch overhead and key shipping — summed in exactly this order,
        which is what keeps the one-device analytical case bit-for-bit with
        the historical serving tier.
        """
        device = cluster.devices[index]
        cost = cluster.cost_model.batch_cost(batch, params, device)
        transfer_s = cluster.interconnect.ciphertext_transfer_s(
            params, batch.total_items
        )
        overhead_s = cluster.config.dispatch_overhead_s
        shipping_s = cluster.key_residency.place(batch.tenants, (index,), params)
        service = cost.compute_s + transfer_s + overhead_s + shipping_s
        start = max(now, effective_busy)
        end = start + service
        device.busy_until = end
        device.busy_s += service
        device.batches += 1
        device.pbs += batch.total_pbs
        breakdown = {
            **cost.breakdown,
            "transfer_s": transfer_s,
            "dispatch_s": overhead_s,
            "key_shipping_s": shipping_s,
        }
        return Dispatch(index, start, end, (index,), breakdown)


# -- data-parallel shard execution (shared by data-parallel and elastic runs) --------


def _balanced_shares(items: int, devices: int, offset: int = 0) -> list[int]:
    """Per-device item counts for sharding one workload (sums to ``items``).

    Identical devices have identical throughput and one workload has no
    tenant axis, so the split is ``devices`` near-equal shares.  The
    remainder lands on consecutive devices starting at ``offset`` so
    repeated splits (one per graph node) do not pile every leftover
    ciphertext onto device 0.
    """
    base, remainder = divmod(items, devices)
    return [
        base + (1 if (index - offset) % devices < remainder else 0) for index in range(devices)
    ]


def _shard_netlist(
    cluster: "StrixCluster", netlist: Netlist, instances: int
) -> list[ComputationGraph | None]:
    """Shard a replicated netlist at instance granularity."""
    shares = _balanced_shares(instances, len(cluster.devices))
    return [
        compile_netlist(netlist, share) if share > 0 else None for share in shares
    ]


def _shard_graph(
    cluster: "StrixCluster", graph: ComputationGraph
) -> list[ComputationGraph | None]:
    """Split every node's ciphertexts across the devices.

    Zero-ciphertext nodes are kept in place (the epoch scheduler costs them
    at zero), so the dependency structure never needs rewiring and every
    device sees the same critical-path shape.
    """
    device_count = len(cluster.devices)
    shards = [
        ComputationGraph(graph.params, name=f"{graph.name}@dev{index}")
        for index in range(device_count)
    ]
    totals = [0] * device_count
    for node_index, node in enumerate(graph.nodes):
        shares = _balanced_shares(node.ciphertexts, device_count, node_index)
        for device_index, share in enumerate(shares):
            totals[device_index] += share
            shards[device_index].add_node(
                ComputationNode(
                    name=node.name,
                    kind=node.kind,
                    ciphertexts=share,
                    operations_per_ciphertext=node.operations_per_ciphertext,
                    depends_on=list(node.depends_on),
                )
            )
    return [shard if total > 0 else None for shard, total in zip(shards, totals)]


def _run_shards(
    cluster: "StrixCluster",
    name: str,
    params: TFHEParameters,
    shards: list[ComputationGraph | None],
    layout: str,
) -> RunResult:
    per_device: list[DeviceShardResult] = []
    utilization: dict[str, float] = {}
    for device, shard in zip(cluster.devices, shards):
        if shard is None:
            continue
        schedule = device.scheduler.run(shard)
        energy = device.energy_model.workload_energy_j(schedule.total_time_s)
        per_device.append(
            DeviceShardResult(
                device=device.index,
                latency_s=schedule.total_time_s,
                pbs=schedule.total_pbs,
                epochs=schedule.total_epochs,
                utilization=dict(schedule.core_utilization),
                energy_j=energy,
            )
        )
        for core, value in schedule.core_utilization.items():
            utilization[f"dev{device.index}/{core}"] = value

    latencies = [entry.latency_s for entry in per_device]
    slowest = max(latencies, default=0.0)
    mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
    total_latency = slowest + cluster.config.dispatch_overhead_s
    total_energy = sum(entry.energy_j for entry in per_device)
    return RunResult(
        workload=name,
        backend=cluster.backend_name,
        parameter_set=params.name,
        latency_s=total_latency,
        pbs_count=sum(entry.pbs for entry in per_device),
        utilization=utilization,
        energy_j=total_energy,
        details={
            "devices": len(cluster.devices),
            "active_devices": len(per_device),
            "policy": cluster.policy.name,
            "layout": layout,
            "epochs": sum(entry.epochs for entry in per_device),
            "per_device": per_device,
            "straggler": {
                "slowest_s": slowest,
                "mean_s": mean_latency,
                "straggler_s": slowest - mean_latency,
                "imbalance": slowest / mean_latency if mean_latency > 0 else 0.0,
            },
        },
    )


class DataParallelLayout(PlacementLayout):
    """Every device runs every layer; one batch occupies one device."""

    name = "data-parallel"

    def dispatch(
        self,
        cluster: "StrixCluster",
        batch: "Batch",
        now: float,
        params: TFHEParameters,
    ) -> Dispatch:
        indices = cluster.available_indices(now)
        busy_until = [cluster.devices[index].busy_until for index in indices]
        resident = cluster.key_residency.resident_flags(
            batch.requests[0].tenant, indices
        )
        index = indices[cluster.policy.select(busy_until, batch, resident=resident)]
        return self._dispatch_to_device(
            cluster, batch, now, params, index, cluster.devices[index].busy_until
        )


class PipelineLayout(PlacementLayout):
    """Stage-per-device placement for deep LUT pipelines.

    The workload's dependency levels are cut into contiguous stages (one
    per device, balanced by PBS weight); ciphertexts crossing each stage
    boundary are charged on the cluster interconnect, and every stage
    device must hold the batch's tenant keys.

    The batch is lowered and cut on every dispatch, for the devices
    available *now*: under a fault schedule the surviving set changes
    mid-trace, and a cut for ``(0, 1, 2, 3)`` must not be replayed onto
    ``(0, 2, 3)``.
    """

    name = "pipeline"

    def dispatch(
        self,
        cluster: "StrixCluster",
        batch: "Batch",
        now: float,
        params: TFHEParameters,
    ) -> Dispatch:
        active = tuple(cluster.available_indices(now))
        plan = partition_graph_stages(batch_graph(batch, params), len(active))
        targets = active[: len(plan.graphs)]
        shipping_s = cluster.key_residency.place(batch.tenants, targets, params)
        input_transfer_s = cluster.interconnect.ciphertext_transfer_s(
            params, batch.total_items
        )

        stages: list[StageDispatch] = []
        compute_total = 0.0
        transfer_total = input_transfer_s
        entry = now + input_transfer_s + shipping_s
        for stage_index, stage_graph in enumerate(plan.graphs):
            device = cluster.devices[active[stage_index]]
            if stage_index > 0:
                transfer_in = cluster.interconnect.ciphertext_transfer_s(
                    params, plan.boundary_ciphertexts[stage_index]
                )
                entry += transfer_in
                transfer_total += transfer_in
            else:
                transfer_in = input_transfer_s
            cost = cluster.cost_model.stage_cost(stage_graph, params, device)
            start = max(entry, device.busy_until)
            compute_s = cost.compute_s
            end = start + compute_s
            device.busy_until = end
            device.busy_s += compute_s
            device.batches += 1
            device.pbs += cost.pbs
            compute_total += compute_s
            stages.append(
                StageDispatch(
                    device=device.index,
                    start_s=start,
                    end_s=end,
                    compute_s=compute_s,
                    transfer_in_s=transfer_in,
                    pbs=cost.pbs,
                )
            )
            entry = end

        end = entry + cluster.config.dispatch_overhead_s
        return Dispatch(
            device=stages[-1].device if stages else 0,
            start_s=stages[0].start_s if stages else now,
            end_s=end,
            devices=tuple(stage.device for stage in stages),
            breakdown={
                "compute_s": compute_total,
                "stage_transfer_s": transfer_total,
                "dispatch_s": cluster.config.dispatch_overhead_s,
                "key_shipping_s": shipping_s,
            },
            stages=tuple(stages),
        )

    def run_workload(
        self,
        cluster: "StrixCluster",
        workload: WorkloadLike,
        params: "TFHEParameters | str | None",
        instances: int,
    ) -> RunResult:
        """Schedule one workload's stages on consecutive devices.

        Latency for a single traversal is the *sum* of stage times plus the
        boundary transfers (stages only overlap across successive batches,
        which the serving path models); the per-stage breakdown lands in
        ``details["stages"]``.
        """
        graph = as_graph(workload, params, instances)
        plan = partition_graph_stages(graph, len(cluster.devices))
        stage_details: list[dict] = []
        utilization: dict[str, float] = {}
        latency = 0.0
        transfer_total = 0.0
        energy_total = 0.0
        pbs_total = 0
        epoch_total = 0
        for stage_index, stage_graph in enumerate(plan.graphs):
            device = cluster.devices[stage_index]
            schedule = device.scheduler.run(stage_graph)
            transfer_s = (
                cluster.interconnect.ciphertext_transfer_s(
                    graph.params, plan.boundary_ciphertexts[stage_index]
                )
                if stage_index > 0
                else 0.0
            )
            energy = device.energy_model.workload_energy_j(schedule.total_time_s)
            latency += transfer_s + schedule.total_time_s
            transfer_total += transfer_s
            energy_total += energy
            pbs_total += schedule.total_pbs
            epoch_total += schedule.total_epochs
            for core, value in schedule.core_utilization.items():
                utilization[f"dev{device.index}/{core}"] = value
            stage_details.append(
                {
                    "device": device.index,
                    "latency_s": schedule.total_time_s,
                    "transfer_in_s": transfer_s,
                    "pbs": schedule.total_pbs,
                    "epochs": schedule.total_epochs,
                }
            )
        latency += cluster.config.dispatch_overhead_s
        return RunResult(
            workload=graph.name,
            backend=cluster.backend_name,
            parameter_set=graph.params.name,
            latency_s=latency,
            pbs_count=pbs_total,
            utilization=utilization,
            energy_j=energy_total,
            details={
                "devices": len(cluster.devices),
                "active_devices": len(plan.graphs),
                "policy": cluster.policy.name,
                "layout": self.name,
                "epochs": epoch_total,
                "stages": stage_details,
                "stage_transfer_s": transfer_total,
                "key_shipping_s": 0.0,
            },
        )


class ElasticLayout(PlacementLayout):
    """Autoscaled data-parallel dispatch.

    Starts with ``min_devices`` active.  When the least-loaded active
    device's backlog (how far its busy horizon runs past *now*) exceeds
    ``scale_up_backlog_s``, one more device is provisioned — usable only
    after ``scale_up_latency_s``, the p99-versus-cost trade the serving
    simulation exists to expose.  When every active device has idled for
    ``scale_down_idle_s`` the newest device is released.  One-shot
    ``run_workload`` calls use the whole fleet (autoscaling is a serving
    concept).
    """

    name = "elastic"

    def __init__(
        self,
        min_devices: int = 1,
        scale_up_backlog_s: float = 2e-3,
        scale_up_latency_s: float = 5e-3,
        scale_down_idle_s: float = 50e-3,
    ) -> None:
        super().__init__()
        if min_devices < 1:
            raise ValueError("an elastic layout needs at least one active device")
        if scale_up_latency_s < 0 or scale_up_backlog_s < 0 or scale_down_idle_s < 0:
            raise ValueError("elastic thresholds cannot be negative")
        self.min_devices = min_devices
        self.scale_up_backlog_s = scale_up_backlog_s
        self.scale_up_latency_s = scale_up_latency_s
        self.scale_down_idle_s = scale_down_idle_s
        self._active: list[int] = []
        self._available_at: dict[int, float] = {}
        self.scale_ups = 0
        self.scale_downs = 0
        self.backfills = 0

    def reset(self) -> None:
        super().reset()
        self._active = []
        self._available_at = {}
        self.scale_ups = 0
        self.scale_downs = 0
        self.backfills = 0

    @property
    def runtime_stats(self) -> dict[str, float]:
        """Autoscaling counters and the currently active device count."""
        return {
            "active_devices": float(len(self._active)),
            "scale_ups": float(self.scale_ups),
            "scale_downs": float(self.scale_downs),
            "backfills": float(self.backfills),
        }

    def _effective_busy(self, cluster: "StrixCluster", index: int) -> float:
        return max(
            cluster.devices[index].busy_until, self._available_at.get(index, 0.0)
        )

    def _autoscale(self, cluster: "StrixCluster", now: float) -> None:
        available = cluster.available_indices(now)
        if not self._active:
            self._active = available[: min(self.min_devices, len(available))]
        else:
            usable = set(available)
            if any(index not in usable for index in self._active):
                # A fault took an active device out.  Drop it and backfill
                # from available spares up to the floor — each backfill pays
                # the provisioning latency like any scale-up, but is counted
                # separately so degraded-mode capacity churn is visible.
                # Healed devices do not auto-rejoin; later scale-ups pick
                # them back up on backlog pressure.
                self._active = [index for index in self._active if index in usable]
                floor = min(self.min_devices, len(available))
                for spare in available:
                    if len(self._active) >= floor:
                        break
                    if spare in self._active:
                        continue
                    self._active.append(spare)
                    self._available_at[spare] = now + self.scale_up_latency_s
                    self.backfills += 1
        # A device still being provisioned is capacity already on its way:
        # it neither counts toward the backlog signal nor allows another
        # scale-up, otherwise its own provisioning delay would read as
        # backlog and cascade the whole fleet up from one blip.
        provisioning = any(
            self._available_at.get(index, 0.0) > now for index in self._active
        )
        ready = [
            index
            for index in self._active
            if self._available_at.get(index, 0.0) <= now
        ]
        backlog = min(
            (cluster.devices[index].busy_until - now for index in ready),
            default=0.0,
        )
        if (
            not provisioning
            and backlog > self.scale_up_backlog_s
            and len(self._active) < len(cluster.devices)
        ):
            new_index = next(
                (index for index in available if index not in self._active),
                None,
            )
            if new_index is not None:
                self._active.append(new_index)
                self._available_at[new_index] = now + self.scale_up_latency_s
                self.scale_ups += 1
        elif len(self._active) > self.min_devices and all(
            self._effective_busy(cluster, index) + self.scale_down_idle_s <= now
            for index in self._active
        ):
            released = self._active.pop()
            self._available_at.pop(released, None)
            self.scale_downs += 1

    def dispatch(
        self,
        cluster: "StrixCluster",
        batch: "Batch",
        now: float,
        params: TFHEParameters,
    ) -> Dispatch:
        self._autoscale(cluster, now)
        busy = [self._effective_busy(cluster, index) for index in self._active]
        resident = cluster.key_residency.resident_flags(
            batch.requests[0].tenant, self._active
        )
        index = self._active[cluster.policy.select(busy, batch, resident=resident)]
        dispatch = self._dispatch_to_device(
            cluster, batch, now, params, index, self._effective_busy(cluster, index)
        )
        dispatch.breakdown["active_devices"] = float(len(self._active))
        return dispatch


_LAYOUTS: Registry[PlacementLayout] = Registry(
    UnknownLayoutError, PlacementLayout, (DataParallelLayout, PipelineLayout, ElasticLayout)
)

#: Names of all placement layouts, sorted.
list_layouts = _LAYOUTS.names


def get_layout(layout: "str | PlacementLayout") -> PlacementLayout:
    """Resolve a layout name (or pass an instance through).

    Raises :class:`~repro.errors.UnknownLayoutError` — the shared
    did-you-mean shape — for unknown names.
    """
    return _LAYOUTS.get(layout)
