"""Epoch scheduler: executes computation graphs on the Strix model.

Workloads are scheduled "in a series of epochs, with each epoch containing a
maximum number of LWEs equal to the product of device-level and core-level
batch sizes" (Section IV-C).  The scheduler walks the computation graph in
dependency order, splits every PBS node into epochs, runs the blind rotation
of each epoch on one serially reusable :class:`Resource` per HSC and lets the
keyswitching of one epoch hide behind the blind rotation of the next.  Linear
nodes are charged to a (cheap) vector unit on the host interface.  The
scheduler holds its resources directly and reads makespan and utilization off
them; no timeline is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.accelerator import StrixAccelerator
from repro.params import TFHEParameters
from repro.sim.fragments import plan_fragments
from repro.sim.graph import ComputationGraph, ComputationNode, NodeKind


@dataclass
class Resource:
    """A serially reusable resource (one HSC, the HBM bus, ...)."""

    name: str
    free_at: float = 0.0
    busy_time: float = 0.0

    def reserve(self, earliest_start: float, duration: float) -> tuple[float, float]:
        """Occupy the resource for ``duration`` as soon as possible.

        Returns the (start, end) interval actually granted.
        """
        start = max(self.free_at, earliest_start)
        end = start + duration
        self.free_at = end
        self.busy_time += duration
        return start, end


@dataclass
class NodeSchedule:
    """Timing of one graph node on the accelerator."""

    node: str
    kind: str
    start_s: float
    end_s: float
    epochs: int

    @property
    def duration_s(self) -> float:
        """Node execution time in seconds."""
        return self.end_s - self.start_s


@dataclass
class ScheduleResult:
    """Outcome of executing a computation graph."""

    workload: str
    parameter_set: str
    total_time_s: float
    node_schedules: list[NodeSchedule]
    total_pbs: int
    total_epochs: int
    core_utilization: dict[str, float] = field(default_factory=dict)

    @property
    def pbs_throughput(self) -> float:
        """Achieved PBS/s over the whole workload."""
        if self.total_time_s <= 0:
            return 0.0
        return self.total_pbs / self.total_time_s


class _EpochTimings:
    """Epoch capacity and per-epoch durations of one parameter set on one chip.

    Everything here is a pure function of ``(params, config)``: it is
    computed once and looked up from the per-node / per-epoch / per-core
    loops.  That changes no arithmetic — the same expressions give the same
    values — so schedules stay bit-for-bit those of recomputing each one.
    """

    def __init__(self, accelerator: StrixAccelerator, params: TFHEParameters):
        self._accelerator = accelerator
        self._params = params
        self.epoch_capacity = accelerator.config.tvlp * accelerator.core.core_batch_size(params)
        self._epochs: dict[int, tuple[tuple[float, ...], float]] = {}

    def epoch(self, lwes: int) -> tuple[tuple[float, ...], float]:
        """Blind-rotation seconds per active core, and keyswitch seconds.

        An epoch fills the cores round-robin, so the active cores are a
        prefix of the core list; at most ``epoch_capacity`` sizes exist.
        """
        timing = self._epochs.get(lwes)
        if timing is None:
            accelerator, params = self._accelerator, self._params
            plan = accelerator.plan_epoch(params, lwes)
            lone_lwe = params.n * accelerator.iteration_latency_cycles(params)
            per_streamed_lwe = params.n * accelerator.pipeline_timing(params).initiation_interval
            clock_hz = accelerator.config.clock_hz
            timing = self._epochs[lwes] = (
                tuple(
                    (lone_lwe if core_lwes == 1 else core_lwes * per_streamed_lwe) / clock_hz
                    for core_lwes in plan.lwes_per_core
                    if core_lwes
                ),
                plan.keyswitch_cycles / clock_hz,
            )
        return timing


class StrixScheduler:
    """Maps computation graphs onto a :class:`StrixAccelerator`."""

    #: Homomorphic linear operations sustained per second by the host-side
    #: vector pipeline of one HSC (simple 32-bit multiply-accumulates over
    #: LWE vectors streaming from the private scratchpad sections).
    LINEAR_MACS_PER_CYCLE_PER_CORE = 16

    def __init__(self, accelerator: StrixAccelerator):
        self.accelerator = accelerator
        self.config = accelerator.config
        self._linear_macs_per_second = self.linear_macs_per_second(self.config)
        self._timings: dict[TFHEParameters, _EpochTimings] = {}

    @classmethod
    def linear_macs_per_second(cls, config) -> float:
        """Chip-wide throughput of the host-side vector pipeline.

        Shared by the LINEAR-node scheduling below and the serving layer's
        cost model for PBS-free (encryption) requests, so the two never
        diverge.
        """
        return cls.LINEAR_MACS_PER_CYCLE_PER_CORE * config.tvlp * config.clock_hz

    # -- public API -----------------------------------------------------------

    def run(self, graph: ComputationGraph) -> ScheduleResult:
        """Execute a computation graph and return its schedule."""
        params = graph.params
        timings = self._timings.get(params)
        if timings is None:
            timings = self._timings[params] = _EpochTimings(self.accelerator, params)
        cores = [Resource(f"hsc{core}") for core in range(self.config.tvlp)]
        keyswitch = Resource("keyswitch")
        linear = Resource("linear")

        finish_time: dict[str, float] = {}
        node_schedules: list[NodeSchedule] = []
        total_epochs = 0

        for node in graph.topological_order():
            ready = max(map(finish_time.__getitem__, node.depends_on), default=0.0)
            if node.kind is NodeKind.LINEAR:
                operations = node.ciphertexts * max(node.operations_per_ciphertext, 1)
                _, end = linear.reserve(ready, operations / self._linear_macs_per_second)
                epochs = 0
            else:
                end, epochs = self._schedule_pbs_node(cores, keyswitch, node, timings, ready)
            finish_time[node.name] = end
            total_epochs += epochs
            node_schedules.append(NodeSchedule(node.name, node.kind.value, ready, end, epochs))

        # A resource's reservations never end earlier than the one before,
        # so the latest `free_at` is the end of the last activity overall.
        makespan = max(resource.free_at for resource in (*cores, keyswitch, linear))
        return ScheduleResult(
            workload=graph.name,
            parameter_set=params.name,
            total_time_s=makespan,
            node_schedules=node_schedules,
            total_pbs=graph.total_pbs(),
            total_epochs=total_epochs,
            core_utilization={
                core.name: core.busy_time / makespan if makespan > 0 else 0.0
                for core in cores
            },
        )

    # -- internals -------------------------------------------------------------

    def _schedule_pbs_node(
        self,
        cores: list[Resource],
        keyswitch: Resource,
        node: ComputationNode,
        timings: _EpochTimings,
        ready: float,
    ) -> tuple[float, int]:
        plan = plan_fragments(node.ciphertexts, timings.epoch_capacity)
        wants_keyswitch = node.kind in (NodeKind.PBS_KS, NodeKind.KEYSWITCH)

        node_end = ready
        for epoch_index, epoch_lwes in enumerate(plan.fragment_sizes):
            durations, keyswitch_duration = timings.epoch(epoch_lwes)
            epoch_end = ready
            for core, duration in zip(cores, durations):
                _, end = core.reserve(ready, duration)
                if end > epoch_end:
                    epoch_end = end

            if wants_keyswitch:
                _, keyswitch_end = keyswitch.reserve(epoch_end, keyswitch_duration)
                # Keyswitching of this epoch overlaps the next epoch's blind
                # rotation; only the final epoch's keyswitch extends the node.
                if epoch_index == plan.num_passes - 1:
                    epoch_end = keyswitch_end

            if epoch_end > node_end:
                node_end = epoch_end
            # Successive epochs of the same node serialize naturally on the
            # HSC resources, so `ready` (the dependency bound) is unchanged.

        return node_end, plan.num_passes
