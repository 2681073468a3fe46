"""Epoch scheduler: executes computation graphs on the Strix model.

Workloads are scheduled "in a series of epochs, with each epoch containing a
maximum number of LWEs equal to the product of device-level and core-level
batch sizes" (Section IV-C).  The scheduler walks the workload's op list
(:class:`~repro.sim.graph.ScheduleProgram`, a graph compiled to topological
order) and splits every PBS node into epochs; each HSC, the keyswitch unit and
the linear unit is one serially reusable resource, booked as the time it is
next free.  The blind rotation of an epoch runs on the HSCs, its keyswitching
hides behind the blind rotation of the next.  Linear nodes are charged to a
(cheap) vector unit on the host interface.  Makespan and utilization are read
off those free and busy times; no timeline is kept.

The readable definition of this rule is ``spec_order`` / ``spec_run`` in
``tests/test_scheduler_spec.py``: the same bookings in the shortest obvious
code, which :meth:`StrixScheduler.run` equals on every field, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.arch.accelerator import StrixAccelerator
from repro.params import TFHEParameters
from repro.sim.graph import ComputationGraph, ScheduleProgram, linear_macs

_new_tuple = tuple.__new__


class NodeSchedule(NamedTuple):
    """Timing of one graph node on the accelerator."""

    node: str
    kind: str
    start_s: float
    end_s: float
    epochs: int


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


class _EpochTimings:
    """Epoch capacity and per-epoch durations of one parameter set on one chip.

    Everything here is a pure function of ``(params, config)``: it is
    computed once and looked up from the per-node loop.  That changes no
    arithmetic — the same expressions give the same values — so schedules
    stay bit-for-bit those of recomputing each one.
    """

    def __init__(self, accelerator: StrixAccelerator, params: TFHEParameters):
        self._accelerator = accelerator
        self._params = params
        self.epoch_capacity = accelerator.epoch_capacity(params)
        self._epochs: dict[int, tuple[tuple[float, ...], float]] = {}
        self._nodes: dict[int, tuple[tuple[tuple[float, ...], float], ...]] = {}

    def node(self, ciphertexts: int) -> tuple[tuple[tuple[float, ...], float], ...]:
        """:meth:`epoch` of each epoch of a PBS node: full ones, then the rest."""
        epochs = self._nodes.get(ciphertexts)
        if epochs is None:
            full, rest = divmod(ciphertexts, self.epoch_capacity)
            sizes = (self.epoch_capacity,) * full + (rest,) * (rest > 0)
            epochs = self._nodes[ciphertexts] = tuple(map(self.epoch, sizes))
        return epochs

    def epoch(self, lwes: int) -> tuple[tuple[float, ...], float]:
        """Blind-rotation seconds per active core, and keyswitch seconds.

        An epoch fills the cores round-robin, so the active cores are a
        prefix of the core list; at most ``epoch_capacity`` sizes exist.
        """
        timing = self._epochs.get(lwes)
        if timing is None:
            accelerator, params = self._accelerator, self._params
            plan = accelerator.plan_epoch(params, lwes)
            clock_hz = accelerator.config.clock_hz
            timing = self._epochs[lwes] = (
                tuple(
                    params.n * accelerator.core_iteration_cycles(params, core_lwes) / clock_hz
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
        self._core_names = tuple(f"hsc{core}" for core in range(self.config.tvlp))

    @classmethod
    def linear_macs_per_second(cls, config) -> float:
        """Chip-wide throughput of the host-side vector pipeline.

        Shared by the LINEAR-node scheduling below and the serving layer's
        cost model for PBS-free (encryption) requests, so the two never
        diverge.
        """
        return cls.LINEAR_MACS_PER_CYCLE_PER_CORE * config.tvlp * config.clock_hz

    # -- public API -----------------------------------------------------------

    def epoch_timings(self, params: TFHEParameters) -> _EpochTimings:
        """The epoch capacity and per-core epoch durations :meth:`run` books."""
        timings = self._timings.get(params)
        if timings is None:
            timings = self._timings[params] = _EpochTimings(self.accelerator, params)
        return timings

    def run(self, graph: ComputationGraph | ScheduleProgram) -> ScheduleResult:
        """Execute a computation graph (or its compiled op list); return its schedule.

        Every booking is ``start = max(free, earliest)``, ``free = start +
        duration`` on one resource (and ``busy += duration`` on an HSC), in
        op order and, within a PBS node, epoch by epoch and core by core.
        """
        name, params, names, ops = graph.compile()
        timings = self.epoch_timings(params)
        linear_macs_per_second = self._linear_macs_per_second
        core_free = [0.0] * self.config.tvlp
        core_busy = [0.0] * self.config.tvlp
        keyswitch_free = linear_free = 0.0

        finish: list[float] = []
        node_schedules: list[NodeSchedule] = []
        total_pbs = total_epochs = 0
        for node, (kind, ciphertexts, operations, depends_on) in zip(names, ops):
            ready = 0.0
            for dependency in depends_on:
                if finish[dependency] > ready:
                    ready = finish[dependency]
            if kind == "linear":
                start = ready if ready > linear_free else linear_free
                macs = linear_macs(ciphertexts, operations)
                end = linear_free = start + macs / linear_macs_per_second
                epochs = 0
            else:
                if kind != "keyswitch":
                    total_pbs += ciphertexts
                wants_keyswitch = kind != "pbs"
                plan = timings.node(ciphertexts)
                end = ready
                for durations, keyswitch_s in plan:
                    epoch_end = ready
                    for core, duration in enumerate(durations):
                        start = core_free[core]
                        if ready > start:
                            start = ready
                        core_free[core] = core_end = start + duration
                        core_busy[core] += duration
                        if core_end > epoch_end:
                            epoch_end = core_end
                    if wants_keyswitch:
                        # An epoch's keyswitch overlaps the next epoch's blind
                        # rotation; only the final one extends the node.
                        if epoch_end > keyswitch_free:
                            keyswitch_free = epoch_end
                        keyswitch_free += keyswitch_s
                    if epoch_end > end:
                        end = epoch_end
                if wants_keyswitch and plan and keyswitch_free > end:
                    end = keyswitch_free
                epochs = len(plan)
                total_epochs += epochs
            finish.append(end)
            # NodeSchedule(...) minus the named tuple's Python-level __new__.
            node_schedules.append(_new_tuple(NodeSchedule, (node, kind, ready, end, epochs)))

        # A resource's bookings never end earlier than the one before, so
        # the latest free time is the end of the last activity overall.
        makespan = max(*core_free, keyswitch_free, linear_free)
        utilization = [busy / makespan if makespan > 0 else 0.0 for busy in core_busy]
        return ScheduleResult(
            workload=name,
            parameter_set=params.name,
            total_time_s=makespan,
            node_schedules=node_schedules,
            total_pbs=total_pbs,
            total_epochs=total_epochs,
            core_utilization=dict(zip(self._core_names, utilization)),
        )
