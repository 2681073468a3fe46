"""The direct-booking scheduler and Kahn ordering equal the code they replaced.

``StrixScheduler.run`` used to drive a ``SimulationEngine`` — resources
looked up by name, one ``TimelineEntry`` and one label per activity, the
makespan rescanned off the timeline — and ``topological_order`` rescanned
every unresolved node each round.  Both loops are frozen here verbatim as the
slow reference (the way ``TestFoldedTransformFrozenFormula`` froze the FFT
formulas), and the fast path is held to them with ``==`` on every float, in
the circlestark ``test_fast_fft`` / ``test_fast_fri`` idiom: run the slow
reference, run the fast path, compare field by field.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.deep_nn import ZAMA_DEEP_NN_MODELS, build_deep_nn_graph
from repro.apps.traffic import bursty_trace, heavy_tail_trace, steady_trace
from repro.apps.workloads import pbs_batch_graph
from repro.arch.accelerator import StrixAccelerator
from repro.params import PARAM_SET_I, PARAM_SET_II, PARAM_SET_III, PARAM_SET_IV
from repro.sched import EventDrivenCostModel, batch_graph
from repro.serve import Request, Server
from repro.serve.batcher import Batch
from repro.sim.fragments import plan_fragments
from repro.sim.graph import ComputationGraph, ComputationNode, NodeKind
from repro.sim.scheduler import NodeSchedule, ScheduleResult, StrixScheduler

PAPER_SETS = (PARAM_SET_I, PARAM_SET_II, PARAM_SET_III, PARAM_SET_IV)


# -- the pre-PR code, frozen ------------------------------------------------------


@dataclass
class _FrozenEntry:
    resource: str
    label: str
    start: float
    end: float


@dataclass
class _FrozenResource:
    name: str
    free_at: float = 0.0
    busy_time: float = 0.0

    def reserve(self, earliest_start, duration):
        start = max(self.free_at, earliest_start)
        end = start + duration
        self.free_at = end
        self.busy_time += duration
        return start, end


class _FrozenEngine:
    """The engine as the old ``run`` used it: named resources and a timeline."""

    def __init__(self):
        self._resources = {}
        self.timeline = []

    def add_resource(self, name):
        if name not in self._resources:
            self._resources[name] = _FrozenResource(name)
        return self._resources[name]

    @property
    def resources(self):
        return dict(self._resources)

    def schedule_activity(self, resource_name, duration, earliest_start=0.0, label=""):
        resource = self.add_resource(resource_name)
        start, end = resource.reserve(earliest_start, duration)
        entry = _FrozenEntry(resource=resource_name, label=label, start=start, end=end)
        self.timeline.append(entry)
        return entry

    @property
    def makespan(self):
        if not self.timeline:
            return 0.0
        return max(entry.end for entry in self.timeline)

    def utilization(self, resource_name):
        span = self.makespan
        if span <= 0:
            return 0.0
        return self._resources[resource_name].busy_time / span


def frozen_topological_order(graph):
    nodes = {node.name: node for node in graph.nodes}
    resolved = []
    seen = set()
    remaining = {name: set(node.depends_on) for name, node in nodes.items()}
    while remaining:
        ready = [name for name, deps in remaining.items() if deps <= seen]
        if not ready:
            raise ValueError("computation graph contains a dependency cycle")
        for name in ready:
            resolved.append(nodes[name])
            seen.add(name)
            del remaining[name]
    return resolved


def frozen_levels(graph):
    level_of = {}
    ordered = frozen_topological_order(graph)
    for node in ordered:
        if node.depends_on:
            level_of[node.name] = 1 + max(level_of[dep] for dep in node.depends_on)
        else:
            level_of[node.name] = 0
    depth = max(level_of.values()) + 1 if level_of else 0
    grouped = [[] for _ in range(depth)]
    for node in ordered:
        grouped[level_of[node.name]].append(node)
    return grouped


def frozen_run(scheduler, graph):
    params = graph.params
    engine = _FrozenEngine()
    for core in range(scheduler.config.tvlp):
        engine.add_resource(f"hsc{core}")
    engine.add_resource("keyswitch")
    engine.add_resource("linear")

    finish_time = {}
    node_schedules = []
    total_epochs = 0

    for node in frozen_topological_order(graph):
        ready = max((finish_time[dep] for dep in node.depends_on), default=0.0)
        if node.kind is NodeKind.LINEAR:
            end, epochs = _frozen_schedule_linear(scheduler, engine, node, ready)
        else:
            end, epochs = _frozen_schedule_pbs_node(scheduler, engine, node, params, ready)
        finish_time[node.name] = end
        total_epochs += epochs
        node_schedules.append(
            NodeSchedule(
                node=node.name,
                kind=node.kind.value,
                start_s=ready,
                end_s=end,
                epochs=epochs,
            )
        )

    makespan = engine.makespan
    utilization = {
        name: engine.utilization(name)
        for name in engine.resources
        if name.startswith("hsc")
    }
    return ScheduleResult(
        workload=graph.name,
        parameter_set=params.name,
        total_time_s=makespan,
        node_schedules=node_schedules,
        total_pbs=graph.total_pbs(),
        total_epochs=total_epochs,
        core_utilization=utilization,
    )


def _frozen_schedule_linear(scheduler, engine, node, ready):
    operations = node.ciphertexts * max(node.operations_per_ciphertext, 1)
    duration = operations / scheduler._linear_macs_per_second
    entry = engine.schedule_activity("linear", duration, ready, label=node.name)
    return entry.end, 0


@dataclass(frozen=True)
class _FrozenHotPathConstants:
    epoch_capacity: int
    iteration_latency_cycles: int
    initiation_interval: int
    keyswitch_cycles: int
    clock_hz: float


def _frozen_hot_path_constants(scheduler, params):
    accelerator = scheduler.accelerator
    return _FrozenHotPathConstants(
        epoch_capacity=(
            scheduler.config.tvlp * accelerator.core.core_batch_size(params)
        ),
        iteration_latency_cycles=accelerator.iteration_latency_cycles(params),
        initiation_interval=(
            accelerator.pipeline_timing(params).initiation_interval
        ),
        keyswitch_cycles=accelerator.core.keyswitch_cycles(params),
        clock_hz=scheduler.config.clock_hz,
    )


def _frozen_schedule_pbs_node(scheduler, engine, node, params, ready):
    accelerator = scheduler.accelerator
    hot = _frozen_hot_path_constants(scheduler, params)
    plan = plan_fragments(node.ciphertexts, hot.epoch_capacity)
    wants_keyswitch = node.kind in (NodeKind.PBS_KS, NodeKind.KEYSWITCH)
    n = params.n

    node_end = ready
    for epoch_index, epoch_lwes in enumerate(plan.fragment_sizes):
        epoch_plan = accelerator.plan_epoch(params, epoch_lwes)
        epoch_end = ready
        for core_index, core_lwes in enumerate(epoch_plan.lwes_per_core):
            if core_lwes == 0:
                continue
            if core_lwes == 1:
                cycles = n * hot.iteration_latency_cycles
            else:
                cycles = n * core_lwes * hot.initiation_interval
            duration = cycles / hot.clock_hz
            entry = engine.schedule_activity(
                f"hsc{core_index}",
                duration,
                ready,
                label=f"{node.name}/epoch{epoch_index}",
            )
            epoch_end = max(epoch_end, entry.end)

        if wants_keyswitch:
            ks_cycles = max(epoch_plan.lwes_per_core) * hot.keyswitch_cycles
            ks_duration = ks_cycles / hot.clock_hz
            ks_entry = engine.schedule_activity(
                "keyswitch",
                ks_duration,
                epoch_end,
                label=f"{node.name}/ks{epoch_index}",
            )
            if epoch_index == plan.num_passes - 1:
                epoch_end = ks_entry.end

        node_end = max(node_end, epoch_end)

    return node_end, plan.num_passes


# -- fast path == slow reference ----------------------------------------------------


@pytest.fixture(scope="module")
def scheduler() -> StrixScheduler:
    return StrixScheduler(StrixAccelerator())


def assert_same_schedule(scheduler: StrixScheduler, graph: ComputationGraph) -> None:
    """Every ``ScheduleResult`` field equal, floats with ``==`` (dataclass eq)."""
    fast, slow = scheduler.run(graph), frozen_run(scheduler, graph)
    assert fast == slow
    assert list(fast.core_utilization) == list(slow.core_utilization)
    assert asdict(fast) == asdict(slow)


def _epoch_capacity(scheduler: StrixScheduler, params) -> int:
    return _frozen_hot_path_constants(scheduler, params).epoch_capacity


class TestRunEqualsFrozenEngineLoop:
    @pytest.mark.parametrize("params", PAPER_SETS, ids=lambda params: params.name)
    @pytest.mark.parametrize("size", ["1", "7", "cap-1", "cap", "cap+1", "4096"])
    def test_one_pbs_node(self, scheduler, params, size):
        capacity = _epoch_capacity(scheduler, params)
        lwes = {"cap-1": capacity - 1, "cap": capacity, "cap+1": capacity + 1}.get(size)
        assert_same_schedule(scheduler, pbs_batch_graph(params, lwes or int(size)))

    @pytest.mark.parametrize("model", sorted(ZAMA_DEEP_NN_MODELS))
    def test_deep_nn_graphs(self, scheduler, model):
        graph = build_deep_nn_graph(ZAMA_DEEP_NN_MODELS[model], PARAM_SET_I)
        assert_same_schedule(scheduler, graph)

    @pytest.mark.parametrize("params", PAPER_SETS, ids=lambda params: params.name)
    def test_mixed_serving_batch(self, scheduler, params):
        batch = Batch(
            batch_id=3,
            requests=(
                Request.make(1, "a", "encrypt", items=40),
                Request.make(2, "b", "inference", items=2, model="NN-20"),
                Request.make(3, "a", "gate", items=300),
                Request.make(4, "c", "inference", items=1, model="NN-20"),
                Request.make(5, "c", "bootstrap", items=17),
            ),
            created_s=0.0,
            flush_reason="full",
        )
        assert_same_schedule(scheduler, batch_graph(batch, params))

    def test_empty_graph_and_lone_linear_node(self, scheduler):
        assert_same_schedule(scheduler, ComputationGraph(PARAM_SET_I, name="empty"))
        lone = ComputationGraph(PARAM_SET_I, name="lone")
        lone.add_linear_layer("lin", 12, 500)
        assert_same_schedule(scheduler, lone)
        assert scheduler.run(lone).core_utilization == {f"hsc{i}": 0.0 for i in range(8)}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_dags_over_every_node_kind(self, scheduler, data):
        graph = data.draw(dags())
        assert_same_schedule(scheduler, graph)


    def test_fast_path_is_faster_on_a_deep_chain(self, scheduler):
        """Time the slow reference, time the fast path, then assert equality."""
        graph = build_deep_nn_graph(ZAMA_DEEP_NN_MODELS["NN-100"], PARAM_SET_I)

        def best_of(run, repeats=7):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                result = run()
                best = min(best, time.perf_counter() - start)
            return best, result

        slow_s, slow = best_of(lambda: frozen_run(scheduler, graph))
        fast_s, fast = best_of(lambda: scheduler.run(graph))
        assert fast == slow
        assert fast_s < slow_s, f"direct booking {fast_s:.2e} s vs engine loop {slow_s:.2e} s"


@st.composite
def dags(draw) -> ComputationGraph:
    """DAGs over all four node kinds; later nodes fan in on shared earlier ones."""
    params = draw(st.sampled_from(PAPER_SETS))
    graph = ComputationGraph(params, name="dag")
    for index in range(draw(st.integers(0, 12))):
        earlier = [node.name for node in graph.nodes]
        depends_on = draw(st.lists(st.sampled_from(earlier), max_size=3)) if earlier else []
        graph.add_node(
            ComputationNode(
                name=f"n{index}",
                kind=draw(st.sampled_from(list(NodeKind))),
                ciphertexts=draw(st.integers(0, 700)),
                operations_per_ciphertext=draw(st.integers(0, 2000)),
                depends_on=depends_on,
            )
        )
    return graph


class TestKahnEqualsFrozenRoundScan:
    @settings(max_examples=100, deadline=None)
    @given(graph=dags())
    def test_identical_node_sequence(self, graph):
        assert graph.topological_order() == frozen_topological_order(graph)
        assert graph.levels() == frozen_levels(graph)

    def test_rounds_keep_insertion_order(self):
        # b's dependent is inserted before a's: a round sorted by release
        # order instead of insertion order would emit d before c.
        graph = ComputationGraph(PARAM_SET_I)
        graph.add_pbs_layer("a", 1)
        graph.add_pbs_layer("b", 1)
        graph.add_pbs_layer("c", 1, depends_on=["b"])
        graph.add_pbs_layer("d", 1, depends_on=["a", "a"])
        graph.add_pbs_layer("e", 1, depends_on=["a", "c"])
        names = [node.name for node in graph.topological_order()]
        assert names == ["a", "b", "c", "d", "e"]
        assert graph.topological_order() == frozen_topological_order(graph)

    def test_deep_chain_matches(self):
        graph = build_deep_nn_graph(ZAMA_DEEP_NN_MODELS["NN-100"], PARAM_SET_I)
        assert graph.topological_order() == frozen_topological_order(graph)
        assert graph.levels() == frozen_levels(graph)

    @pytest.mark.parametrize("order", [ComputationGraph.topological_order, frozen_topological_order])
    def test_cycle_and_ghost_dependency_both_raise(self, order):
        cyclic = ComputationGraph(PARAM_SET_I)
        cyclic.add_pbs_layer("a", 1)
        cyclic.add_pbs_layer("b", 1, depends_on=["a"])
        cyclic.node("a").depends_on.append("b")
        with pytest.raises(ValueError, match="dependency cycle"):
            order(cyclic)

        ghost = ComputationGraph(PARAM_SET_I)
        ghost.add_pbs_layer("a", 1)
        ghost.add_pbs_layer("b", 1, depends_on=["a"])
        ghost.node("b").depends_on.append("never-added")
        with pytest.raises(ValueError, match="dependency cycle"):
            order(ghost)

        selfish = ComputationGraph(PARAM_SET_I)
        selfish.add_pbs_layer("a", 1)
        selfish.node("a").depends_on.append("a")
        with pytest.raises(ValueError, match="dependency cycle"):
            order(selfish)


# -- serving level: memoized pricing == every batch re-simulated --------------------


def _report_without_cache_counters(report) -> dict:
    data = report.to_dict()
    del data["cost_cache"]
    return data


@pytest.mark.parametrize(
    "trace",
    [
        steady_trace(1500.0, 0.6, seed=101),
        bursty_trace(6000.0, 0.6, seed=102),
        heavy_tail_trace(1200.0, 0.6, seed=103, tenants=12),
    ],
    ids=["steady", "bursty", "heavy-tail"],
)
def test_event_serving_equals_unmemoized(trace):
    memoized = Server(devices=4, params="I", cost_model="event").simulate(trace)
    resimulated = Server(
        devices=4, params="I", cost_model=EventDrivenCostModel()
    ).simulate(trace)
    assert memoized.metrics.cost_cache["misses"] > 0
    assert not resimulated.metrics.cost_cache
    assert _report_without_cache_counters(memoized) == _report_without_cache_counters(resimulated)
