"""The paper's epoch rule as the shortest obvious code, and the scheduler held to it.

Section IV-C: each epoch holds at most device-level × core-level batch size
LWEs.  ``spec_order`` takes nodes in dependency rounds; ``spec_run`` cuts a
PBS node of ``c`` LWEs into ``divmod(c, capacity)`` epochs (Eq. 1–2), deals
each epoch round-robin over the HSCs, books its keyswitch behind it (only the
last one extends the node), and keeps one free time per HSC, keyswitch and
linear unit.  Both read only the accelerator's primitives.  Like circlestark's
``fft`` beside ``fast_fft``, they stay beside ``StrixScheduler.run`` and
``ComputationGraph.levels``, which must equal them on every field, and they
alone reproduce ``BENCH_sim.json``'s scheduler records and Table V rates.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_compiler import model_graph

from repro.apps.deep_nn import ZAMA_DEEP_NN_MODELS
from repro.apps.workloads import pbs_batch_graph
from repro.arch.accelerator import StrixAccelerator
from repro.arch.config import STRIX_DEFAULT, StrixConfig
from repro.params import (
    DEEP_NN_N1024,
    DEEP_NN_PARAMETER_SETS,
    PARAM_SET_I,
    PARAM_SET_II,
    PARAM_SET_III,
    PARAM_SET_IV,
    SMALL_PARAMETERS,
    TOY_PARAMETERS,
)
from repro.sim.fragments import blind_rotation_fragments
from repro.sim.graph import ComputationGraph, ComputationNode, NodeKind
from repro.sim.scheduler import NodeSchedule, ScheduleResult, StrixScheduler

PAPER_SETS = (PARAM_SET_I, PARAM_SET_II, PARAM_SET_III, PARAM_SET_IV)
DEFINED_SETS = (*PAPER_SETS, *DEEP_NN_PARAMETER_SETS.values(), TOY_PARAMETERS, SMALL_PARAMETERS)
_BENCH_SIM = json.loads((Path(__file__).resolve().parent.parent / "BENCH_sim.json").read_text())
BENCH_SIM = {record["name"]: record["value"] for record in _BENCH_SIM["records"]}


# -- the spec ----------------------------------------------------------------------------


def spec_order(graph):
    """Round by round, every node whose dependencies all resolved in earlier rounds."""
    order, resolved, waiting = [], set(), graph.nodes
    while waiting:
        ready = [node for node in waiting if resolved.issuperset(node.depends_on)]
        if not ready:
            raise ValueError("computation graph contains a dependency cycle")
        order += ready
        resolved.update(node.name for node in ready)
        waiting = [node for node in waiting if node.name not in resolved]
    return order


def spec_run(scheduler, graph):
    """The epoch rule booked on one free time per unit: what ``StrixScheduler.run`` computes."""
    accelerator, config, params = scheduler.accelerator, scheduler.config, graph.params
    cores = [f"hsc{core}" for core in range(config.tvlp)]
    free = dict.fromkeys([*cores, "keyswitch", "linear"], 0.0)
    busy = dict.fromkeys(cores, 0.0)

    def book(unit, earliest, seconds):
        """Start when both the unit and the inputs are free; return the end."""
        free[unit] = max(free[unit], earliest) + seconds
        if unit in busy:
            busy[unit] += seconds
        return free[unit]

    capacity = config.tvlp * accelerator.core.core_batch_size(params)
    timing = accelerator.core.pipeline_timing(params)
    scaling = accelerator.hbm.compute_scaling(accelerator.required_bandwidth(params))

    def core_cycles(share):
        """Table VII's rule: the pipeline's time or the memory wall's, the longer."""
        streamed = share * timing.initiation_interval
        pipeline = timing.iteration_latency if share == 1 else streamed
        return params.n * max(pipeline, math.ceil(streamed / scaling))

    keyswitch_lwe = accelerator.core.keyswitch_cycles(params)
    finish, schedules, total_epochs = {}, [], 0
    for node in spec_order(graph):
        ready = max((finish[name] for name in node.depends_on), default=0.0)
        end, epochs = ready, 0
        if node.kind is NodeKind.LINEAR:
            macs = node.ciphertexts * max(node.operations_per_ciphertext, 1)
            end = book("linear", ready, macs / scheduler.linear_macs_per_second(config))
        else:
            full, rest = divmod(node.ciphertexts, capacity)
            sizes = [capacity] * full + [rest] * (rest > 0)
            for epoch, lwes in enumerate(sizes):
                each, extra = divmod(lwes, config.tvlp)
                shares = [each + (core < extra) for core in range(config.tvlp)]
                epoch_end = ready
                for core, share in zip(cores, shares):
                    if share:
                        seconds = core_cycles(share) / config.clock_hz
                        epoch_end = max(epoch_end, book(core, ready, seconds))
                if node.kind is not NodeKind.PBS:
                    seconds = max(shares) * keyswitch_lwe / config.clock_hz
                    keyswitch_end = book("keyswitch", epoch_end, seconds)
                    if epoch == len(sizes) - 1:
                        epoch_end = keyswitch_end
                end = max(end, epoch_end)
            epochs = len(sizes)
        finish[node.name] = end
        total_epochs += epochs
        schedules.append(NodeSchedule(node.name, node.kind.value, ready, end, epochs))
    makespan = max(free.values())
    return ScheduleResult(
        workload=graph.name,
        parameter_set=params.name,
        total_time_s=makespan,
        node_schedules=schedules,
        total_pbs=graph.total_pbs(),
        total_epochs=total_epochs,
        core_utilization={core: busy[core] / makespan if makespan > 0 else 0.0 for core in cores},
    )


def node_seconds(node: NodeSchedule) -> float:
    """A node's time on the accelerator, from its ready time to its end."""
    return node.end_s - node.start_s


def pbs_per_second(result: ScheduleResult) -> float:
    """PBS/s achieved over a whole schedule (0 for an empty one)."""
    return result.total_pbs / result.total_time_s if result.total_time_s > 0 else 0.0


# -- the fast path == the spec -----------------------------------------------------------


@pytest.fixture(scope="module")
def scheduler() -> StrixScheduler:
    return StrixScheduler(StrixAccelerator())


def assert_same_schedule(scheduler: StrixScheduler, graph: ComputationGraph) -> None:
    """Every ``ScheduleResult`` field equal, floats with ``==`` (dataclass eq)."""
    fast, spec = scheduler.run(graph), spec_run(scheduler, graph)
    assert fast == spec
    assert list(fast.core_utilization) == list(spec.core_utilization)
    assert asdict(fast) == asdict(spec)


def _capacity(scheduler: StrixScheduler, params) -> int:
    return scheduler.accelerator.epoch_capacity(params)


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


class TestRunEqualsSpec:
    @pytest.mark.parametrize("params", PAPER_SETS, ids=lambda params: params.name)
    @pytest.mark.parametrize("size", ["1", "7", "cap-1", "cap", "cap+1", "4096"])
    def test_one_pbs_node(self, scheduler, params, size):
        capacity = _capacity(scheduler, params)
        lwes = {"cap-1": capacity - 1, "cap": capacity, "cap+1": capacity + 1}.get(size)
        assert_same_schedule(scheduler, pbs_batch_graph(params, lwes or int(size)))

    @pytest.mark.parametrize("model", sorted(ZAMA_DEEP_NN_MODELS))
    def test_deep_nn_graphs(self, scheduler, model):
        assert_same_schedule(scheduler, model_graph(model, PARAM_SET_I))

    def test_empty_graph_and_lone_linear_node(self, scheduler):
        assert_same_schedule(scheduler, ComputationGraph(PARAM_SET_I, name="empty"))
        lone = ComputationGraph(PARAM_SET_I, name="lone")
        lone.add_linear_layer("lin", 12, 500)
        assert_same_schedule(scheduler, lone)
        assert scheduler.run(lone).core_utilization == {f"hsc{i}": 0.0 for i in range(8)}

    @settings(max_examples=60, deadline=None)
    @given(graph=dags())
    def test_random_dags_over_every_node_kind(self, scheduler, graph):
        assert_same_schedule(scheduler, graph)


class TestSpecIsThePaper:
    def test_reproduces_the_scheduler_records_of_bench_sim(self, scheduler):
        batch = spec_run(scheduler, pbs_batch_graph(PARAM_SET_I, 4096))
        network = spec_run(scheduler, model_graph("NN-100", DEEP_NN_N1024))
        assert batch.total_time_s == BENCH_SIM["sim/pbs_batch_4096/latency"]
        assert network.total_time_s == BENCH_SIM["sim/deep_nn_100/latency"]
        assert network.total_epochs == BENCH_SIM["sim/deep_nn_100/epochs"]

    @settings(max_examples=100, deadline=None)
    @given(
        params=st.sampled_from(PAPER_SETS),
        kind=st.sampled_from([NodeKind.PBS, NodeKind.KEYSWITCH, NodeKind.PBS_KS]),
        lwes=st.integers(1, 20_000),
    )
    def test_a_pbs_node_runs_one_epoch_per_fragment_plus_one(self, scheduler, params, kind, lwes):
        graph = ComputationGraph(params)
        graph.add_node(ComputationNode("node", kind, lwes))
        (node,) = spec_run(scheduler, graph).node_schedules
        assert node.epochs == blind_rotation_fragments(lwes, _capacity(scheduler, params)) + 1

    @pytest.mark.parametrize("params", PAPER_SETS, ids=lambda params: params.name)
    def test_a_full_epoch_streams_at_the_table_v_throughput(self, scheduler, params):
        capacity = _capacity(scheduler, params)

        def makespan(epochs: int) -> float:
            return spec_run(scheduler, pbs_batch_graph(params, epochs * capacity)).total_time_s

        marginal = capacity / (makespan(65) - makespan(64))
        published = BENCH_SIM[f"sim/pbs_throughput/{params.name}"]
        assert marginal == pytest.approx(published, rel=1e-12)


# -- one memory wall: every reader of a core's iteration time agrees --------------------

#: Table VII's TvLP x CLP splits of the default chip, compute bound to memory bound.
TABLE_VII_CHIPS = tuple(
    STRIX_DEFAULT.with_parallelism(tvlp=tvlp, clp=clp)
    for tvlp, clp in ((16, 2), (8, 4), (4, 8), (2, 16), (1, 32))
)
chips = st.one_of(
    st.sampled_from(TABLE_VII_CHIPS),
    st.builds(
        StrixConfig,
        tvlp=st.integers(1, 16),
        clp=st.sampled_from((1, 2, 4, 8, 16, 32)),
        plp=st.integers(1, 4),
        colp=st.integers(1, 4),
        fft_folding=st.booleans(),
        hbm_bandwidth_gbps=st.floats(5.0, 1000.0),
    ),
)


@settings(max_examples=2 * settings.default.max_examples, deadline=None)
@given(config=chips, params=st.sampled_from(DEFINED_SETS))
def test_a_core_iterates_at_one_memory_wall_on_any_chip(config, params):
    """The scheduler's full epoch streams at ``pbs_throughput``, its lone LWE takes
    ``pbs_latency_ms``, ``plan_epoch`` books its busiest core, and a core's epoch
    seconds never fall as its LWE count grows (what the ``ceil(simple_pbs / tvlp)``
    schedule-cache key stands on)."""
    accelerator = StrixAccelerator(config)
    timings = StrixScheduler(accelerator).epoch_timings(params)
    capacity, tvlp = timings.epoch_capacity, config.tvlp
    full_epoch = max(timings.epoch(capacity)[0])
    assert capacity / full_epoch == pytest.approx(accelerator.pbs_throughput(params), rel=1e-12)
    assert timings.epoch(1)[0][0] * 1e3 == accelerator.pbs_latency_ms(params)
    seconds = []
    for lwes in (1, *range(tvlp, capacity + 1, tvlp)):  # core 0 holds 1, 1, 2, .. core batch
        cores, _ = timings.epoch(lwes)
        plan = accelerator.plan_epoch(params, lwes)
        assert config.cycles_to_seconds(plan.blind_rotation_cycles) == cores[0] == max(cores)
        seconds.append(cores[0])
    assert seconds == sorted(seconds)


# -- Kahn's levels == the round scan ------------------------------------------------------


class TestKahnEqualsSpecOrder:
    @settings(max_examples=100, deadline=None)
    @given(graph=dags())
    def test_identical_node_sequence(self, graph):
        assert graph.topological_order() == spec_order(graph)
        assert [node for level in graph.levels() for node in level] == spec_order(graph)

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
        assert graph.topological_order() == spec_order(graph)

    @pytest.mark.parametrize("order", [ComputationGraph.topological_order, spec_order])
    @pytest.mark.parametrize(
        "node, dependency",
        [("a", "b"), ("b", "never-added"), ("a", "a")],
        ids=["cycle", "ghost", "self"],
    )
    def test_cycle_ghost_and_self_dependency_raise(self, order, node, dependency):
        graph = ComputationGraph(PARAM_SET_I)
        graph.add_pbs_layer("a", 1)
        graph.add_pbs_layer("b", 1, depends_on=["a"])
        graph.node(node).depends_on.append(dependency)  # behind add_node's checks
        with pytest.raises(ValueError, match="dependency cycle"):
            order(graph)
