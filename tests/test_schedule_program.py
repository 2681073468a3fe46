"""A serving batch lowered straight to the scheduler's op list schedules as its graph does.

``batch_program`` lowers a batch to ``(kind, ciphertexts, operations,
depends_on)`` ops without building a graph, and ``batch_graph`` is that
lowering turned into nodes.  Both are held to ``spec_run`` — the paper's epoch
rule in ``test_scheduler_spec.py`` — field for field, in the circlestark
``test_fast_fri`` idiom, and to a batch graph built request by request from
each model's own ``build_deep_nn_graph``.  The serving gate counts
calls with wrappers the test installs: every schedule-cache miss enters
``StrixScheduler.run``, and a data-parallel miss builds no graph at all.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_scheduler_spec import spec_run

from repro.apps.deep_nn import ZAMA_DEEP_NN_MODELS, build_deep_nn_graph
from repro.apps.traffic import steady_trace
from repro.params import PARAM_SET_I, PARAM_SET_II, PARAM_SET_III, PARAM_SET_IV
from repro.sched import EventDrivenCostModel, batch_graph, partition_graph_stages
from repro.sched import layouts
from repro.sched.cost import batch_program
from repro.serve import Request, Server, StrixCluster
from repro.serve.batcher import Batch
from repro.sim.graph import ComputationGraph, ComputationNode
from repro.sim.scheduler import StrixScheduler

PAPER_SETS = (PARAM_SET_I, PARAM_SET_II, PARAM_SET_III, PARAM_SET_IV)


def make_batch(*specs: tuple, batch_id: int = 7) -> Batch:
    """A batch of ``(kind, items, model)`` requests, in the order given."""
    requests = tuple(
        Request.make(index + 1, f"t{index % 3}", kind, items, model=model)
        for index, (kind, items, model) in enumerate(specs)
    )
    return Batch(batch_id=batch_id, requests=requests, created_s=0.0, flush_reason="full")


def graph_from_the_models(batch: Batch, params) -> ComputationGraph:
    """The batch graph built request by request from each model's own graph."""
    linear_items, simple_pbs, model_requests = batch.request_mix
    graph = ComputationGraph(params, name=f"batch-{batch.batch_id}")
    if linear_items:
        graph.add_linear_layer("linear", linear_items, params.n)
    if simple_pbs:
        graph.add_pbs_layer("pbs", simple_pbs)
    for request in model_requests:
        prefix = f"req{request.request_id}/"
        for node in build_deep_nn_graph(ZAMA_DEEP_NN_MODELS[request.model], params):
            graph.add_node(
                ComputationNode(
                    name=prefix + node.name,
                    kind=node.kind,
                    ciphertexts=node.ciphertexts * request.items,
                    operations_per_ciphertext=node.operations_per_ciphertext,
                    depends_on=[prefix + dependency for dependency in node.depends_on],
                )
            )
    return graph


simple_requests = st.tuples(
    st.sampled_from(["encrypt", "gate", "bootstrap"]), st.integers(1, 600), st.none()
)
inference_requests = st.tuples(
    st.just("inference"), st.integers(1, 3), st.sampled_from(sorted(ZAMA_DEEP_NN_MODELS))
)
request_specs = st.one_of(simple_requests, inference_requests)
#: Arrival order is drawn too: ``request_mix`` sorts the model requests.
batches = st.lists(request_specs, min_size=1, max_size=5).map(lambda specs: make_batch(*specs))

LINEAR_ONLY = make_batch(("encrypt", 40, None), ("encrypt", 3, None))
PBS_ONLY = make_batch(("gate", 513, None))
UNSORTED = make_batch(
    ("inference", 1, "NN-100"),
    ("bootstrap", 9, None),
    ("inference", 3, "NN-20"),
    ("encrypt", 5, None),
    ("inference", 2, "NN-50"),
    ("inference", 1, "NN-20"),
)


@settings(max_examples=50, deadline=None)
@given(batch=batches, params=st.sampled_from(PAPER_SETS))
@example(batch=LINEAR_ONLY, params=PARAM_SET_I)
@example(batch=PBS_ONLY, params=PARAM_SET_IV)
@example(batch=UNSORTED, params=PARAM_SET_III)
def test_batch_program_schedules_as_the_spec(batch, params):
    device = StrixCluster(devices=1).devices[0]
    program = batch_program(batch, params)
    graph = batch_graph(batch, params)
    assert graph.compile() == program
    assert graph_from_the_models(batch, params).compile() == program

    fast, spec = device.scheduler.run(program), spec_run(device.scheduler, graph)
    assert fast == spec
    assert [node.node for node in fast.node_schedules] == program.names
    assert list(fast.core_utilization) == list(spec.core_utilization)
    assert asdict(fast) == asdict(spec)

    cost = EventDrivenCostModel().batch_cost(batch, params, device)
    assert cost.compute_s == spec.total_time_s
    assert (cost.pbs, cost.epochs) == (spec.total_pbs, spec.total_epochs)

    for stages in (2, 4):
        for stage in partition_graph_stages(graph, stages).graphs:
            fast, spec = device.scheduler.run(stage), spec_run(device.scheduler, stage)
            assert fast == spec
            assert list(fast.core_utilization) == list(spec.core_utilization)
            assert asdict(fast) == asdict(spec)


def count_calls(monkeypatch, owner, name: str, counts: Counter) -> None:
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[f"{owner.__name__}.{name}"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_every_miss_enters_run_and_a_whole_batch_miss_builds_no_graph(monkeypatch):
    trace = steady_trace(1500.0, 2.0, seed=3)
    batch_program(make_batch(("inference", 1, "NN-20")), PARAM_SET_I)  # the model template
    counts = Counter()
    count_calls(monkeypatch, StrixScheduler, "run", counts)
    count_calls(monkeypatch, ComputationGraph, "levels", counts)
    count_calls(monkeypatch, ComputationNode, "__init__", counts)
    report = Server(devices=4, params="I", cost_model="event").simulate(trace)
    assert report.metrics.cost_cache["misses"] > 0
    assert counts["StrixScheduler.run"] == report.metrics.cost_cache["misses"]
    assert counts["ComputationNode.__init__"] == 0
    assert counts["ComputationGraph.levels"] == 0


def test_pipeline_report_equals_the_spec_on_model_built_graphs(monkeypatch):
    trace = steady_trace(1500.0, 2.0, seed=3)
    fast = Server(devices=4, params="I", layout="pipeline", cost_model="event").simulate(trace)
    monkeypatch.setattr(layouts, "batch_graph", graph_from_the_models)
    monkeypatch.setattr(StrixScheduler, "run", spec_run)
    spec = Server(devices=4, params="I", layout="pipeline", cost_model="event").simulate(trace)
    assert fast.metrics.cost_cache["misses"] > 0
    assert fast == spec
