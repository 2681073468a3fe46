"""Batch cost models: how a serving batch's service time is priced.

The serving path dispatches flushed batches to devices; *how long* a batch
occupies its device is the cost model's answer.  Two implementations share
one protocol:

* :class:`AnalyticalCostModel` — the closed-form epoch-stream shortcut
  (``pbs_batch_time_ms`` plus host-side linear work).  Fast — thousands of
  batches per second of wall clock — and the default, because it reproduces
  the pre-refactor serving numbers bit-for-bit.
* :class:`EventDrivenCostModel` — lowers the batch's real request
  composition to the scheduler's op list (:func:`batch_program`: encryption
  traffic → a LINEAR op, gate/bootstrap traffic → a fused PBS+KS op, each
  inference request → its model's full layer graph) and runs the
  cycle-level :class:`~repro.sim.scheduler.StrixScheduler` on it.  Slower,
  but per-epoch keyswitch overlap, epoch fragmentation across dependency
  levels and blind-rotation/linear overlap become visible in serving
  latency.

Cost models price *compute residency only*; interconnect transfers,
dispatch overhead and key shipping are charged by the placement layout so
the same cost model composes with every layout.
"""

from __future__ import annotations

import abc
import functools
from typing import TYPE_CHECKING, NamedTuple

from repro.errors import UnknownCostModelError
from repro.params import TFHEParameters
from repro.registry import Registry
from repro.sim.compiler import compile_netlist
from repro.sim.graph import (
    ComputationGraph,
    ComputationNode,
    NodeKind,
    ScheduleProgram,
    linear_macs,
)
from repro.sim.scheduler import StrixScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.serve.batcher import Batch
    from repro.serve.cluster import StrixDevice


class BatchCost(NamedTuple):
    """Compute residency of one batch (or one pipeline stage) on one device.

    A named tuple: one is built per priced batch, and the schedule cache
    hands the same one to many batches, so nobody may assign to it.

    Attributes
    ----------
    compute_s:
        Seconds the device's compute pipelines are occupied.  Excludes
        interconnect transfers, key shipping and dispatch overhead — those
        belong to the placement layout.
    pbs:
        Bootstraps executed (what the stage contributes to device PBS
        counters).
    epochs:
        Scheduling epochs the work decomposed into.
    breakdown:
        Named components of ``compute_s`` (e.g. ``pbs_s`` / ``linear_s``
        for the analytical model, ``event_s`` for the event-driven one).
    """

    compute_s: float
    pbs: int
    epochs: int
    breakdown: dict[str, float]


def batch_mix_signature(batch: "Batch") -> tuple:
    """Canonical request-mix signature of a serving batch.

    Two batches with equal signatures lower (via :func:`batch_program`) to
    structurally identical op lists — identical node kinds, ciphertext
    counts, per-ciphertext operations, dependencies *and node order* —
    because both functions read the same
    :attr:`~repro.serve.batcher.Batch.request_mix` buckets (model requests
    sorted into signature order, classified once, when the batch is built).
    Request ids, tenants and arrival times deliberately do not appear: they
    never influence the graph shape, so the event model's schedule cache
    (:class:`repro.sched.memo.ScheduleCache`) keys a batch with inference
    requests on this signature or its linear-free twin's, a model-free batch
    on its ``simple_pbs`` alone (its ``linear_items`` are priced, not keyed).
    """
    linear_items, simple_pbs, model_requests = batch.request_mix
    models = tuple((request.model, request.items) for request in model_requests)
    return (linear_items, simple_pbs, models)


#: Per model name: one single-sample inference, compiled from its netlist
#: (which is dropped) and cut into its dependency levels — ``(name, op)``
#: pairs whose ``op`` depends on positions in the model's own op list.  The
#: ops do not depend on the parameter set, so the first set a model is
#: served under builds them.  Pure derived data, one entry per model.
_MODEL_TEMPLATES: dict[str, tuple[tuple[tuple, ...], ...]] = {}


def _model_template(model: str, params: TFHEParameters) -> tuple[tuple[tuple, ...], ...]:
    template = _MODEL_TEMPLATES.get(model)
    if template is None:
        from repro.apps.deep_nn import ZAMA_DEEP_NN_MODELS, deep_nn_netlist

        graph = compile_netlist(deep_nn_netlist(ZAMA_DEEP_NN_MODELS[model], params))
        program = graph.compile()  # its ops run level by level
        ops = zip(program.names, program.ops)
        template = tuple(tuple(next(ops) for _ in level) for level in graph.levels())
        _MODEL_TEMPLATES[model] = template
    return template


def batch_program(batch: "Batch", params: TFHEParameters) -> ScheduleProgram:
    """Lower a serving batch straight to the scheduler's op list.

    PBS-free requests (encryption traffic) coalesce into one LINEAR op and
    fixed-cost bootstrap/gate requests into one fused PBS+KS op — the
    batcher packs them into a single epoch stream, so per-request nodes
    would overstate fragmentation.  Inference requests keep their model's
    full layer structure (scaled by the request's sample count), because the
    layer dependencies are exactly what limits batching and produces the
    fragmentation/keyswitch effects the event-driven model exists to see.

    The linear op, the PBS op, then the model requests' ops from
    :func:`_lowered_models`: the order :meth:`~repro.sim.graph.ComputationGraph.compile`
    gives the same batch as a graph (:func:`batch_graph`), at no graph's
    cost — this runs once per schedule-cache miss.
    """
    linear_items, simple_pbs, model_requests = batch.request_mix
    names: list[str] = []
    ops: list[tuple[str, int, int, tuple[int, ...]]] = []
    if linear_items:
        names.append("linear")
        ops.append((NodeKind.LINEAR.value, linear_items, params.n, ()))
    if simple_pbs:
        names.append("pbs")
        ops.append((NodeKind.PBS_KS.value, simple_pbs, 0, ()))
    if model_requests:
        models = tuple((request.model, request.items) for request in model_requests)
        model_names, model_ops = _lowered_models(models, len(ops), params)
        prefixes = [f"req{request.request_id}/" for request in model_requests]
        names += [prefixes[index] + name for index, name in model_names]
        ops += model_ops
    return ScheduleProgram(f"batch-{batch.batch_id}", params, names, ops)


@functools.lru_cache(maxsize=256)
def _lowered_models(models: tuple, first: int, params: TFHEParameters) -> tuple[tuple, tuple]:
    """The ops of a batch's ``(model, items)`` requests, placed from ``first``.

    The requests' template levels interleave level by level; each op comes
    with ``(request index, template name)`` for its caller to prefix.  Pure
    derived data, kept for the 256 most recently lowered mixes.
    """
    requests = [(items, _model_template(model, params), []) for model, items in models]
    names, ops = [], []
    for level in range(max(len(template) for _, template, _ in requests)):
        for index, (items, template, placed) in enumerate(requests):
            if level < len(template):
                for name, (kind, ciphertexts, operations, depends_on) in template[level]:
                    placed.append(first + len(ops))
                    names.append((index, name))
                    dependencies = tuple(map(placed.__getitem__, depends_on))
                    ops.append((kind, ciphertexts * items, operations, dependencies))
    return tuple(names), tuple(ops)


@functools.lru_cache(maxsize=256)
def _model_linear_seconds(models: tuple, params: TFHEParameters, macs_per_s: float) -> tuple:
    """What each of the models' LINEAR ops with no PBS ancestor adds to the
    linear unit's free time, in booking order (each starts when the unit frees)."""
    after_pbs: list[bool] = []
    seconds = []
    for kind, ciphertexts, operations, depends_on in _lowered_models(models, 0, params)[1]:
        after_pbs.append(kind != "linear" or any(map(after_pbs.__getitem__, depends_on)))
        if not after_pbs[-1]:
            seconds.append(linear_macs(ciphertexts, operations) / macs_per_s)
    return tuple(seconds)


def batch_graph(batch: "Batch", params: TFHEParameters) -> ComputationGraph:
    """A serving batch as a graph: :func:`batch_program`'s ops as nodes.

    What reads graph structure (the pipeline layout's stage cut) uses it;
    it compiles back to exactly the ops it was built from.
    """
    name, _, names, ops = batch_program(batch, params)
    graph = ComputationGraph(params, name=name)
    for node, (kind, ciphertexts, operations, depends_on) in zip(names, ops):
        dependencies = [names[dependency] for dependency in depends_on]
        graph.add_node(ComputationNode(node, NodeKind(kind), ciphertexts, operations, dependencies))
    return graph


class CostModel(abc.ABC):
    """Prices serving batches (and pipeline stages) on one device."""

    #: Registry name of the cost model.
    name = ""

    @abc.abstractmethod
    def batch_cost(
        self, batch: "Batch", params: TFHEParameters, device: "StrixDevice"
    ) -> BatchCost:
        """Compute residency of the whole batch executing on ``device``."""

    @abc.abstractmethod
    def stage_cost(
        self,
        stage_graph: ComputationGraph,
        params: TFHEParameters,
        device: "StrixDevice",
    ) -> BatchCost:
        """Compute residency of one pipeline-stage subgraph on ``device``."""

    def reset(self) -> None:
        """Clear per-simulation state (default: stateless).

        Memoizing models (:class:`repro.sched.memo.ScheduleCache`) clear
        their hit/miss counters here; cached schedules are pure derived
        data and survive.
        """

    @property
    def cache_stats(self) -> dict[str, int]:
        """Schedule-cache counters (empty for models that don't memoize)."""
        return {}


class AnalyticalCostModel(CostModel):
    """Closed-form epoch-stream pricing (the fast default).

    Bootstraps stream through the device's epoch pipeline
    (``pbs_batch_time_ms``, which already folds keyswitch drain into the
    final epoch); PBS-free items only cost host-side linear work on the
    vector pipeline.  This is exactly the arithmetic the serving tier used
    before the scheduling core existed, term for term, so one device plus
    this model reproduces historical serving numbers bit-for-bit.
    """

    name = "analytical"

    def batch_cost(
        self, batch: "Batch", params: TFHEParameters, device: "StrixDevice"
    ) -> BatchCost:
        return self._closed_form(
            batch.total_pbs, linear_macs(batch.request_mix[0], params.n), params, device
        )

    def stage_cost(
        self,
        stage_graph: ComputationGraph,
        params: TFHEParameters,
        device: "StrixDevice",
    ) -> BatchCost:
        return self._closed_form(
            stage_graph.total_pbs(), stage_graph.total_linear_operations(), params, device
        )

    @staticmethod
    def _closed_form(
        pbs: int, macs: int, params: TFHEParameters, device: "StrixDevice"
    ) -> BatchCost:
        """``pbs`` bootstraps streamed as epochs, then ``macs`` on the linear unit."""
        accelerator = device.accelerator
        pbs_s = accelerator.pbs_batch_time_ms(params, pbs) / 1e3
        linear_s = macs / StrixScheduler.linear_macs_per_second(accelerator.config)
        return BatchCost(
            pbs_s + linear_s,
            pbs,
            -(-pbs // accelerator.epoch_capacity(params)),
            {"pbs_s": pbs_s, "linear_s": linear_s},
        )


class EventDrivenCostModel(CostModel):
    """Cycle-level pricing: run the batch's real graph on the scheduler.

    Service times differ from the analytical model only through
    scheduler-visible effects — per-epoch keyswitch overlap, epoch
    fragmentation across a model's dependency levels, and linear work
    overlapping blind rotation on its own resource — at the cost of one
    scheduler run per batch.

    This is the unmemoized oracle: ``"event"`` by name resolves to the
    memoized :class:`~repro.sched.memo.ScheduleCache`, which prices its
    misses with one of these, and an instance passed as a cost model
    bypasses the cache.
    """

    name = "event"

    def batch_cost(
        self, batch: "Batch", params: TFHEParameters, device: "StrixDevice"
    ) -> BatchCost:
        return self.stage_cost(batch_program(batch, params), params, device)

    def stage_cost(
        self,
        stage_graph: ComputationGraph | ScheduleProgram,
        params: TFHEParameters,
        device: "StrixDevice",
    ) -> BatchCost:
        schedule = device.scheduler.run(stage_graph)
        if not schedule.node_schedules:
            return BatchCost(compute_s=0.0, pbs=0, epochs=0, breakdown={})
        return BatchCost(
            compute_s=schedule.total_time_s,
            pbs=schedule.total_pbs,
            epochs=schedule.total_epochs,
            breakdown={"event_s": schedule.total_time_s},
        )


#: ``"event"`` is registered by :mod:`repro.sched.memo`, as the memoized
#: :class:`~repro.sched.memo.ScheduleCache`.
_COST_MODELS: Registry[CostModel] = Registry(
    UnknownCostModelError, CostModel, (AnalyticalCostModel,)
)

#: Names of all registered cost models, sorted.
list_cost_models = _COST_MODELS.names


def get_cost_model(model: "str | CostModel") -> CostModel:
    """Resolve a cost-model name (or pass an instance through).

    Raises :class:`~repro.errors.UnknownCostModelError` — the shared
    did-you-mean shape — for unknown names.
    """
    return _COST_MODELS.get(model)
