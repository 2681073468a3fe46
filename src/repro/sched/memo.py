"""Schedule memoization: price repeated batch shapes in dictionary time.

The event-driven cost model is the faithful one — keyswitch overlap and
epoch fragmentation only show up when the cycle-level scheduler runs the
batch's real graph — but one cycle-level simulation per flushed batch
is what kept the serving tier on the closed-form analytical default.
Serving traffic, however, repeats a handful of batch *shapes*: the adaptive
batcher flushes at a fixed capacity over a stationary request mix, so the
same graphs are re-simulated thousands of times per trace.

:class:`ScheduleCache` exploits that.  It memoizes the event-driven
model's :class:`~repro.sched.cost.BatchCost` results under an LRU policy,
keyed on everything the simulation can observe:

* for a batch with inference requests, its request-mix signature
  (:func:`~repro.sched.cost.batch_mix_signature`), or its linear-free twin's
  (below); for a model-free batch, its PBS count alone (both below); for a
  pipeline stage, a structural graph signature;
* the TFHE parameter set — the *object*, not its name, so a structurally
  tweaked set under a reused name can never alias a cached schedule;
* the device geometry (the device's frozen
  :class:`~repro.arch.config.StrixConfig`) — identical chips share
  entries, heterogeneous ones cannot collide.

A model-free batch is at most a LINEAR op and a PBS+KS op that share no unit
and no dependency, so its makespan is the later of the PBS op's and
``linear_macs(linear_items, n) / linear_macs_per_second`` — the float the
scheduler books for a LINEAR op from 0.0 — and the linear side is priced on
the way out of the cache, not keyed.  A batch with inference requests is keyed as its
linear-free twin ``(0, simple_pbs, models)`` when its linear side ends before
any core ends its share of the PBS+KS op's first epoch, which fills every core.

Both read ``simple_pbs`` as ``ceil(simple_pbs / tvlp)``, on every chip: a
core's iteration is the longer of its pipeline time and its memory wall
(:meth:`~repro.arch.accelerator.StrixAccelerator.core_iteration_cycles`), and
neither falls as its LWE count grows (a lone LWE's pipeline latency is at most
two initiation intervals).  Epochs are dealt round-robin from core 0, so core 0
is the last core free after every epoch of every op, and the schedule reads a
PBS op's count only through its share.  A hit returns the batch's own
``total_pbs``, the one field that differs.

Equal keys imply bit-for-bit equal costs because the scheduler is a
deterministic function of (ordered graph structure, params, config),
:func:`~repro.sched.cost.batch_program` lowers equal signatures to equal op
lists and the rules above are exact.  Cached entries are therefore pure derived
data: they survive :meth:`ScheduleCache.reset` (only the per-simulation
hit/miss counters clear), and eviction can never change a result, only
cost a recomputation.

This module registers :class:`ScheduleCache` as the cost model named
``"event"``, so ``get_cost_model("event")`` — and every ``cost_model="event"``
given by name — is already memoized, in :data:`DEFAULT_COST_CACHE_CAPACITY`
entries.  A cost-model instance is used as given: ``EventDrivenCostModel()``
is the unmemoized bypass and ``ScheduleCache(capacity=n)`` a sized cache.
That is what makes the faithful model affordable as a serving default — see
``docs/performance.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.params import TFHEParameters
from repro.sched.cost import BatchCost, CostModel, EventDrivenCostModel, batch_mix_signature
from repro.sched.cost import _COST_MODELS, _model_linear_seconds
from repro.sim.graph import ComputationGraph, NodeKind, ScheduleProgram, linear_macs
from repro.sim.scheduler import StrixScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.serve.batcher import Batch
    from repro.serve.cluster import StrixDevice

#: Default number of priced schedules kept before LRU eviction (per-entry
#: cost is one :class:`BatchCost`, a few hundred bytes).  ``serve-sim-event``'s
#: three traces at seed 3 fill at most 480 entries each and never evict, at a
#: hit share of 0.92.
DEFAULT_COST_CACHE_CAPACITY = 512


def graph_signature(graph: ComputationGraph) -> tuple:
    """Structural identity of a computation graph, minus its node names.

    Everything the cycle-level scheduler's timing depends on, in insertion
    order: node kind, ciphertext count, per-ciphertext operations and the
    dependency structure (as indices into the node list, so renamed nodes —
    e.g. per-request prefixes — still collide).  Two graphs with equal
    signatures schedule bit-for-bit identically on the same device.
    """
    index_of = {node.name: index for index, node in enumerate(graph.nodes)}
    return tuple(
        (
            node.kind.value,
            node.ciphertexts,
            node.operations_per_ciphertext,
            tuple(sorted(index_of[dep] for dep in node.depends_on)),
        )
        for node in graph.nodes
    )


class ScheduleCache(CostModel):
    """LRU-memoized event-driven pricing: repeated shapes price as a dict lookup.

    Caches :class:`EventDrivenCostModel` results, and is what the registry
    builds for ``"event"``.  The cache is transparent — :attr:`name` is the
    event model's, so serving reports and config round-trips read
    ``"event"`` either way — and exact: memoized results are
    bit-for-bit equal to what the event model would have returned, for every
    layout (whole batches and pipeline stages), with the ``ceil(simple_pbs /
    tvlp)`` key.
    """

    name = EventDrivenCostModel.name

    def __init__(self, capacity: int = DEFAULT_COST_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("a schedule cache needs capacity of at least 1")
        self._event = EventDrivenCostModel()
        #: Entries kept before the least-recently-used one is evicted.
        self.capacity = capacity
        self._entries: dict[tuple, BatchCost] = {}
        #: Hits / misses (priced simulations) / LRU evictions since :meth:`reset`.
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- pricing -----------------------------------------------------------------

    def _memoized(self, key: tuple, price: "Callable[..., BatchCost]", *args) -> BatchCost:
        cost = self._entries.pop(key, None)
        if cost is not None:
            self.hits += 1
            # Move-to-back keeps eviction order LRU (dicts preserve
            # insertion order; the front is always the coldest entry).
            self._entries[key] = cost
            return cost
        self.misses += 1
        cost = price(*args)
        if len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
            self.evictions += 1
        self._entries[key] = cost
        return cost

    def batch_cost(
        self, batch: "Batch", params: TFHEParameters, device: "StrixDevice"
    ) -> BatchCost:
        linear_items, simple_pbs, models = batch_mix_signature(batch)
        config = device.accelerator.config
        # Core 0 is the busiest core, so ceil(simple_pbs / tvlp) prices the
        # PBS op; its own count only sets ``pbs``, filled in below.
        group = -(-simple_pbs // config.tvlp)
        linear_macs_per_second = StrixScheduler.linear_macs_per_second(config)
        linear_s = linear_macs(linear_items, params.n) / linear_macs_per_second  # from 0.0
        if models:
            signature = (linear_items, group, models)
            if linear_items and simple_pbs >= config.tvlp:
                # Once the models' PBS-free LINEAR ops are booked too: if no core
                # has ended its share of the PBS op's first epoch by then, the batch
                # costs what its linear-free twin does (a miss prices the batch).
                for seconds in _model_linear_seconds(models, params, linear_macs_per_second):
                    linear_s += seconds
                timings = device.scheduler.epoch_timings(params)
                if linear_s <= min(timings.node(simple_pbs)[0][0]):
                    signature = (0, group, models)
            key = ("batch", signature, params, config)
            cost = self._memoized(key, self._event.batch_cost, batch, params, device)
        else:
            # At most a LINEAR op and a PBS+KS op, sharing no unit: the makespan
            # is the later of the PBS op's and the LINEAR op's.
            key = ("pbs", group, params, config)
            cost = self._memoized(key, self._pbs_cost, simple_pbs, params, device)
            if linear_s > cost.compute_s:
                return BatchCost(linear_s, batch.total_pbs, cost.epochs, {"event_s": linear_s})
        return cost if cost.pbs == batch.total_pbs else cost._replace(pbs=batch.total_pbs)

    def _pbs_cost(
        self, simple_pbs: int, params: TFHEParameters, device: "StrixDevice"
    ) -> BatchCost:
        op = [(NodeKind.PBS_KS.value, simple_pbs, 0, ())] if simple_pbs else []
        program = ScheduleProgram("pbs", params, ["pbs"] * len(op), op)
        return self._event.stage_cost(program, params, device)

    def stage_cost(
        self,
        stage_graph: ComputationGraph,
        params: TFHEParameters,
        device: "StrixDevice",
    ) -> BatchCost:
        key = ("stage", graph_signature(stage_graph), params, device.accelerator.config)
        return self._memoized(key, self._event.stage_cost, stage_graph, params, device)

    # -- bookkeeping --------------------------------------------------------------

    def reset(self) -> None:
        """Clear per-simulation counters (cached schedules are pure, kept)."""
        self.hits = self.misses = self.evictions = 0

    @property
    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus resident schedule count."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
        }


_COST_MODELS.register(ScheduleCache.name, ScheduleCache)
