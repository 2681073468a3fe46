"""Schedule memoization: price repeated batch shapes in dictionary time.

The event-driven cost model is the faithful one — keyswitch overlap and
epoch fragmentation only show up when the cycle-level scheduler runs the
batch's real graph — but one cycle-level simulation per flushed batch
is what kept the serving tier on the closed-form analytical default.
Serving traffic, however, repeats a handful of batch *shapes*: the adaptive
batcher flushes at a fixed capacity over a stationary request mix, so the
same graphs are re-simulated thousands of times per trace.

:class:`ScheduleCache` exploits that.  It wraps any
:class:`~repro.sched.cost.CostModel` (the event-driven one in practice)
and memoizes :class:`~repro.sched.cost.BatchCost` results under an LRU
policy, keyed on everything the wrapped simulation can observe:

* the batch's request-mix signature
  (:func:`~repro.sched.cost.batch_mix_signature`) for whole-batch pricing,
  or a structural graph signature for pipeline-stage pricing;
* the TFHE parameter set — the *object*, not its name, so a structurally
  tweaked set under a reused name can never alias a cached schedule;
* the device geometry (the device's frozen
  :class:`~repro.arch.config.StrixConfig`) — identical chips share
  entries, heterogeneous ones cannot collide.

Equal keys imply bit-for-bit equal schedules because the scheduler is a
deterministic function of (ordered graph structure, params, config) and
:func:`~repro.sched.cost.batch_program` lowers equal signatures to equal
op lists.  Cached entries are therefore pure derived
data: they survive :meth:`ScheduleCache.reset` (only the per-simulation
hit/miss counters clear), and eviction can never change a result, only
cost a recomputation.

The cluster wraps ``cost_model="event"``, given by name, in a
:class:`ScheduleCache` of :data:`DEFAULT_COST_CACHE_CAPACITY` entries
automatically (a cost-model instance is used as given, so passing
``EventDrivenCostModel()`` or a sized ``ScheduleCache`` is how to bypass or
size it), which is what makes the faithful model affordable as a serving
default — see ``docs/performance.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.params import TFHEParameters
from repro.sched.cost import (
    BatchCost,
    CostModel,
    batch_mix_signature,
    get_cost_model,
)
from repro.sim.graph import ComputationGraph

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.serve.batcher import Batch
    from repro.serve.cluster import StrixDevice

#: Default number of priced schedules kept before LRU eviction.  Steady
#: traffic repeats a handful of shapes; 512 comfortably holds a multi-tenant
#: mix (per-entry cost is one :class:`BatchCost`, a few hundred bytes).
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
    """LRU-memoized cost model: repeated shapes price as a dict lookup.

    Wraps ``inner`` (a cost model name or instance; the event-driven model
    by default) and caches its :class:`BatchCost` results.  The wrapper is
    transparent — :attr:`name` reports the inner model's registry name, so
    serving reports and config round-trips are unchanged — and exact:
    memoized results are bit-for-bit equal to what the inner model would
    have returned, for every layout (whole batches and pipeline stages).
    """

    def __init__(
        self,
        inner: "str | CostModel" = "event",
        capacity: int = DEFAULT_COST_CACHE_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError("a schedule cache needs capacity of at least 1")
        self.inner = get_cost_model(inner)
        #: Entries kept before the least-recently-used one is evicted.
        self.capacity = capacity
        self._entries: dict[tuple, BatchCost] = {}
        #: Hits / misses (priced simulations) / LRU evictions since :meth:`reset`.
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def name(self) -> str:  # type: ignore[override]
        """The wrapped model's registry name (the cache is transparent)."""
        return self.inner.name

    # -- pricing -----------------------------------------------------------------

    def _memoized(self, key: tuple, price: "Callable[[], BatchCost]") -> BatchCost:
        cost = self._entries.pop(key, None)
        if cost is not None:
            self.hits += 1
            # Move-to-back keeps eviction order LRU (dicts preserve
            # insertion order; the front is always the coldest entry).
            self._entries[key] = cost
            return cost
        self.misses += 1
        cost = price()
        if len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
            self.evictions += 1
        self._entries[key] = cost
        return cost

    def batch_cost(
        self, batch: "Batch", params: TFHEParameters, device: "StrixDevice"
    ) -> BatchCost:
        key = ("batch", batch_mix_signature(batch), params, device.accelerator.config)
        return self._memoized(key, lambda: self.inner.batch_cost(batch, params, device))

    def stage_cost(
        self,
        stage_graph: ComputationGraph,
        params: TFHEParameters,
        device: "StrixDevice",
    ) -> BatchCost:
        key = ("stage", graph_signature(stage_graph), params, device.accelerator.config)
        return self._memoized(
            key, lambda: self.inner.stage_cost(stage_graph, params, device)
        )

    # -- bookkeeping --------------------------------------------------------------

    def reset(self) -> None:
        """Clear per-simulation counters (cached schedules are pure, kept)."""
        self.inner.reset()
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
