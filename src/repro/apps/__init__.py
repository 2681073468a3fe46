"""Application workloads.

The workloads the paper motivates and evaluates:

* :mod:`repro.apps.deep_nn` — the Zama Deep-NN models (NN-20 / NN-50 /
  NN-100) of the Fig. 7 application benchmark and a small dense MLP.
* :mod:`repro.apps.boolean_circuits` — gate-level circuits (comparators; the
  adder is :func:`repro.sim.compiler.full_adder_netlist`).
* :mod:`repro.apps.tree_inference` — decision trees (``tree_netlist``) and
  forests whose vote count stays encrypted (``forest_netlist``).

Every application is defined once, as a :class:`~repro.sim.compiler.Netlist`
builder; ``run(netlist, backend="reference", inputs=...)`` executes it on
encrypted inputs, the only functional executor, and
``compile_netlist(netlist, instances)`` prices it, the only pricer.
* :mod:`repro.apps.workloads` — generic workload generators (PBS batches,
  LUT pipelines) used by the microbenchmarks and tests.
* :mod:`repro.apps.traffic` — serving-traffic request traces (steady /
  bursty / heavy-tail arrival patterns) for :mod:`repro.serve`.
"""

from repro.apps.deep_nn import DeepNNModel, ZAMA_DEEP_NN_MODELS, deep_nn_netlist
from repro.apps.boolean_circuits import equals_netlist, greater_than_netlist
from repro.apps.tree_inference import forest_netlist, tree_netlist
from repro.apps.workloads import pbs_batch_graph, lut_pipeline_graph, gate_workload_graph

#: Names re-exported lazily from :mod:`repro.apps.traffic`.  The traffic
#: generators build :class:`repro.serve.request.Request` objects, and the
#: serve layer builds on the runtime, which imports this package while it is
#: itself still initializing — so the import has to wait until first use.
_TRAFFIC_EXPORTS = frozenset(
    {"TRAFFIC_PATTERNS", "steady_trace", "bursty_trace", "heavy_tail_trace"}
)


def __getattr__(name: str):
    if name in _TRAFFIC_EXPORTS:
        from repro.apps import traffic

        return getattr(traffic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DeepNNModel",
    "ZAMA_DEEP_NN_MODELS",
    "deep_nn_netlist",
    "equals_netlist",
    "greater_than_netlist",
    "tree_netlist",
    "forest_netlist",
    "pbs_batch_graph",
    "lut_pipeline_graph",
    "gate_workload_graph",
    "TRAFFIC_PATTERNS",
    "steady_trace",
    "bursty_trace",
    "heavy_tail_trace",
]
