"""Application workloads.

The workloads the paper motivates and evaluates:

* :mod:`repro.apps.deep_nn` — the Zama Deep-NN models (NN-20 / NN-50 /
  NN-100) used in the Fig. 7 application benchmark as computation graphs for
  the simulator, and a small dense MLP as a netlist builder.
* :mod:`repro.apps.boolean_circuits` — gate-level circuits (comparators; the
  adder is :func:`repro.sim.compiler.full_adder_netlist`) as netlist builders
  and priced graphs.
* :mod:`repro.apps.tree_inference` — decision trees as netlist builders and
  priced forest graphs.

Every application is defined once, as a :class:`~repro.sim.compiler.Netlist`
builder; ``run(netlist, backend="reference", inputs=...)`` executes it on
encrypted inputs, the only functional executor.
* :mod:`repro.apps.workloads` — generic workload generators (PBS batches,
  LUT pipelines) used by the microbenchmarks and tests.
* :mod:`repro.apps.traffic` — serving-traffic request traces (steady /
  bursty / heavy-tail arrival patterns) for :mod:`repro.serve`.
"""

from repro.apps.deep_nn import DeepNNModel, ZAMA_DEEP_NN_MODELS, build_deep_nn_graph
from repro.apps.boolean_circuits import boolean_circuit_graph
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
    "build_deep_nn_graph",
    "boolean_circuit_graph",
    "pbs_batch_graph",
    "lut_pipeline_graph",
    "gate_workload_graph",
    "TRAFFIC_PATTERNS",
    "steady_trace",
    "bursty_trace",
    "heavy_tail_trace",
]
