"""Workload normalization: one front door for every workload description.

The stack grew three ways of describing a workload — gate-level
:class:`~repro.sim.compiler.Netlist` circuits, aggregate
:class:`~repro.sim.graph.ComputationGraph` DAGs, and the
:class:`~repro.apps.deep_nn.DeepNNModel` application descriptions — and every
consumer used to pick one.  The runtime accepts any of them (plus Deep-NN
model names like ``"NN-20"``) and lowers them to the representation a backend
needs.
"""

from __future__ import annotations

from typing import Union

from repro.apps.deep_nn import ZAMA_DEEP_NN_MODELS, DeepNNModel, build_deep_nn_graph
from repro.params import PARAM_SET_I, TFHEParameters, get_parameters
from repro.sim.compiler import Netlist, compile_netlist
from repro.sim.graph import ComputationGraph

#: Everything :func:`repro.runtime.run` accepts as a workload.
WorkloadLike = Union[Netlist, ComputationGraph, DeepNNModel, str]


def resolve_params(
    params: TFHEParameters | str | None, default: TFHEParameters | None = None
) -> TFHEParameters | None:
    """Resolve a parameter-set argument (object, name, or ``None``)."""
    if params is None:
        return default
    if isinstance(params, str):
        return get_parameters(params)
    return params


def workload_params(workload: WorkloadLike) -> TFHEParameters | None:
    """The parameter set a workload was built with, when it carries one."""
    if isinstance(workload, (Netlist, ComputationGraph)):
        return workload.params
    return None


def as_netlist(workload: WorkloadLike, params: TFHEParameters | str | None = None) -> Netlist:
    """Lower a workload to a :class:`Netlist`, or explain why it cannot be.

    Only netlists carry operation-level semantics (which gate, which LUT
    function), so only they can be executed *functionally*; aggregate graphs
    and model descriptions only know PBS counts.
    """
    if not isinstance(workload, Netlist):
        raise TypeError(
            f"functional execution needs a Netlist (got {type(workload).__name__}); "
            "computation graphs and Deep-NN models only carry operation counts, "
            "not operation semantics — use a performance backend for those"
        )
    resolved = resolve_params(params, default=workload.params)
    if resolved != workload.params:
        return workload.with_params(resolved)
    return workload


def as_graph(
    workload: WorkloadLike,
    params: TFHEParameters | str | None = None,
    instances: int = 1,
) -> ComputationGraph:
    """Lower any workload description to a :class:`ComputationGraph`.

    ``instances`` replicates a netlist over independent inputs (the batching
    knob); graphs and Deep-NN models describe a fixed shape, so replication
    is only supported for netlists.
    """
    if instances < 1:
        raise ValueError("instances must be at least 1")
    if isinstance(workload, str):
        try:
            workload = ZAMA_DEEP_NN_MODELS[workload]
        except KeyError:
            raise KeyError(
                f"unknown workload {workload!r}; known Deep-NN models: "
                f"{sorted(ZAMA_DEEP_NN_MODELS)}"
            ) from None
    if isinstance(workload, Netlist):
        return compile_netlist(as_netlist(workload, params), instances)
    if instances != 1:
        raise ValueError(
            "instances > 1 is only supported for Netlist workloads; replicate "
            "graphs explicitly when building them"
        )
    if isinstance(workload, ComputationGraph):
        resolved = resolve_params(params, default=workload.params)
        if resolved != workload.params:
            return workload.with_params(resolved)
        return workload
    if isinstance(workload, DeepNNModel):
        resolved = resolve_params(params, default=PARAM_SET_I)
        return build_deep_nn_graph(workload, resolved)
    raise TypeError(
        f"unsupported workload type {type(workload).__name__}; expected a "
        "Netlist, ComputationGraph, DeepNNModel or Deep-NN model name"
    )
