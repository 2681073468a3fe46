"""``run()``: the single entry point of the execution runtime.

One call executes one workload on one backend::

    from repro import run

    result = run(netlist, backend="strix-sim", params="I", instances=1024)

and because every backend returns the same :class:`RunResult`, comparing
platforms is a loop over backend names — the workload definition never
changes.
"""

from __future__ import annotations

from typing import Any

from repro.params import TFHEParameters
from repro.runtime.backend import Backend, get_backend
from repro.runtime.result import RunResult
from repro.runtime.session import Session
from repro.runtime.workload import WorkloadLike


def run(
    workload: WorkloadLike,
    backend: str | Backend = "strix-sim",
    params: TFHEParameters | str | None = None,
    *,
    session: Session | None = None,
    inputs: Any = None,
    instances: int = 1,
    **options: Any,
) -> RunResult:
    """Execute a workload on a named (or explicit) backend.

    Parameters
    ----------
    workload:
        A :class:`~repro.sim.compiler.Netlist`, a
        :class:`~repro.sim.graph.ComputationGraph`, a
        :class:`~repro.apps.deep_nn.DeepNNModel`, or a Deep-NN model name
        (``"NN-20"``).
    backend:
        Registry name (``"reference"``, ``"strix-sim"``, ``"cpu-analytical"``,
        ``"gpu-analytical"``, ``"strix-cluster"``) or a :class:`Backend`
        instance for configured backends (e.g.
        ``AnalyticalBackend("cpu", threads=48)``).  Unknown names raise the
        shared did-you-mean error
        (:class:`~repro.errors.UnknownNameError`), listing every
        registered backend.
    params:
        Parameter set (object or name) overriding the workload's own; netlists
        and graphs are rebound structurally, so the same circuit can be
        executed functionally on TOY parameters and simulated under set I.
    session:
        Key-owning :class:`Session`; required semantics only for the
        reference backend (created on demand there), carries the accelerator
        configuration for the simulator.
    inputs:
        Primary-input values for functional execution (reference backend).
    instances:
        Netlist replication factor — the batching knob; at least 1 on every
        backend.  The reference backend runs the netlist level by level, one
        stack per level (every instance of every bootstrap in the level),
        cut into epochs.
    options:
        Additional backend-specific keywords (e.g. ``outputs=`` for the
        reference backend).  The ``"strix-cluster"`` backend understands
        three cluster-shaping options, all string-registered with
        did-you-mean errors:

        * ``devices=N`` — number of simulated Strix chips (default 4);
        * ``policy=`` — sharding policy: ``"round-robin"`` /
          ``"least-loaded"`` / ``"key-affinity"``
          (:mod:`repro.serve.sharding`);
        * ``layout=`` — placement layout: ``"data-parallel"`` (per-node
          ciphertext splits), ``"pipeline"`` (stage-per-device with
          inter-stage transfers) or ``"elastic"`` (autoscaled active
          subset) — see :mod:`repro.sched.layouts`.

        ``run("NN-100", backend="strix-cluster", devices=4,
        layout="pipeline")`` is the canonical multi-device call.
    """
    resolved = backend if isinstance(backend, Backend) else get_backend(backend)
    return resolved.run(
        workload,
        params=params,
        session=session,
        inputs=inputs,
        instances=instances,
        **options,
    )

