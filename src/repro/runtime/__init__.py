"""Unified batch-first execution runtime.

The single front door to the whole stack: one workload definition (a
:class:`~repro.sim.compiler.Netlist`, a
:class:`~repro.sim.graph.ComputationGraph` or a Deep-NN model) executes on
any registered backend and always returns a :class:`RunResult`:

* ``"reference"`` — :class:`ReferenceBackend`, functional execution with the
  real TFHE gates/PBS of :mod:`repro.tfhe` (decryptable ground truth);
* ``"strix-sim"`` — :class:`StrixSimBackend`, cycle-level simulation on the
  Strix accelerator model (latency / utilization / energy);
* ``"cpu-analytical"`` / ``"gpu-analytical"`` — :class:`AnalyticalBackend`,
  the paper's Concrete-CPU and NuFHE-GPU cost models.

:class:`Session` owns the key material and adds the batch APIs
(``encrypt_batch`` / ``decrypt_batch`` / ``bootstrap_batch`` /
``gate_batch``) sized to the paper's device x core batch geometry.

Quickstart::

    from repro import Session, run
    from repro.sim.compiler import full_adder_netlist

    session = Session("TOY", seed=0)
    adder = full_adder_netlist(session.params, bits=2)
    functional = run(adder, backend="reference", session=session,
                     inputs={"a0": True, "b0": True, "a1": False, "b1": True})
    simulated = run(adder, backend="strix-sim", params="I", instances=1024)
"""

from repro.runtime.analytical import AnalyticalBackend
from repro.runtime.api import run
from repro.runtime.backend import (
    Backend,
    UnknownBackendError,
    get_backend,
    list_backends,
    register_backend,
    unregister_backend,
)
from repro.runtime.reference import ReferenceBackend
from repro.runtime.result import RunResult
from repro.runtime.session import Session
from repro.runtime.strix import StrixSimBackend
from repro.runtime.workload import WorkloadLike, as_graph, as_netlist, resolve_params


def _strix_cluster_factory(**options):
    """Lazy ``"strix-cluster"`` factory: defer :mod:`repro.serve` imports.

    Registering the real class here would drag the whole serving layer into
    every runtime import (and create a cycle — serve builds on runtime), so
    the registry holds this thunk instead; importing :mod:`repro.serve`
    replaces it with the class itself, which is equivalent.
    """
    from repro.serve.backend import StrixClusterBackend

    return StrixClusterBackend(**options)


register_backend("strix-cluster", _strix_cluster_factory)

__all__ = [
    "AnalyticalBackend",
    "Backend",
    "ReferenceBackend",
    "RunResult",
    "Session",
    "StrixSimBackend",
    "UnknownBackendError",
    "WorkloadLike",
    "as_graph",
    "as_netlist",
    "get_backend",
    "list_backends",
    "register_backend",
    "resolve_params",
    "run",
    "unregister_backend",
]
