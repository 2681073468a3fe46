"""Strix reproduction library.

A from-scratch Python reproduction of "Strix: An End-to-End Streaming
Architecture with Two-Level Ciphertext Batching for Fully Homomorphic
Encryption with Programmable Bootstrapping" (MICRO 2023):

* :mod:`repro.runtime` — the unified batch-first execution API: a
  :class:`Session` owning keys and batch encrypt/decrypt/bootstrap, and a
  :func:`run` facade executing any workload on the ``"reference"``,
  ``"strix-sim"`` and ``"cpu-analytical"`` / ``"gpu-analytical"`` backends.
* :mod:`repro.tfhe` — a functional TFHE implementation (LWE/GLWE/GGSW,
  blind rotation, programmable bootstrapping, keyswitching, gates, LUTs).
* :mod:`repro.fft` — negacyclic FFT transforms including the folding scheme.
* :mod:`repro.arch` — the Strix accelerator model (functional units, HSC
  pipeline, memory system, area/power).
* :mod:`repro.sim` — the cycle-level simulation framework (computation
  graphs, blind-rotation fragments, epoch scheduling, occupancy traces).
* :mod:`repro.sched` — the scheduling core shared by the simulator and
  serving paths: placement layouts (data-parallel / pipeline / elastic)
  and batch cost models (analytical / event-driven).
* :mod:`repro.baselines` — CPU / GPU analytical models and published
  FPGA/ASIC reference points.
* :mod:`repro.apps` — Zama Deep-NN, boolean circuits, workload generators
  and serving-traffic traces.
* :mod:`repro.serve` — the multi-tenant serving layer: request queue,
  adaptive batcher, sharded multi-device :class:`~repro.serve.StrixCluster`
  and the :class:`~repro.serve.Server` facade (sync + asyncio).
* :mod:`repro.analysis` — the experiments reproducing every table and figure
  of the paper's evaluation.
"""

from repro.params import (
    PAPER_PARAMETER_SETS,
    PARAM_SET_I,
    PARAM_SET_II,
    PARAM_SET_III,
    PARAM_SET_IV,
    SMALL_PARAMETERS,
    TOY_PARAMETERS,
    TFHEParameters,
    get_parameters,
)
from repro.runtime import (
    Backend,
    RunResult,
    Session,
    get_backend,
    list_backends,
    run,
)
from repro.sim.compiler import Netlist
from repro.tfhe.context import ServerKeys, TFHEContext

#: Serving-layer names re-exported lazily: the runtime facade should not pay
#: the serving layer's import cost (the registry already defers the
#: ``"strix-cluster"`` backend the same way).
_SERVE_EXPORTS = frozenset({"Server", "StrixCluster"})


def __getattr__(name: str):
    if name in _SERVE_EXPORTS:
        from repro import serve

        return getattr(serve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "1.2.0"

__all__ = [
    "TFHEParameters",
    "PAPER_PARAMETER_SETS",
    "PARAM_SET_I",
    "PARAM_SET_II",
    "PARAM_SET_III",
    "PARAM_SET_IV",
    "TOY_PARAMETERS",
    "SMALL_PARAMETERS",
    "get_parameters",
    "Backend",
    "Netlist",
    "RunResult",
    "Server",
    "ServerKeys",
    "Session",
    "StrixCluster",
    "TFHEContext",
    "get_backend",
    "list_backends",
    "run",
    "__version__",
]
