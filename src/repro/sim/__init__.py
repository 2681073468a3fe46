"""Cycle-level simulation framework.

The paper evaluates Strix with "a custom cycle-level simulator [that]
converts the input workload as a computational graph with nodes, where each
node mainly represents either bootstrapping or keyswitching or a combination
of both operations.  Each node in the graph will further be decomposed into
several blind rotation fragments." (Section VI-B).

This package reproduces that simulator:

* :mod:`repro.sim.graph` — computational graphs of PBS / keyswitch / linear
  nodes, helpers to build them from applications, and the op list
  (``ScheduleProgram``) a graph compiles to in topological order.
* :mod:`repro.sim.fragments` — blind-rotation fragment accounting (Eq. 1–2).
* :mod:`repro.sim.scheduler` — the epoch scheduler that books an op list onto
  a :class:`~repro.arch.accelerator.StrixAccelerator` in one loop, each HSC,
  the keyswitch cluster and the linear unit held as the time it is next free,
  and reports end-to-end execution time.
* :mod:`repro.sim.trace` — functional-unit occupancy traces (Fig. 8).
"""

from repro.sim.graph import ComputationGraph, ComputationNode, NodeKind
from repro.sim.scheduler import StrixScheduler, ScheduleResult
from repro.sim.fragments import blind_rotation_fragments, fragmented_execution_time
from repro.sim.compiler import Netlist, compile_netlist

__all__ = [
    "ComputationGraph",
    "ComputationNode",
    "NodeKind",
    "StrixScheduler",
    "ScheduleResult",
    "blind_rotation_fragments",
    "fragmented_execution_time",
    "Netlist",
    "compile_netlist",
]
