"""Generic workload generators.

Small helpers that produce :class:`~repro.sim.graph.ComputationGraph`
instances for the microbenchmarks, the fragmentation study and the tests:
flat PBS batches (the Table V microbenchmark), chained LUT pipelines
(latency-sensitive workloads) and gate-level workloads with a configurable
mix of parallel and sequential stages.
"""

from __future__ import annotations

import numpy as np

from repro.params import TFHEParameters
from repro.sim.graph import ComputationGraph, ComputationNode, NodeKind


def pbs_batch_graph(
    params: TFHEParameters, ciphertexts: int, name: str | None = None
) -> ComputationGraph:
    """A single node bootstrapping ``ciphertexts`` independent LWEs.

    This is the PBS microbenchmark workload of Table V: throughput is
    measured with a large batch, latency with ``ciphertexts=1``.
    """
    graph = ComputationGraph(params, name=name or f"pbs-batch-{ciphertexts}")
    graph.add_pbs_layer("pbs", ciphertexts)
    return graph


def lut_pipeline_graph(
    params: TFHEParameters,
    stages: int,
    ciphertexts_per_stage: int,
    name: str | None = None,
) -> ComputationGraph:
    """Test fixture: a chain of dependent LUT (PBS) stages.

    Models latency-bound workloads such as an encrypted state machine: stage
    ``i+1`` cannot start before stage ``i`` finishes, so only
    ``ciphertexts_per_stage`` ciphertexts are ever available for batching.
    """
    graph = ComputationGraph(params, name=name or f"lut-pipeline-{stages}x{ciphertexts_per_stage}")
    previous = None
    for stage in range(stages):
        node_name = f"lut{stage}"
        graph.add_pbs_layer(
            node_name,
            ciphertexts_per_stage,
            depends_on=[previous] if previous else [],
        )
        previous = node_name
    return graph


def gate_workload_graph(
    params: TFHEParameters,
    gates: int,
    parallelism: int,
    name: str | None = None,
) -> ComputationGraph:
    """Test fixture: a gate-bootstrapping workload with a given average parallelism.

    ``gates`` gate bootstraps are grouped into sequential stages of
    ``parallelism`` independent gates each — a simple knob for studying how
    available test-vector level parallelism affects each platform.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    graph = ComputationGraph(params, name=name or f"gates-{gates}-p{parallelism}")
    remaining = gates
    previous = None
    stage = 0
    while remaining > 0:
        width = min(parallelism, remaining)
        node_name = f"gates{stage}"
        graph.add_pbs_layer(node_name, width, depends_on=[previous] if previous else [])
        previous = node_name
        remaining -= width
        stage += 1
    return graph


def random_layered_graph(
    params: TFHEParameters,
    levels: int,
    max_width: int,
    seed: int = 0,
    linear_fraction: float = 0.3,
) -> ComputationGraph:
    """Test fixture: a random layered workload mixing PBS and linear nodes."""
    rng = np.random.default_rng(seed)
    graph = ComputationGraph(params, name=f"random-{levels}x{max_width}")
    previous_level: list[str] = []
    for level in range(levels):
        width = int(rng.integers(1, max_width + 1))
        current_level = []
        for index in range(width):
            name = f"n{level}_{index}"
            depends = list(previous_level) if previous_level else []
            if rng.random() < linear_fraction:
                graph.add_node(
                    ComputationNode(
                        name=name,
                        kind=NodeKind.LINEAR,
                        ciphertexts=int(rng.integers(1, 64)),
                        operations_per_ciphertext=int(rng.integers(1, 256)),
                        depends_on=depends,
                    )
                )
            else:
                graph.add_pbs_layer(name, int(rng.integers(1, 128)), depends_on=depends)
            current_level.append(name)
        previous_level = current_level
    return graph
