"""Fig. 7 reproduction: Zama Deep-NN execution time on CPU, GPU and Strix.

For each of the NN-20 / NN-50 / NN-100 models and each polynomial degree
(1024, 2048, 4096) the Deep-NN netlist, compiled to a computation graph, is
executed through the
:mod:`repro.runtime` backends — the multi-threaded CPU model, the 72-SM GPU
model and the Strix simulator — with one workload definition; the
result is the grouped bar chart of Fig. 7, reported here as a table plus the
speedup summary the paper quotes (Strix 33-38x over CPU, 8-17x over GPU).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.deep_nn import ZAMA_DEEP_NN_MODELS, DeepNNModel, deep_nn_netlist
from repro.arch.accelerator import StrixAccelerator
from repro.params import DEEP_NN_PARAMETER_SETS, TFHEParameters
from repro.runtime import AnalyticalBackend, StrixSimBackend
from repro.sim.compiler import compile_netlist

#: Cores of the many-core Xeon server the Zama reference numbers were taken on.
CPU_THREADS = 48


@dataclass(frozen=True)
class DeepNNResult:
    """Execution time of one (model, polynomial degree) pair on all platforms."""

    model: str
    polynomial_degree: int
    pbs_count: int
    cpu_time_ms: float
    gpu_time_ms: float
    strix_time_ms: float

    @property
    def speedup_vs_cpu(self) -> float:
        """Strix speedup over the CPU baseline."""
        return self.cpu_time_ms / self.strix_time_ms

    @property
    def speedup_vs_gpu(self) -> float:
        """Strix speedup over the GPU baseline."""
        return self.gpu_time_ms / self.strix_time_ms


@dataclass(frozen=True)
class DeepNNBenchmark:
    """The full Fig. 7 sweep."""

    results: list[DeepNNResult]

    def speedup_range_vs_cpu(self) -> tuple[float, float]:
        """(min, max) Strix speedup over CPU across all configurations."""
        speedups = [result.speedup_vs_cpu for result in self.results]
        return min(speedups), max(speedups)

    def speedup_range_vs_gpu(self) -> tuple[float, float]:
        """(min, max) Strix speedup over GPU across all configurations."""
        speedups = [result.speedup_vs_gpu for result in self.results]
        return min(speedups), max(speedups)

    def render(self) -> str:
        """Render the Fig. 7 data as a table."""
        lines = [f"Zama Deep-NN execution time (CPU: {CPU_THREADS} threads)"]
        lines.append(
            f"  {'Model':<8} {'N':>6} {'#PBS':>7} {'CPU (ms)':>12} {'GPU (ms)':>12} "
            f"{'Strix (ms)':>12} {'vs CPU':>8} {'vs GPU':>8}"
        )
        for result in self.results:
            lines.append(
                f"  {result.model:<8} {result.polynomial_degree:>6} {result.pbs_count:>7} "
                f"{result.cpu_time_ms:>12,.0f} {result.gpu_time_ms:>12,.0f} "
                f"{result.strix_time_ms:>12,.1f} {result.speedup_vs_cpu:>7.0f}x "
                f"{result.speedup_vs_gpu:>7.0f}x"
            )
        cpu_low, cpu_high = self.speedup_range_vs_cpu()
        gpu_low, gpu_high = self.speedup_range_vs_gpu()
        lines.append(f"  Strix speedup vs CPU: {cpu_low:.0f}x - {cpu_high:.0f}x")
        lines.append(f"  Strix speedup vs GPU: {gpu_low:.0f}x - {gpu_high:.0f}x")
        return "\n".join(lines)


def deep_nn_benchmark(
    models: dict[str, DeepNNModel] | None = None,
    parameter_sets: dict[int, TFHEParameters] | None = None,
    accelerator: StrixAccelerator | None = None,
) -> DeepNNBenchmark:
    """Run the Fig. 7 application benchmark.

    The CPU baseline is the Concrete cost model parallelized over
    :data:`CPU_THREADS` cores (the Zama Deep-NN reference numbers were taken on
    a many-core Xeon Platinum server); the GPU baseline is the NuFHE model
    with full device-level batching.
    """
    models = models or ZAMA_DEEP_NN_MODELS
    parameter_sets = parameter_sets or DEEP_NN_PARAMETER_SETS
    backends = {
        "cpu": AnalyticalBackend("cpu", threads=CPU_THREADS),
        "gpu": AnalyticalBackend("gpu"),
        "strix": StrixSimBackend(accelerator),
    }

    results = []
    for model_name, model in models.items():
        # The netlist's shape does not depend on the parameter set: compile
        # it once per model and re-bind the graph to each degree.
        compiled = compile_netlist(deep_nn_netlist(model, next(iter(parameter_sets.values()))))
        for degree, params in parameter_sets.items():
            graph = compiled.with_params(params)
            times_ms = {
                name: backend.run(graph).latency_ms
                for name, backend in backends.items()
            }
            results.append(
                DeepNNResult(
                    model=model_name,
                    polynomial_degree=degree,
                    pbs_count=graph.total_pbs(),
                    cpu_time_ms=times_ms["cpu"],
                    gpu_time_ms=times_ms["gpu"],
                    strix_time_ms=times_ms["strix"],
                )
            )
    return DeepNNBenchmark(results=results)
