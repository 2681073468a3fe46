"""Analysis layer: the experiments of Section VI.

Each module reproduces one table or figure of the paper's evaluation, built
on top of the architecture model, the simulator and the baseline models:

* :mod:`repro.analysis.breakdown` — Fig. 1, CPU workload breakdown.
* :mod:`repro.analysis.fragmentation` — Fig. 2, GPU blind-rotation
  fragmentation and the two-level batching remedy.
* :mod:`repro.analysis.tables` — Table III (area/power) and Table V (PBS
  latency/throughput across platforms).
* :mod:`repro.analysis.folding_ablation` — Table VI, FFT folding effects.
* :mod:`repro.analysis.tradeoffs` — Table VII, TvLP vs CLP sweep.
* :mod:`repro.analysis.deep_nn_benchmark` — Fig. 7, Zama Deep-NN execution
  time on CPU / GPU / Strix.
"""

from repro.analysis.breakdown import cpu_workload_breakdown
from repro.analysis.fragmentation import gpu_fragmentation_study
from repro.analysis.folding_ablation import folding_ablation
from repro.analysis.tradeoffs import tvlp_clp_tradeoff
from repro.analysis.tables import area_power_table, pbs_comparison_table
from repro.analysis.deep_nn_benchmark import deep_nn_benchmark

__all__ = [
    "cpu_workload_breakdown",
    "gpu_fragmentation_study",
    "folding_ablation",
    "tvlp_clp_tradeoff",
    "area_power_table",
    "pbs_comparison_table",
    "deep_nn_benchmark",
]
