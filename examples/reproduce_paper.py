"""Reproduce every table and figure of the paper's evaluation in one run.

Writes the rendered results to ``examples/results/`` and prints a short
paper-vs-reproduced summary at the end; ``tests/test_analysis.py`` asserts
the same numbers against the paper's.

Run with:  python examples/reproduce_paper.py
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.breakdown import cpu_workload_breakdown
from repro.analysis.deep_nn_benchmark import deep_nn_benchmark
from repro.analysis.folding_ablation import folding_ablation
from repro.analysis.fragmentation import gpu_fragmentation_study
from repro.analysis.tables import (
    area_power_table,
    pbs_comparison_table,
    render_area_power_table,
)
from repro.analysis.tradeoffs import tvlp_clp_tradeoff
from repro.arch.accelerator import StrixAccelerator
from repro.params import PARAM_SET_I
from repro.sim.trace import build_occupancy_trace

RESULTS_DIR = Path(__file__).parent / "results"


def main() -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    accelerator = StrixAccelerator()

    experiments = {
        "fig1_breakdown": cpu_workload_breakdown(PARAM_SET_I).render(),
        "fig2_fragmentation": gpu_fragmentation_study().render(),
        "table3_area_power": render_area_power_table(area_power_table(accelerator)),
        "table5_pbs_comparison": pbs_comparison_table(accelerator).render(),
        "table6_folding": folding_ablation(PARAM_SET_I).render(),
        "table7_tvlp_clp": tvlp_clp_tradeoff().render(),
        "fig7_deep_nn": deep_nn_benchmark(accelerator=accelerator).render(),
        "fig8_occupancy": build_occupancy_trace(accelerator, PARAM_SET_I).render(),
    }

    for name, text in experiments.items():
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"=== {name} ===")
        print(text)
        print()

    table5 = pbs_comparison_table(accelerator)
    print("=== headline summary (paper -> reproduced) ===")
    cpu = table5.speedup_over("Concrete", "I")
    gpu = table5.speedup_over("NuFHE", "I")
    matcha = table5.speedup_over("Matcha", "I")
    print(f"Strix vs CPU throughput, set I:    1067x -> {cpu:.0f}x")
    print(f"Strix vs GPU throughput, set I:      37x -> {gpu:.0f}x")
    print(f"Strix vs Matcha throughput, set I:  7.4x -> {matcha:.1f}x")
    print(f"All rendered tables written to {RESULTS_DIR}")


if __name__ == "__main__":
    main()
