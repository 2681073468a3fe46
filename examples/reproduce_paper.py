"""Reproduce every table and figure of the paper's evaluation in one run.

Writes the rendered results to ``examples/results/`` and prints a short
paper-vs-reproduced summary at the end; ``tests/test_analysis.py`` asserts
the same numbers against the paper's.

Run with:  python examples/reproduce_paper.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

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
from repro.arch.decomposer_unit import StreamingDecomposerLane
from repro.fft import get_folded_transform, get_negacyclic_transform
from repro.params import PAPER_PARAMETER_SETS, PARAM_SET_I
from repro.sim.trace import build_occupancy_trace

RESULTS_DIR = Path(__file__).parent / "results"


def decomposer_datapath_check(coefficients: int = 256, seed: int = 6) -> str:
    """Fig. 6: the mask / shift / add lane against the arithmetic decomposition.

    Seeded random torus coefficients through the PBS and the keyswitch gadget
    of every paper parameter set; the lane's digits must equal
    :func:`repro.tfhe.decomposition.decompose` bit for bit.
    """
    rng = np.random.default_rng(seed)
    for name, params in PAPER_PARAMETER_SETS.items():
        values = rng.integers(0, params.q, coefficients)
        for keyswitch in (False, True):
            if not StreamingDecomposerLane(params, keyswitch=keyswitch).matches_reference(values):
                raise SystemExit(f"Fig. 6 decomposer: lane != reference on set {name}")
    return (
        "Fig. 6 decomposer: mask/shift/add lane == tfhe.decomposition.decompose on "
        f"{coefficients} coefficients, PBS and keyswitch gadgets, sets "
        + ", ".join(PAPER_PARAMETER_SETS)
    )


def folding_check(seed: int = 7) -> str:
    """Section V-A: the folded N/2-point transform multiplies like the N-point one.

    Seeded integer polynomials times small signed digits, at the ``N`` of every
    paper parameter set; the folded transform's negacyclic products must equal
    the full-size transform's coefficient for coefficient.
    """
    rng = np.random.default_rng(seed)
    degrees = sorted({params.N for params in PAPER_PARAMETER_SETS.values()})
    for degree in degrees:
        values, digits = rng.integers(-(2**16), 2**16, degree), rng.integers(-64, 64, degree)
        folded = get_folded_transform(degree).multiply(values, digits)
        if not np.array_equal(folded, get_negacyclic_transform(degree).multiply(values, digits)):
            raise SystemExit(f"Section V-A folding: products differ at N = {degree}")
    listed = ", ".join(map(str, degrees))
    return f"Section V-A folding: N/2-point folded products == N-point products, N = {listed}"


def key_streaming_check(accelerator: StrixAccelerator) -> str:
    """Section IV-B: the bootstrapping key streams without stalling the cores.

    For every paper parameter set two bsk fragments plus a ksk tile fit the
    global scratchpad (double buffering), and the 512-bit multicast bus
    delivers the next GGSW fragment within one blind-rotation iteration of a
    core-level batch.
    """
    core = accelerator.core
    for name, params in PAPER_PARAMETER_SETS.items():
        batch = max(core.core_batch_size(params), 3)
        iteration_cycles = batch * core.pipeline_timing(params).initiation_interval
        if not accelerator.hbm.global_scratchpad.fits_double_buffered(params):
            raise SystemExit(f"Section IV-B: set {name} does not fit double-buffered")
        if not accelerator.noc.can_sustain_pbs(params, iteration_cycles):
            raise SystemExit(f"Section IV-B: the bsk bus cannot sustain set {name}")
    return (
        "Section IV-B key streaming: double-buffered bsk fragments fit the global "
        "scratchpad and the multicast bus keeps up, sets " + ", ".join(PAPER_PARAMETER_SETS)
    )


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
    print(decomposer_datapath_check())
    print(folding_check())
    print(key_streaming_check(accelerator))
    print(f"All rendered tables written to {RESULTS_DIR}")


if __name__ == "__main__":
    main()
