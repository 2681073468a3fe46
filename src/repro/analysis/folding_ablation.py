"""Table VI reproduction: effect of the FFT folding scheme.

Two Strix variants are compared on parameter set I: the shipped design with
folding (an N-point negacyclic transform computed on an N/2-point FFT unit,
all other units widened to ``2*CLP`` lanes) and a non-folded design whose
16,384-point FFT unit forces every unit to the narrow 4-lane datapath.  The
paper reports 1.68x latency, 1.99x throughput, 1.73x FFT-unit area and
1.48x core area in favour of folding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.accelerator import StrixAccelerator
from repro.arch.config import STRIX_DEFAULT, STRIX_UNFOLDED
from repro.params import PARAM_SET_I, TFHEParameters


@dataclass(frozen=True)
class FoldingAblation:
    """The Table VI comparison."""

    parameter_set: str
    latency_ms_unfolded: float
    latency_ms_folded: float
    throughput_unfolded: float
    throughput_folded: float
    fft_area_unfolded_mm2: float
    fft_area_folded_mm2: float
    core_area_unfolded_mm2: float
    core_area_folded_mm2: float

    @property
    def latency_improvement(self) -> float:
        """Latency gain of folding (>1 means folding is faster)."""
        return self.latency_ms_unfolded / self.latency_ms_folded

    @property
    def throughput_improvement(self) -> float:
        """Throughput gain of folding."""
        return self.throughput_folded / self.throughput_unfolded

    @property
    def fft_area_improvement(self) -> float:
        """FFT-unit area reduction of folding."""
        return self.fft_area_unfolded_mm2 / self.fft_area_folded_mm2

    @property
    def core_area_improvement(self) -> float:
        """Whole-core area reduction of folding."""
        return self.core_area_unfolded_mm2 / self.core_area_folded_mm2

    def render(self) -> str:
        """Render the Table VI rows as text."""
        rows = [
            ("Latency (ms)", self.latency_ms_unfolded, self.latency_ms_folded, self.latency_improvement),
            ("Throughput (PBS/s)", self.throughput_unfolded, self.throughput_folded, self.throughput_improvement),
            ("FFT unit area (mm^2)", self.fft_area_unfolded_mm2, self.fft_area_folded_mm2, self.fft_area_improvement),
            ("Total core area (mm^2)", self.core_area_unfolded_mm2, self.core_area_folded_mm2, self.core_area_improvement),
        ]
        lines = [f"FFT folding ablation (parameter set {self.parameter_set})"]
        lines.append(f"  {'Metric':<24} {'No fold':>12} {'With fold':>12} {'Improv.':>9}")
        for name, unfolded, folded, improvement in rows:
            lines.append(f"  {name:<24} {unfolded:>12,.2f} {folded:>12,.2f} {improvement:>8.2f}x")
        return "\n".join(lines)


def folding_ablation(params: TFHEParameters = PARAM_SET_I) -> FoldingAblation:
    """Run the Table VI ablation for one parameter set."""
    folded = StrixAccelerator(STRIX_DEFAULT)
    unfolded = StrixAccelerator(STRIX_UNFOLDED)
    folded_cost = folded.chip_cost()
    unfolded_cost = unfolded.chip_cost()
    return FoldingAblation(
        parameter_set=params.name,
        latency_ms_unfolded=unfolded.pbs_latency_ms(params),
        latency_ms_folded=folded.pbs_latency_ms(params),
        throughput_unfolded=unfolded.pbs_throughput(params),
        throughput_folded=folded.pbs_throughput(params),
        fft_area_unfolded_mm2=unfolded.area_power.fft_unit_area(),
        fft_area_folded_mm2=folded.area_power.fft_unit_area(),
        core_area_unfolded_mm2=unfolded_cost.core_area_mm2,
        core_area_folded_mm2=folded_cost.core_area_mm2,
    )
