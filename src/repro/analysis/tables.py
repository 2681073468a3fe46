"""Table III and Table V reproductions.

Table III — the area/power breakdown of the Strix chip — comes straight from
the area/power model.  Table V — PBS latency and throughput across platforms
and parameter sets — combines the Strix simulator with the analytical CPU /
GPU models and the published FPGA/ASIC reference points, and reports the
headline speedups (Strix vs CPU, GPU and Matcha).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.accelerator import StrixAccelerator
from repro.arch.area_power import ChipCost
from repro.baselines.cpu_model import ConcreteCpuModel
from repro.baselines.gpu_model import NuFheGpuModel
from repro.baselines.reference_platforms import published_results_for
from repro.params import PAPER_PARAMETER_SETS, TFHEParameters


# -- Table III -----------------------------------------------------------------


def area_power_table(accelerator: StrixAccelerator | None = None) -> ChipCost:
    """Compute the Table III chip cost summary."""
    accelerator = accelerator or StrixAccelerator()
    return accelerator.chip_cost()


def render_area_power_table(cost: ChipCost) -> str:
    """Render the Table III rows as text."""
    lines = ["Strix area and power breakdown (TSMC 28 nm model)"]
    lines.append(f"  {'Component':<22} {'Area (mm^2)':>12} {'Power (W)':>10}")
    for name, area, power in cost.as_table():
        lines.append(f"  {name:<22} {area:>12.2f} {power:>10.2f}")
    return "\n".join(lines)


# -- Table V --------------------------------------------------------------------


@dataclass(frozen=True)
class PbsComparisonRow:
    """One row of the Table V reproduction."""

    platform: str
    technology: str
    parameter_set: str
    latency_ms: float | None
    throughput_pbs_per_s: float
    source: str  # "model" or "published"


@dataclass(frozen=True)
class PbsComparison:
    """The full Table V reproduction plus the headline speedups."""

    rows: list[PbsComparisonRow]

    def strix_row(self, parameter_set: str) -> PbsComparisonRow:
        """The modelled Strix row for a parameter set."""
        for row in self.rows:
            if row.platform == "Strix" and row.parameter_set == parameter_set and row.source == "model":
                return row
        raise KeyError(f"no modelled Strix row for set {parameter_set!r}")

    def speedup_over(self, platform: str, parameter_set: str = "I") -> float:
        """Strix throughput gain over a platform for one parameter set."""
        strix = self.strix_row(parameter_set)
        candidates = [
            row
            for row in self.rows
            if row.platform.lower() == platform.lower()
            and row.parameter_set == parameter_set
        ]
        if not candidates:
            raise KeyError(f"no {platform!r} row for parameter set {parameter_set!r}")
        baseline = candidates[0]
        return strix.throughput_pbs_per_s / baseline.throughput_pbs_per_s

    def render(self) -> str:
        """Render the table as text."""
        lines = ["PBS latency and throughput across platforms (Table V reproduction)"]
        lines.append(
            f"  {'Platform':<10} {'Tech':<5} {'Set':<4} {'Latency (ms)':>13} "
            f"{'Throughput (PBS/s)':>20} {'Source':>10}"
        )
        for row in self.rows:
            latency = f"{row.latency_ms:.2f}" if row.latency_ms is not None else "-"
            lines.append(
                f"  {row.platform:<10} {row.technology:<5} {row.parameter_set:<4} "
                f"{latency:>13} {row.throughput_pbs_per_s:>20,.0f} {row.source:>10}"
            )
        lines.append("")
        lines.append(
            f"  Strix vs CPU (set I):    {self.speedup_over('Concrete'):8.0f}x throughput"
        )
        lines.append(
            f"  Strix vs GPU (set I):    {self.speedup_over('NuFHE'):8.0f}x throughput"
        )
        lines.append(
            f"  Strix vs Matcha (set I): {self.speedup_over('Matcha'):8.1f}x throughput"
        )
        return "\n".join(lines)


def pbs_comparison_table(
    accelerator: StrixAccelerator | None = None,
    parameter_sets: dict[str, TFHEParameters] | None = None,
) -> PbsComparison:
    """Build the Table V reproduction.

    CPU and GPU rows come from the analytical models (single-core Concrete
    and 72-SM NuFHE respectively); FPGA and ASIC baselines are published
    reference points; Strix rows come from the architecture model.
    """
    accelerator = accelerator or StrixAccelerator()
    parameter_sets = parameter_sets or PAPER_PARAMETER_SETS
    cpu = ConcreteCpuModel(threads=1)
    gpu = NuFheGpuModel()

    rows: list[PbsComparisonRow] = []
    for name, params in parameter_sets.items():
        rows.append(
            PbsComparisonRow(
                platform="Concrete",
                technology="CPU",
                parameter_set=name,
                latency_ms=cpu.pbs_latency_ms(params),
                throughput_pbs_per_s=cpu.pbs_throughput(params),
                source="model",
            )
        )
    for name, params in parameter_sets.items():
        if params.N <= 2048:  # NuFHE only supports moderate polynomial degrees
            rows.append(
                PbsComparisonRow(
                    platform="NuFHE",
                    technology="GPU",
                    parameter_set=name,
                    latency_ms=gpu.pbs_latency_ms(params),
                    throughput_pbs_per_s=gpu.pbs_throughput(params),
                    source="model",
                )
            )
    for row in published_results_for():
        if row.platform in ("Concrete", "NuFHE", "Strix"):
            continue
        rows.append(
            PbsComparisonRow(
                platform=row.platform,
                technology=row.technology,
                parameter_set=row.parameter_set,
                latency_ms=row.latency_ms,
                throughput_pbs_per_s=row.throughput_pbs_per_s,
                source="published",
            )
        )
    for name, params in parameter_sets.items():
        performance = accelerator.pbs_performance(params)
        rows.append(
            PbsComparisonRow(
                platform="Strix",
                technology="ASIC",
                parameter_set=name,
                latency_ms=performance.latency_ms,
                throughput_pbs_per_s=performance.throughput_pbs_per_s,
                source="model",
            )
        )
    return PbsComparison(rows=rows)
