"""Area and power model (Table III of the paper).

The paper synthesizes Strix in TSMC 28 nm and reports a per-unit breakdown.
We cannot synthesize RTL here, so the model is seeded with the published
per-unit constants and extended with scaling rules (lane counts, FFT points,
scratchpad capacity) so the ablation studies — the folding scheme of
Table VI and the TvLP/CLP sweep of Table VII — report consistent relative
area changes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import StrixConfig
from repro.arch.functional_units import build_pbs_cluster
from repro.arch.noc import NocCost


#: Area (mm^2) and power (W) per MB of SRAM, derived from Table III's
#: scratchpad rows (0.92 mm^2 / 0.47 W for 0.625 MB; 51.4 mm^2 / 26.24 W for
#: 21 MB).  The global scratchpad is denser per MB because of its banking.
LOCAL_SRAM_AREA_PER_MB = 0.92 / 0.625
LOCAL_SRAM_POWER_PER_MB = 0.47 / 0.625
GLOBAL_SRAM_AREA_PER_MB = 51.40 / 21.0
GLOBAL_SRAM_POWER_PER_MB = 26.24 / 21.0

#: HBM2 PHY cost (one stack).
HBM_PHY_AREA_MM2 = 14.90
HBM_PHY_POWER_W = 1.23


@dataclass(frozen=True)
class ComponentCost:
    """Area/power of one named component."""

    name: str
    area_mm2: float
    power_w: float


@dataclass
class ChipCost:
    """Full-chip cost summary."""

    per_core: list[ComponentCost]
    core_area_mm2: float
    core_power_w: float
    num_cores: int
    uncore: list[ComponentCost]
    total_area_mm2: float
    total_power_w: float

    def component(self, name: str) -> ComponentCost:
        """Look up a per-core or uncore component by name."""
        for entry in self.per_core + self.uncore:
            if entry.name == name:
                return entry
        raise KeyError(f"unknown component {name!r}")

    def as_table(self) -> list[tuple[str, float, float]]:
        """Rows of (component, area mm^2, power W) mirroring Table III."""
        rows: list[tuple[str, float, float]] = []
        for entry in self.per_core:
            rows.append((entry.name, entry.area_mm2, entry.power_w))
        rows.append(("1 core", self.core_area_mm2, self.core_power_w))
        rows.append(
            (
                f"{self.num_cores} cores",
                self.core_area_mm2 * self.num_cores,
                self.core_power_w * self.num_cores,
            )
        )
        for entry in self.uncore:
            rows.append((entry.name, entry.area_mm2, entry.power_w))
        rows.append(("Total", self.total_area_mm2, self.total_power_w))
        return rows


class AreaPowerModel:
    """Builds :class:`ChipCost` summaries for a :class:`StrixConfig`."""

    def __init__(self, config: StrixConfig):
        self.config = config

    def core_cost(self) -> tuple[list[ComponentCost], float, float]:
        """Per-core component list plus core totals.

        One Table III row per PBS-cluster unit in pipeline order, except
        that the FFT and IFFT groups share the ``I/FFTU`` row.
        """
        config = self.config
        table_iii_rows = {"fft": "I/FFTU", "vma": "VMA", "ifft": "I/FFTU"}
        rows = {
            "Local scratchpad": (
                LOCAL_SRAM_AREA_PER_MB * config.local_scratchpad_mb,
                LOCAL_SRAM_POWER_PER_MB * config.local_scratchpad_mb,
            )
        }
        for unit in build_pbs_cluster(config).values():
            row = table_iii_rows.get(unit.name, unit.name.capitalize())
            area, power = rows.get(row, (0.0, 0.0))
            rows[row] = (area + unit.area_mm2, power + unit.power_w)
        components = [ComponentCost(name, area, power) for name, (area, power) in rows.items()]
        area = sum(component.area_mm2 for component in components)
        power = sum(component.power_w for component in components)
        return components, area, power

    def chip_cost(self) -> ChipCost:
        """Full-chip area/power summary (the reproduction of Table III)."""
        config = self.config
        per_core, core_area, core_power = self.core_cost()
        noc = NocCost()
        uncore = [
            ComponentCost("Global NoC", noc.area_mm2, noc.power_w),
            ComponentCost(
                "Global scratchpad",
                GLOBAL_SRAM_AREA_PER_MB * config.global_scratchpad_mb,
                GLOBAL_SRAM_POWER_PER_MB * config.global_scratchpad_mb,
            ),
            ComponentCost("HBM2 PHY", HBM_PHY_AREA_MM2, HBM_PHY_POWER_W),
        ]
        total_area = core_area * config.tvlp + sum(c.area_mm2 for c in uncore)
        total_power = core_power * config.tvlp + sum(c.power_w for c in uncore)
        return ChipCost(
            per_core=per_core,
            core_area_mm2=core_area,
            core_power_w=core_power,
            num_cores=config.tvlp,
            uncore=uncore,
            total_area_mm2=total_area,
            total_power_w=total_power,
        )

    def fft_unit_area(self) -> float:
        """Area of a single (I)FFT unit, used by the Table VI ablation."""
        return build_pbs_cluster(self.config)["fft"].fft.area_mm2
