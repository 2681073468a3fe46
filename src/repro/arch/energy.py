"""Energy model: joules per workload.

The paper reports power (Table III) but argues efficiency throughout; this
module combines the power model with the timing model to give the energy of
a full application run on Strix, and holds the nominal TDP figures the
analytical CPU / GPU backends charge for the same run.
"""

from __future__ import annotations

from repro.arch.accelerator import StrixAccelerator

#: Nominal socket/board power of the baseline platforms (W).  The CPU figure
#: is a Xeon Platinum socket TDP; the GPU figure is the Titan RTX board TDP.
CPU_POWER_W = 205.0
GPU_POWER_W = 280.0


class EnergyModel:
    """Joules-per-workload estimates for a Strix instance."""

    def __init__(self, accelerator: StrixAccelerator | None = None):
        self.accelerator = accelerator or StrixAccelerator()
        self.chip_power_w = self.accelerator.chip_cost().total_power_w

    def workload_energy_j(self, execution_seconds: float) -> float:
        """Energy of a workload that keeps the chip busy for a given time."""
        return self.chip_power_w * execution_seconds
