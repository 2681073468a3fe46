"""Published PBS results of the compared platforms (Table V).

The FPGA (YKP, XHEC) and ASIC (Matcha) baselines are closed systems; the
cross-platform comparison only needs their published latency / throughput
numbers, which are encoded here verbatim.  The CPU and GPU rows are also
included so the Table V reproduction can print the paper's reference values
next to the numbers produced by our analytical models and the Strix
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PublishedResult:
    """One row of the paper's Table V."""

    platform: str
    technology: str
    parameter_set: str
    latency_ms: float | None
    throughput_pbs_per_s: float


#: Every row of Table V, keyed implicitly by (platform, parameter set).
PUBLISHED_PBS_RESULTS: tuple[PublishedResult, ...] = (
    PublishedResult("Concrete", "CPU", "I", 14.00, 70),
    PublishedResult("Concrete", "CPU", "II", 19.00, 52),
    PublishedResult("Concrete", "CPU", "III", 38.00, 26),
    PublishedResult("Concrete", "CPU", "IV", 969.00, 1),
    PublishedResult("NuFHE", "GPU", "I", 37.00, 2000),
    PublishedResult("NuFHE", "GPU", "II", 700.00, 500),
    PublishedResult("YKP", "FPGA", "I", 1.88, 2657),
    PublishedResult("YKP", "FPGA", "III", 4.78, 836),
    PublishedResult("XHEC", "FPGA", "I", None, 2200),
    PublishedResult("XHEC", "FPGA", "II", None, 1800),
    PublishedResult("Matcha", "ASIC", "I", 0.20, 10000),
    PublishedResult("Strix", "ASIC", "I", 0.16, 74696),
    PublishedResult("Strix", "ASIC", "II", 0.23, 39600),
    PublishedResult("Strix", "ASIC", "III", 0.44, 21104),
    PublishedResult("Strix", "ASIC", "IV", 3.31, 2368),
)


def published_results_for(
    platform: str | None = None, parameter_set: str | None = None
) -> list[PublishedResult]:
    """Filter the published Table V rows by platform and/or parameter set."""
    rows = []
    for row in PUBLISHED_PBS_RESULTS:
        if platform is not None and row.platform.lower() != platform.lower():
            continue
        if parameter_set is not None and row.parameter_set != parameter_set:
            continue
        rows.append(row)
    return rows
