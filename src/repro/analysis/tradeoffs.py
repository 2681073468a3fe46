"""Table VII reproduction: TvLP vs CLP trade-off under a fixed HBM budget.

Several Strix instances with the same total parallelism (``TvLP * CLP = 32``)
but different splits are evaluated on parameter set IV with the external
bandwidth capped at 300 GB/s.  More cores (high TvLP) keeps the design
compute bound at the cost of single-PBS latency; more lanes (high CLP)
shrinks the gap between bootstrapping-key fetches until the design becomes
memory bound and throughput collapses.  The paper identifies TvLP=8 / CLP=4
as the sweet spot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.accelerator import StrixAccelerator
from repro.arch.config import STRIX_DEFAULT
from repro.params import PARAM_SET_IV, TFHEParameters

#: ``TvLP * CLP`` of every design point Table VII compares.
TOTAL_PARALLELISM = 32


@dataclass(frozen=True)
class TradeoffPoint:
    """One row of Table VII."""

    tvlp: int
    clp: int
    throughput_pbs_per_s: float
    latency_ms: float
    required_bandwidth_gbps: float
    memory_bound: bool


@dataclass(frozen=True)
class TradeoffStudy:
    """The full Table VII sweep."""

    parameter_set: str
    available_bandwidth_gbps: float
    points: list[TradeoffPoint]

    def best_throughput_point(self) -> TradeoffPoint:
        """Operating point with the highest throughput (ties favour fewer lanes)."""
        return max(self.points, key=lambda point: (point.throughput_pbs_per_s, point.tvlp))

    def sweet_spot(self) -> TradeoffPoint:
        """The balanced point: highest throughput, then lowest latency.

        Matches the paper's criterion of balancing compute and memory: among
        the points within 1 % of the best throughput, pick the lowest
        latency one that stays compute bound if possible.
        """
        best = self.best_throughput_point().throughput_pbs_per_s
        candidates = [
            point
            for point in self.points
            if point.throughput_pbs_per_s >= 0.99 * best
        ]
        compute_bound = [point for point in candidates if not point.memory_bound]
        pool = compute_bound or candidates
        return min(pool, key=lambda point: point.latency_ms)

    def render(self) -> str:
        """Render the sweep as text."""
        lines = [
            f"TvLP vs CLP trade-off (parameter set {self.parameter_set}, "
            f"{self.available_bandwidth_gbps:.0f} GB/s available)"
        ]
        lines.append(
            f"  {'TvLP':>4} {'CLP':>4} {'Throughput (PBS/s)':>20} {'Latency (ms)':>13} "
            f"{'Req. BW (GB/s)':>15} {'Bound':>7}"
        )
        for point in self.points:
            lines.append(
                f"  {point.tvlp:>4} {point.clp:>4} {point.throughput_pbs_per_s:>20,.0f} "
                f"{point.latency_ms:>13.1f} {point.required_bandwidth_gbps:>15.0f} "
                f"{'memory' if point.memory_bound else 'compute':>7}"
            )
        spot = self.sweet_spot()
        lines.append(f"  Sweet spot: TvLP={spot.tvlp}, CLP={spot.clp}")
        return "\n".join(lines)


def tvlp_clp_tradeoff(
    params: TFHEParameters = PARAM_SET_IV,
    splits: list[tuple[int, int]] | None = None,
) -> TradeoffStudy:
    """Run the Table VII sweep.

    ``splits`` defaults to the paper's five (TvLP, CLP) pairs whose product
    is :data:`TOTAL_PARALLELISM`.
    """
    if splits is None:
        splits = []
        tvlp = TOTAL_PARALLELISM // 2
        while tvlp >= 1:
            clp = TOTAL_PARALLELISM // tvlp
            splits.append((tvlp, clp))
            tvlp //= 2
    points = []
    for tvlp, clp in splits:
        config = STRIX_DEFAULT.with_parallelism(tvlp=tvlp, clp=clp)
        accelerator = StrixAccelerator(config)
        performance = accelerator.pbs_performance(params)
        points.append(
            TradeoffPoint(
                tvlp=tvlp,
                clp=clp,
                throughput_pbs_per_s=performance.throughput_pbs_per_s,
                latency_ms=performance.latency_ms,
                required_bandwidth_gbps=performance.required_bandwidth_gbps,
                memory_bound=not performance.compute_bound,
            )
        )
    return TradeoffStudy(
        parameter_set=params.name,
        available_bandwidth_gbps=STRIX_DEFAULT.hbm_bandwidth_gbps,
        points=points,
    )
