"""Serving-traffic generators: request traces for the serving simulation.

The serving layer's behaviour depends on the *arrival process*, not just the
total load, so three canonical patterns ship:

* :func:`steady_trace` — a Poisson process (exponential inter-arrivals) at a
  constant rate: the well-behaved baseline;
* :func:`bursty_trace` — an on/off modulated Poisson process: short bursts
  at a high rate separated by idle gaps, the pattern that stresses queue
  depth and deadline flushes;
* :func:`heavy_tail_trace` — Pareto inter-arrivals and log-normal request
  sizes: a few huge requests among many small ones, the pattern that
  produces stragglers and long p99 tails.

Every generator returns a list of :class:`~repro.serve.request.Request`
objects (timestamped, multi-tenant, mixed kinds) ready for
:meth:`repro.serve.Server.simulate`, and is fully determined by its seed.

The draw order is part of that contract, and it covers both the values drawn
and the generator's state after each stage.  Inter-arrival gaps are drawn one
by one until the first that crosses the cut (the duration, or a burst's end);
the sizes follow; then each request, in request order, draws one uniform
double for its kind and then one bounded integer for its tenant.  Every
recorded benchmark is built on traces drawn this way.

The draws are made in blocks that reproduce that order exactly.  Gaps come in
blocks whose running sum starts from the current time; the block that crosses
the cut is drawn again from its saved state, cut + 1 gaps long, so the next
stage starts where the gap-by-gap loop left the generator.  Kinds and tenants
come from one block of PCG64's raw 64-bit words: a kind is numpy's double
``(word >> 11) * 2**-53``, and a tenant is Lemire's ``(u32 * tenants) >> 32``
on the 32-bit stream ``Generator.integers`` reads (a fresh word's low half,
then its high half, buffered in the bit generator).  The few draws Lemire
would reject are left to ``Generator.integers`` itself, after the generator is
rewound to just before them.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.serve.request import Request, RequestKind, pbs_per_item

#: Default kind mix of a trace: mostly bootstraps and gates, some encryption
#: traffic, the occasional full inference call.
DEFAULT_KIND_MIX: dict[RequestKind, float] = {
    RequestKind.BOOTSTRAP: 0.5,
    RequestKind.GATE: 0.3,
    RequestKind.ENCRYPT: 0.15,
    RequestKind.INFERENCE: 0.05,
}

#: The Deep-NN model every inference request of a generated trace runs.
INFERENCE_MODEL = "NN-20"


def _require(name: str, value: float) -> None:
    """Refuse a parameter that is not finite and positive (NaN included)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _arrivals(
    rng: np.random.Generator,
    gaps: Callable[[int | None], np.ndarray | float],
    mean_gap: float,
    now: float,
    cut: float,
) -> list[float]:
    """Arrival times ``now + g1``, ``now + g1 + g2``, ... before ``cut``.

    Equal, value for value and in the generator's end state, to adding
    ``gaps(None)`` to ``now`` one gap at a time until the sum reaches ``cut``:
    that loop draws exactly one gap past the last arrival.
    """
    bitgen = rng.bit_generator
    times: list[float] = []
    while True:
        saved = bitgen.state
        # A quarter more gaps than expected, so the first block mostly
        # crosses the cut; capped, so a huge rate cannot ask for one block.
        size = int(min((cut - now) / mean_gap * 1.25 + 32, 1 << 20))
        # The running sum from ``now``, added in the loop's order.
        sums = np.cumsum(np.concatenate(([now], gaps(size))))[1:]
        crossing = int(np.searchsorted(sums, cut))
        if crossing < size:
            bitgen.state = saved
            gaps(crossing + 1)
            times += sums[:crossing].tolist()
            return times
        times += sums.tolist()
        now = times[-1]


def _kinds_and_tenants(
    rng: np.random.Generator, cumulative: np.ndarray, tenants: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``count`` requests' kind and tenant index, from raw words.

    Equal, value for value and in the generator's end state (its buffered
    32-bit half included), to ``count`` rounds of
    ``bisect_right(cumulative, rng.random())`` then ``rng.integers(tenants)``.
    """
    bitgen = rng.bit_generator
    if tenants == 1:  # integers(1) draws nothing
        words = bitgen.random_raw(count)
        kinds = np.searchsorted(cumulative, (words >> 11) * 2.0**-53, side="right")
        return kinds, np.zeros(count, dtype=np.int64)
    kinds = np.empty(count, dtype=np.intp)
    ids = np.empty(count, dtype=np.int64)
    threshold = 2**32 % tenants
    done, block = 0, count
    while done < count:
        n = min(block, count - done)
        state = bitgen.state
        # ``stream`` is the held half, then each tenant word's low and high
        # half; the draws read it from index 0 when a half is held (odd = 0),
        # else from index 1.  An even next index means a half is held.
        odd = 1 - state["has_uint32"]
        fresh = (odd + n) // 2
        words = bitgen.random_raw(n + fresh)
        index = np.arange(n)
        kind_words = words[index + (odd + index) // 2]
        kinds[done : done + n] = np.searchsorted(
            cumulative, (kind_words >> 11) * 2.0**-53, side="right"
        )
        tenant_words = words[2 - odd :: 3]
        stream = np.empty(1 + 2 * fresh, dtype=np.uint64)
        stream[0] = state["uinteger"]
        stream[1::2] = tenant_words & 0xFFFFFFFF
        stream[2::2] = tenant_words >> 32
        scaled = stream[odd : odd + n] * np.uint64(tenants)
        rejected = np.flatnonzero((scaled & 0xFFFFFFFF) < threshold) if threshold else ()
        redraw = len(rejected) > 0
        taken = int(rejected[0]) if redraw else n
        ids[done : done + taken] = scaled[:taken] >> 32
        # Replay the block up to the loop's state after ``taken`` tenant draws
        # (and the next kind draw when Lemire rejects the next tenant draw).
        at = odd + taken
        state["has_uint32"], state["uinteger"] = 1 - at % 2, int(stream[at - at % 2])
        bitgen.state = state
        bitgen.random_raw(taken + redraw + at // 2, output=False)
        done += taken
        if redraw:  # numpy redraws it; blocks stay short while rejections are frequent
            ids[done] = rng.integers(tenants)
            done += 1
            block = max(64, 2 * (taken + 1))
    return kinds, ids


def _make_requests(
    arrival_times: Sequence[float],
    sizes: Sequence[int],
    rng: np.random.Generator,
    tenants: int,
    kind_mix: dict[RequestKind, float],
) -> list[Request]:
    """Assemble requests from arrival times and sizes (shared by all patterns).

    The kind draw is ``rng.choice(len(kind_mix), p=weights)`` unrolled: the
    same cumulative weights, built once, searched with the same ``random()``
    double.  ``arrival_times`` are Python floats.
    """
    if not 1 <= tenants <= 2**32:
        raise ValueError(f"tenants must be between 1 and 2**32, got {tenants}")
    for kind, weight in kind_mix.items():
        if not 0.0 <= weight < math.inf:
            raise ValueError(f"kind_mix weight of {kind} must be finite and >= 0, got {weight}")
    weights = np.asarray(list(kind_mix.values()), dtype=float)
    total = weights.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"kind_mix weights must have a positive, finite sum, got {kind_mix}")
    cumulative = np.cumsum(weights / total)
    cumulative /= cumulative[-1]
    kinds = list(kind_mix)
    models = [INFERENCE_MODEL if kind is RequestKind.INFERENCE else None for kind in kinds]
    pbs = [pbs_per_item(kind, model) for kind, model in zip(kinds, models)]
    names = [f"tenant{tenant}" for tenant in range(tenants)]
    drawn, ids = _kinds_and_tenants(rng, cumulative, tenants, len(arrival_times))

    def column(values: list) -> list:
        return np.array(values, dtype=object)[drawn].tolist()

    # Inference items are whole encrypted samples, not ciphertexts — one
    # sample already costs a model's worth of PBS, so keep counts small.
    whole = np.array([model is not None for model in models])[drawn]
    items = np.where(whole, 1, np.maximum(np.asarray(sizes), 1)).tolist()
    return list(
        map(
            Request,
            range(1, len(arrival_times) + 1),
            np.array(names, dtype=object)[ids].tolist(),
            column(kinds),
            map(int, items),
            column(pbs),
            arrival_times,
            column(models),
        )
    )


def steady_trace(
    rate_rps: float,
    duration_s: float,
    seed: int = 0,
    tenants: int = 4,
    mean_items: float = 8.0,
    kind_mix: dict[RequestKind, float] | None = None,
) -> list[Request]:
    """Poisson arrivals at a constant rate with geometric request sizes."""
    _require("rate_rps", rate_rps)
    _require("duration_s", duration_s)
    _require("mean_items", mean_items)
    rng = np.random.default_rng(seed)
    mean_gap = 1.0 / rate_rps
    times = _arrivals(rng, lambda size: rng.exponential(mean_gap, size), mean_gap, 0.0, duration_s)
    sizes = rng.geometric(min(1.0, 1.0 / mean_items), size=len(times))
    return _make_requests(times, sizes, rng, tenants, kind_mix or DEFAULT_KIND_MIX)


def bursty_trace(
    burst_rate_rps: float,
    duration_s: float,
    seed: int = 0,
    burst_s: float = 0.02,
    idle_s: float = 0.08,
    tenants: int = 4,
    mean_items: float = 8.0,
    kind_mix: dict[RequestKind, float] | None = None,
) -> list[Request]:
    """On/off traffic: Poisson bursts at ``burst_rate_rps`` with idle gaps.

    Burst and gap lengths are exponentially distributed around ``burst_s``
    and ``idle_s``; nothing arrives during the off phases, so queue depth
    whipsaws between empty and deep.
    """
    _require("burst_rate_rps", burst_rate_rps)
    _require("duration_s", duration_s)
    _require("burst_s", burst_s)
    _require("idle_s", idle_s)
    _require("mean_items", mean_items)
    rng = np.random.default_rng(seed)
    mean_gap = 1.0 / burst_rate_rps
    times: list[float] = []
    now = 0.0
    while now < duration_s:
        burst_end = min(now + rng.exponential(burst_s), duration_s)
        times += _arrivals(
            rng, lambda size: rng.exponential(mean_gap, size), mean_gap, now, burst_end
        )
        now = burst_end + rng.exponential(idle_s)
    sizes = rng.geometric(min(1.0, 1.0 / mean_items), size=len(times))
    return _make_requests(times, sizes, rng, tenants, kind_mix or DEFAULT_KIND_MIX)


def heavy_tail_trace(
    rate_rps: float,
    duration_s: float,
    seed: int = 0,
    pareto_shape: float = 1.5,
    size_sigma: float = 1.2,
    tenants: int = 4,
    mean_items: float = 8.0,
    kind_mix: dict[RequestKind, float] | None = None,
) -> list[Request]:
    """Heavy-tailed traffic: Pareto inter-arrivals, log-normal request sizes.

    ``pareto_shape`` close to 1 makes inter-arrival times wildly variable
    (long quiet stretches, dense clumps); ``size_sigma`` controls how extreme
    the largest requests get relative to ``mean_items``.
    """
    _require("rate_rps", rate_rps)
    _require("duration_s", duration_s)
    _require("mean_items", mean_items)
    if not 1.0 < pareto_shape < math.inf:
        raise ValueError(
            "pareto_shape must be finite and greater than 1 (a pareto shape of 1 "
            f"or less has no finite mean rate), got {pareto_shape}"
        )
    if not 0.0 <= size_sigma < math.inf:
        raise ValueError(f"size_sigma must be finite and >= 0, got {size_sigma}")
    rng = np.random.default_rng(seed)
    # Scale the Pareto so the mean inter-arrival matches 1/rate.
    mean_gap = 1.0 / rate_rps
    scale = mean_gap * (pareto_shape - 1.0) / pareto_shape
    times = _arrivals(
        rng, lambda size: scale * (1.0 + rng.pareto(pareto_shape, size)), mean_gap, 0.0, duration_s
    )
    # Log-normal sizes with the requested mean: E[lognormal] = exp(mu + s^2/2).
    mu = np.log(mean_items) - size_sigma**2 / 2.0
    sizes = np.maximum(1, rng.lognormal(mu, size_sigma, size=len(times)).round())
    return _make_requests(times, sizes, rng, tenants, kind_mix or DEFAULT_KIND_MIX)


#: Named arrival patterns with paper-benchmark defaults, so callers (and the
#: serving benchmark) can sweep them uniformly: ``TRAFFIC_PATTERNS[name](...)``.
TRAFFIC_PATTERNS = {
    "steady": steady_trace,
    "bursty": bursty_trace,
    "heavy-tail": heavy_tail_trace,
}
