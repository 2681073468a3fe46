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

The draw order is part of that contract: once the arrival times and sizes are
drawn, each request, in request order, draws one uniform double for its kind
and then one bounded integer for its tenant — nothing else, nothing in bulk.
Every recorded benchmark is built on traces drawn this way.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

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


def _make_requests(
    arrival_times: Sequence[float],
    sizes: Sequence[int],
    rng: np.random.Generator,
    tenants: int,
    kind_mix: dict[RequestKind, float],
) -> list[Request]:
    """Assemble requests from arrival times and sizes (shared by all patterns).

    The kind draw is ``rng.choice(len(kind_mix), p=weights)`` unrolled: the
    same cumulative weights, built once, searched with the same ``random()``.
    """
    if tenants < 1:
        raise ValueError(f"tenants must be at least 1, got {tenants}")
    for kind, weight in kind_mix.items():
        if not 0.0 <= weight < math.inf:
            raise ValueError(f"kind_mix weight of {kind} must be finite and >= 0, got {weight}")
    weights = np.asarray(list(kind_mix.values()), dtype=float)
    total = weights.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"kind_mix weights must have a positive, finite sum, got {kind_mix}")
    cumulative = np.cumsum(weights / total)
    cumulative = (cumulative / cumulative[-1]).tolist()
    shapes = []
    for kind in kind_mix:
        model = INFERENCE_MODEL if kind is RequestKind.INFERENCE else None
        shapes.append((kind, model, pbs_per_item(kind, model)))
    names = [f"tenant{tenant}" for tenant in range(tenants)]
    random, integers = rng.random, rng.integers
    requests = []
    for index, (arrival, size) in enumerate(zip(arrival_times, sizes), 1):
        kind, model, pbs = shapes[bisect_right(cumulative, random())]
        # Inference items are whole encrypted samples, not ciphertexts — one
        # sample already costs a model's worth of PBS, so keep counts small.
        items = 1 if model is not None else max(1, int(size))
        tenant = names[integers(tenants)]
        requests.append(Request(index, tenant, kind, items, pbs, float(arrival), model))
    return requests


def steady_trace(
    rate_rps: float,
    duration_s: float,
    seed: int = 0,
    tenants: int = 4,
    mean_items: float = 8.0,
    kind_mix: dict[RequestKind, float] | None = None,
) -> list[Request]:
    """Poisson arrivals at a constant rate with geometric request sizes."""
    if rate_rps <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    if mean_items <= 0:
        raise ValueError("mean_items must be positive")
    rng = np.random.default_rng(seed)
    times: list[float] = []
    now = 0.0
    while True:
        now += rng.exponential(1.0 / rate_rps)
        if now >= duration_s:
            break
        times.append(now)
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
    if burst_rate_rps <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    if burst_s <= 0 or idle_s <= 0:
        raise ValueError("burst and idle durations must be positive")
    if mean_items <= 0:
        raise ValueError("mean_items must be positive")
    rng = np.random.default_rng(seed)
    times: list[float] = []
    now = 0.0
    while now < duration_s:
        burst_end = min(now + rng.exponential(burst_s), duration_s)
        while True:
            now += rng.exponential(1.0 / burst_rate_rps)
            if now >= burst_end:
                break
            times.append(now)
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
    if rate_rps <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    if mean_items <= 0:
        raise ValueError("mean_items must be positive")
    if pareto_shape <= 1.0:
        raise ValueError("pareto shape must exceed 1 for a finite mean rate")
    rng = np.random.default_rng(seed)
    # Scale the Pareto so the mean inter-arrival matches 1/rate.
    mean_gap = 1.0 / rate_rps
    scale = mean_gap * (pareto_shape - 1.0) / pareto_shape
    times: list[float] = []
    now = 0.0
    while True:
        now += scale * (1.0 + rng.pareto(pareto_shape))
        if now >= duration_s:
            break
        times.append(now)
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
