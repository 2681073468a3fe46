"""Tests for :mod:`repro.apps.traffic`: determinism and statistical sanity.

The serving benchmarks and the QoS work both lean on these generators, so
two properties must hold rock-solid: a seed fully determines a trace (same
requests, same order, same sizes, same tenants), and the statistical shape
each generator promises — Poisson steadiness, on/off burstiness, heavy
tails — actually shows up in the moments of what it emits.

A third pins the draws themselves, in circlestark's ``fft`` / ``fast_fft``
manner: :func:`spec_make_requests` is the per-request loop written the slow,
obvious way (``Generator.choice``, an f-string and ``Request.make`` per
request), and every generator's trace equals the one it builds, request for
request.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import traffic
from repro.apps.traffic import (
    INFERENCE_MODEL,
    TRAFFIC_PATTERNS,
    bursty_trace,
    heavy_tail_trace,
    steady_trace,
)
from repro.serve.request import Request, RequestKind


def fingerprint(trace: list[Request]) -> list[tuple]:
    return [(r.request_id, r.tenant, r.kind.value, r.items, r.arrival_s, r.model) for r in trace]


GENERATORS = {
    "steady": lambda seed: steady_trace(rate_rps=2000.0, duration_s=0.5, seed=seed),
    "bursty": lambda seed: bursty_trace(burst_rate_rps=8000.0, duration_s=0.5, seed=seed),
    "heavy-tail": lambda seed: heavy_tail_trace(rate_rps=2000.0, duration_s=0.5, seed=seed),
}


def spec_make_requests(arrival_times, sizes, rng, tenants, kind_mix) -> list[Request]:
    """The slow definition of ``traffic._make_requests``: one ``choice`` per
    request, one f-string per tenant name, ``Request.make`` per request."""
    kinds = list(kind_mix)
    weights = np.asarray([kind_mix[kind] for kind in kinds], dtype=float)
    weights = weights / weights.sum()
    requests = []
    for index, (arrival, size) in enumerate(zip(arrival_times, sizes)):
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        # Inference items are whole encrypted samples, not ciphertexts — one
        # sample already costs a model's worth of PBS, so keep counts small.
        items = max(1, int(size)) if kind is not RequestKind.INFERENCE else 1
        requests.append(
            Request.make(
                request_id=index + 1,
                tenant=f"tenant{int(rng.integers(tenants))}",
                kind=kind,
                items=items,
                arrival_s=float(arrival),
                model=INFERENCE_MODEL if kind is RequestKind.INFERENCE else None,
            )
        )
    return requests


# -- seeded determinism --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_reproduces_the_exact_trace(name):
    first = GENERATORS[name](seed=42)
    second = GENERATORS[name](seed=42)
    assert fingerprint(first) == fingerprint(second)
    assert len(first) > 50


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_different_seeds_differ(name):
    assert fingerprint(GENERATORS[name](seed=1)) != fingerprint(GENERATORS[name](seed=2))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_traces_are_well_formed(name):
    trace = GENERATORS[name](seed=7)
    arrivals = [r.arrival_s for r in trace]
    assert arrivals == sorted(arrivals)
    assert all(0.0 < t < 0.5 for t in arrivals)
    assert all(r.items >= 1 for r in trace)
    assert all((r.model is not None) == (r.kind is RequestKind.INFERENCE) for r in trace)
    # Request ids are unique and assigned in arrival order.
    ids = [r.request_id for r in trace]
    assert ids == sorted(set(ids))
    # Several distinct tenants appear under the default mix.
    assert len({r.tenant for r in trace}) >= 3


def test_registry_names_the_three_patterns():
    assert sorted(TRAFFIC_PATTERNS) == ["bursty", "heavy-tail", "steady"]
    assert TRAFFIC_PATTERNS["steady"] is steady_trace
    assert TRAFFIC_PATTERNS["bursty"] is bursty_trace
    assert TRAFFIC_PATTERNS["heavy-tail"] is heavy_tail_trace
    for generator in TRAFFIC_PATTERNS.values():
        # Called as netload calls it: (rate, duration) positionally.
        trace = generator(2000.0, 0.5, seed=0, tenants=3)
        assert trace
        assert {r.tenant for r in trace} <= {"tenant0", "tenant1", "tenant2"}


# -- the draws, against the slow definition -------------------------------------------

#: Kind mixes the property draws from: the default, or any non-empty mix of
#: integer or float weights (one kind, zero weights, unnormalised totals).
KIND_MIXES = st.one_of(
    st.none(),
    st.dictionaries(
        st.sampled_from(list(RequestKind)),
        st.one_of(st.integers(0, 9), st.floats(0.0, 1e3)),
        min_size=1,
    ).filter(lambda mix: sum(mix.values()) > 0),
)


@given(
    name=st.sampled_from(sorted(TRAFFIC_PATTERNS)),
    seed=st.integers(0, 2**32 - 1),
    tenants=st.integers(1, 16),
    kind_mix=KIND_MIXES,
    rate=st.floats(50.0, 2000.0),
    duration=st.floats(0.01, 0.2),
)
@settings(max_examples=200, deadline=None)
def test_every_trace_equals_the_slow_definition(name, seed, tenants, kind_mix, rate, duration):
    """If a numpy release changes what ``Generator.choice`` draws, it shows here."""
    generator = TRAFFIC_PATTERNS[name]
    trace = generator(rate, duration, seed=seed, tenants=tenants, kind_mix=kind_mix)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traffic, "_make_requests", spec_make_requests)
        expected = generator(rate, duration, seed=seed, tenants=tenants, kind_mix=kind_mix)
    assert trace == expected
    # One name object per tenant, shared by all of its requests.
    assert len({id(r.tenant) for r in trace}) <= tenants


# -- the checks Generator.choice made, made up front ----------------------------------


def test_a_negative_weight_is_refused():
    with pytest.raises(ValueError, match="-0.5"):
        steady_trace(100.0, 0.01, kind_mix={RequestKind.GATE: 1.0, RequestKind.ENCRYPT: -0.5})


@pytest.mark.parametrize("weight", [math.nan, math.inf])
def test_a_weight_that_is_not_finite_is_refused(weight):
    with pytest.raises(ValueError, match=f"got {weight}"):
        bursty_trace(100.0, 0.01, kind_mix={RequestKind.GATE: 1.0, RequestKind.ENCRYPT: weight})


def test_an_all_zero_mix_is_refused():
    # The trace is empty (the first arrival lies past the duration): numpy
    # never saw the mix, so it used to pass.
    with pytest.raises(ValueError, match="positive, finite sum"):
        heavy_tail_trace(1.0, 1e-6, kind_mix={RequestKind.GATE: 0.0, RequestKind.ENCRYPT: 0})


def test_zero_tenants_is_refused():
    with pytest.raises(ValueError, match="got 0"):
        steady_trace(100.0, 1e-6, tenants=0)


# -- statistical sanity ---------------------------------------------------------------


def test_steady_trace_rate_and_interarrival_moments():
    """Poisson arrivals: mean gap ≈ 1/rate, CV of gaps ≈ 1."""
    trace = steady_trace(rate_rps=5000.0, duration_s=2.0, seed=3)
    gaps = np.diff([r.arrival_s for r in trace])
    assert len(trace) == pytest.approx(10000, rel=0.1)
    assert gaps.mean() == pytest.approx(1 / 5000.0, rel=0.1)
    cv = gaps.std() / gaps.mean()
    assert 0.8 < cv < 1.2  # exponential gaps: coefficient of variation 1


def test_heavy_tail_interarrival_moments():
    """Pareto gaps keep the requested mean rate but are far burstier."""
    rate = 2000.0
    trace = heavy_tail_trace(rate_rps=rate, duration_s=5.0, seed=5, pareto_shape=1.5)
    gaps = np.diff([r.arrival_s for r in trace])
    # The scale is chosen so the mean inter-arrival matches 1/rate.
    assert gaps.mean() == pytest.approx(1 / rate, rel=0.25)
    # Shape 1.5 has infinite variance: the empirical CV must far exceed the
    # exponential baseline of 1, and the largest gap dwarfs the mean.
    cv = gaps.std() / gaps.mean()
    assert cv > 1.5
    assert gaps.max() > 20 * gaps.mean()


def test_heavy_tail_size_moments():
    """Log-normal sizes: mean ≈ mean_items with a genuinely heavy tail."""
    trace = heavy_tail_trace(
        rate_rps=2000.0, duration_s=5.0, seed=11, mean_items=8.0, size_sigma=1.2
    )
    sizes = np.array([r.items for r in trace if r.kind is not RequestKind.INFERENCE], dtype=float)
    assert sizes.mean() == pytest.approx(8.0, rel=0.3)
    assert sizes.max() > 10 * sizes.mean()  # a few huge requests exist
    assert np.median(sizes) < sizes.mean()  # right-skewed distribution


def test_bursty_trace_gaps_split_into_on_and_off_phases():
    trace = bursty_trace(burst_rate_rps=10000.0, duration_s=2.0, seed=9, burst_s=0.02, idle_s=0.08)
    gaps = np.diff([r.arrival_s for r in trace])
    in_burst = gaps[gaps < 1e-3]
    idle = gaps[gaps > 0.01]
    # Most arrivals are within-burst, but real idle gaps punctuate them.
    assert len(in_burst) > 10 * max(len(idle), 1)
    assert len(idle) >= 5
    assert idle.mean() > 50 * in_burst.mean()


def test_pareto_shape_must_give_finite_mean():
    with pytest.raises(ValueError, match="pareto shape"):
        heavy_tail_trace(rate_rps=100.0, duration_s=1.0, pareto_shape=1.0)
