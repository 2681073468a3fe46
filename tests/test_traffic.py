"""Tests for :mod:`repro.apps.traffic`: determinism and statistical sanity.

The serving benchmarks and the QoS work both lean on these generators, so
two properties must hold rock-solid: a seed fully determines a trace (same
requests, same order, same sizes, same tenants), and the statistical shape
each generator promises — Poisson steadiness, on/off burstiness, heavy
tails — actually shows up in the moments of what it emits.

A third pins the draws themselves, in circlestark's ``fft`` / ``fast_fft``
manner: :func:`spec_arrivals` is the gap-by-gap arrival loop and
:func:`spec_make_requests` the per-request loop, both written the slow,
obvious way (one scalar gap per arrival; ``Generator.choice``, an f-string
and ``Request.make`` per request), and every generator's trace equals the one
they build, request for request.  The block draws behind the fast path are
held to per-call loops on their values *and* on the generator's end state.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def spec_arrivals(rng, gaps, mean_gap, now, cut) -> list[float]:
    """The slow definition of ``traffic._arrivals``: one scalar gap at a time,
    until the running sum reaches the cut (that gap is drawn, not kept)."""
    times = []
    while True:
        now += gaps(None)
        if now >= cut:
            return times
        times.append(now)


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
@settings(max_examples=2 * settings.default.max_examples, deadline=None)
def test_every_trace_equals_the_slow_definition(name, seed, tenants, kind_mix, rate, duration):
    """If a numpy release changes what ``Generator.choice``, ``integers`` or
    the ziggurat draws, or how PCG64 buffers its 32-bit halves, it shows here."""
    generator = TRAFFIC_PATTERNS[name]
    trace = generator(rate, duration, seed=seed, tenants=tenants, kind_mix=kind_mix)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traffic, "_arrivals", spec_arrivals)
        patch.setattr(traffic, "_make_requests", spec_make_requests)
        expected = generator(rate, duration, seed=seed, tenants=tenants, kind_mix=kind_mix)
    assert trace == expected
    # One name object per tenant, shared by all of its requests.
    assert len({id(r.tenant) for r in trace}) <= tenants


def cumulative_of(weights: list[float]) -> np.ndarray:
    cumulative = np.cumsum(np.asarray(weights, dtype=float) / sum(weights))
    return cumulative / cumulative[-1]


@given(
    seed=st.integers(0, 2**32 - 1),
    # Up to 16 tenants Lemire almost never rejects; at 2**31 + 1 it rejects
    # about half of the draws, at 3 * 2**30 about a quarter.
    tenants=st.one_of(st.integers(1, 16), st.sampled_from([2**31 + 1, 3 * 2**30])),
    count=st.integers(0, 300),
    held=st.booleans(),
    weights=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=5).filter(lambda w: sum(w) > 0),
    tie=st.booleans(),
)
@example(seed=3, tenants=2**31 + 1, count=200, held=False, weights=[1.0, 2.0], tie=True)
@example(seed=4, tenants=3 * 2**30, count=200, held=True, weights=[0.0, 1.0, 0.0], tie=False)
@settings(max_examples=3 * settings.default.max_examples, deadline=None)
def test_kinds_and_tenants_equal_the_per_call_loop(seed, tenants, count, held, weights, tie):
    """Values and the generator's end state, its buffered 32-bit half included."""
    cumulative = cumulative_of(weights)
    fast, slow, peek = (np.random.default_rng(seed) for _ in range(3))
    if held:  # a 32-bit half waits in the buffer on entry
        for rng in (fast, slow, peek):
            rng.integers(5)
    if tie:  # the first kind draw lands exactly on a boundary: bisect_right's tie rule
        cumulative = np.sort(np.append(cumulative, peek.random()))
    kinds, ids = traffic._kinds_and_tenants(fast, cumulative, tenants, count)
    cdf = cumulative.tolist()
    expected = [
        (bisect_right(cdf, slow.random()), int(slow.integers(tenants))) for _ in range(count)
    ]
    assert list(zip(kinds.tolist(), ids.tolist())) == expected
    assert fast.bit_generator.state == slow.bit_generator.state


#: Gap draws the arrival helper is called with, by name: ``gaps(rng, mean_gap, size)``.
GAPS = {
    "exponential": lambda rng, mean, size: rng.exponential(mean, size),
    "pareto": lambda rng, mean, size: mean / 3 * (1.0 + rng.pareto(1.5, size)),
}


@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(sorted(GAPS)),
    mean_gap=st.floats(1e-4, 1.0),
    now=st.floats(0.0, 10.0),
    span=st.floats(0.0, 1.0),
)
@settings(max_examples=2 * settings.default.max_examples, deadline=None)
def test_arrivals_equal_the_gap_by_gap_loop(seed, name, mean_gap, now, span):
    """Values and the generator's end state: one gap past the cut, no more."""
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    gaps, cut = GAPS[name], now + span
    times = traffic._arrivals(fast, lambda size: gaps(fast, mean_gap, size), mean_gap, now, cut)
    expected = spec_arrivals(slow, lambda size: gaps(slow, mean_gap, size), mean_gap, now, cut)
    assert times == expected
    assert all(type(time) is float for time in times)
    assert fast.bit_generator.state == slow.bit_generator.state


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


@pytest.mark.parametrize("tenants", [0, 2**32 + 1])
def test_a_tenant_count_outside_the_32_bit_draw_is_refused(tenants):
    with pytest.raises(ValueError, match=f"got {tenants}"):
        steady_trace(100.0, 1e-6, tenants=tenants)


# -- parameters that are not finite, refused before any draw -------------------------

#: (generator, a parameter of it that must be finite).
PARAMETERS = [
    (steady_trace, "rate_rps"),
    (steady_trace, "duration_s"),
    (steady_trace, "mean_items"),
    (bursty_trace, "burst_rate_rps"),
    (bursty_trace, "duration_s"),
    (bursty_trace, "burst_s"),
    (bursty_trace, "idle_s"),
    (bursty_trace, "mean_items"),
    (heavy_tail_trace, "rate_rps"),
    (heavy_tail_trace, "duration_s"),
    (heavy_tail_trace, "mean_items"),
    (heavy_tail_trace, "pareto_shape"),
    (heavy_tail_trace, "size_sigma"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    ("generator", "parameter"), PARAMETERS, ids=[f"{g.__name__}-{p}" for g, p in PARAMETERS]
)
def test_a_parameter_that_is_not_finite_is_refused(generator, parameter, value, monkeypatch):
    """NaN and infinity passed the old ``<= 0`` guards: a NaN or infinite rate,
    an infinite duration or a NaN burst length looped forever, and a NaN
    duration gave bursty an empty trace.  The refusal names the parameter and
    the value, before any draw."""
    defaults = {"rate_rps": 100.0, "burst_rate_rps": 100.0, "duration_s": 0.01}
    arguments = {name: defaults[name] for name in defaults if name in generator.__annotations__}
    arguments[parameter] = value

    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was seeded before the parameters were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=rf"{re.escape(parameter)}.*got.*{value}"):
        generator(**arguments)


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
