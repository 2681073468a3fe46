"""``Request`` against its slow definition, the frozen slotted dataclass.

:class:`repro.serve.request.Request` is a hand-written slotted class whose
construction costs its eight slot stores.  :class:`SpecRequest` below is the
frozen dataclass it replaced, kept here as the readable definition of what a
request promises: the same fields, the same equality classes and hashes, the
same two refusals, immutability, and pickle / ``copy`` / ``deepcopy``
round trips.  Every trace the generators draw is field for field the trace
they would build out of ``SpecRequest``.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import traffic
from repro.apps.traffic import TRAFFIC_PATTERNS
from repro.serve.request import Request, RequestKind

FIELDS = (
    "request_id",
    "tenant",
    "kind",
    "items",
    "pbs_per_item",
    "arrival_s",
    "model",
    "deadline_s",
)


@dataclass(frozen=True, slots=True)
class SpecRequest:
    """The slow definition: ``Request`` as the frozen slotted dataclass it was."""

    request_id: int
    tenant: str
    kind: RequestKind
    items: int
    pbs_per_item: int
    arrival_s: float
    model: str | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.items < 1:
            raise ValueError("a request must cover at least one item")
        if self.pbs_per_item < 0:
            raise ValueError("pbs_per_item cannot be negative")


def fields(request) -> tuple:
    return tuple(getattr(request, name) for name in FIELDS)


def build(cls, values: tuple):
    """``cls(*values)``, or the refusal it raises as ``(type, message)``."""
    try:
        return cls(*values)
    except (ValueError, TypeError) as error:
        return type(error), str(error)


times = st.floats(allow_nan=False, width=64)
field_values = st.tuples(
    st.integers(-(2**63), 2**63),
    st.sampled_from(["tenant0", "tenant1", "t"]),
    st.sampled_from(list(RequestKind)),
    st.integers(-2, 3) | st.integers(1, 40),
    st.integers(-2, 3) | st.integers(0, 3000),
    times,
    st.none() | st.sampled_from(["NN-20", "NN-50"]),
    st.none() | times,
)


@given(values=field_values, other=field_values, changed=st.sets(st.integers(0, 7)))
def test_request_equals_the_slow_definition(values, other, changed):
    """Fields, refusals, equality, hash, repr, copies and immutability all
    agree with the frozen dataclass, for valid and invalid field values; the
    second request takes the fields in ``changed`` from ``other``."""
    mixed = tuple(other[i] if i in changed else values[i] for i in range(8))
    fast, spec = build(Request, values), build(SpecRequest, values)
    fast_mixed, spec_mixed = build(Request, mixed), build(SpecRequest, mixed)
    if isinstance(spec, tuple) or isinstance(fast, tuple):
        assert fast == spec  # the same refusal type and message
        return
    assert fields(fast) == fields(spec) == values
    assert type(fast) is Request
    assert Request(**dict(zip(FIELDS, values))) == fast
    assert hash(fast) == hash(spec)
    assert repr(fast) == "Request" + repr(spec).removeprefix("SpecRequest")
    assert fast != spec and spec != fast
    if not isinstance(spec_mixed, tuple):
        assert (fast == fast_mixed) is (spec == spec_mixed) is (values == mixed)
        assert (fast != fast_mixed) is (spec != spec_mixed)
        if spec == spec_mixed:
            assert hash(fast) == hash(fast_mixed)
    for request in (fast, spec):
        for twin in (pickle.loads(pickle.dumps(request)), copy.copy(request)):
            assert type(twin) is type(request) and twin == request
            assert hash(twin) == hash(request)
        assert copy.deepcopy(request) == request
        for name in FIELDS:
            with pytest.raises(AttributeError):
                setattr(request, name, values[FIELDS.index(name)])
            with pytest.raises(AttributeError):
                delattr(request, name)
        assert fields(request) == values


@pytest.mark.parametrize("pattern", sorted(TRAFFIC_PATTERNS))
def test_every_trace_is_the_trace_of_the_slow_definition(pattern, monkeypatch):
    """Seeds 0-4 x tenants 1/3/4/12: built from ``SpecRequest``, field for field."""
    generate = TRAFFIC_PATTERNS[pattern]
    cases = [(seed, tenants) for seed in range(5) for tenants in (1, 3, 4, 12)]
    real = [generate(4000.0, 0.1, seed=seed, tenants=tenants) for seed, tenants in cases]
    monkeypatch.setattr(traffic, "Request", SpecRequest)
    slow = [generate(4000.0, 0.1, seed=seed, tenants=tenants) for seed, tenants in cases]
    assert all(type(request) is SpecRequest for trace in slow for request in trace)
    assert sum(map(len, real)) > 1000
    assert [list(map(fields, trace)) for trace in real] == [
        list(map(fields, trace)) for trace in slow
    ]
