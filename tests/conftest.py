"""Shared fixtures for the test suite.

Key generation and bootstrapping-key encryption are the slowest parts of the
functional TFHE tests, so contexts (with their server keys) are created once
per session and shared.  Tests never mutate the contexts' key material.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import threading

import numpy as np
import pytest
from hypothesis import settings

from repro.arch.accelerator import StrixAccelerator
from repro.faults import FaultSchedule
from repro.flow import RequestRejectedError
from repro.net.loadgen import replay_trace
from repro.net.server import NetServer
from repro.params import SMALL_PARAMETERS, TOY_PARAMETERS
from repro.runtime import Session
from repro.serve import Request, Server
from repro.tfhe.context import TFHEContext

#: ``HYPOTHESIS_PROFILE=fuzz`` runs every property that does not pin its own
#: example count (the decoder fuzzer of ``test_net_fuzz.py``) ten times longer.
settings.register_profile("fuzz", max_examples=10 * settings.default.max_examples)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Deterministic random generator for tests that need raw randomness."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def toy_context() -> TFHEContext:
    """A TFHE context on the fast TOY parameter set, with server keys."""
    context = TFHEContext(TOY_PARAMETERS, seed=2023)
    context.generate_server_keys()
    return context


@pytest.fixture(scope="session")
def toy_session() -> Session:
    """A key-owning TOY session for ``run(..., backend="reference", session=...)``."""
    session = Session(TOY_PARAMETERS, seed=2023)
    session.generate_server_keys()
    return session


@pytest.fixture(scope="session")
def small_context() -> TFHEContext:
    """A TFHE context on the SMALL parameter set (k=2), with server keys."""
    context = TFHEContext(SMALL_PARAMETERS, seed=2024)
    context.generate_server_keys()
    return context


@pytest.fixture(scope="session")
def strix() -> StrixAccelerator:
    """The default Strix accelerator model (TvLP=8, CLP=4, folded FFT)."""
    return StrixAccelerator()


def ledger(report) -> dict[str, int]:
    """How every submitted request of ``report`` ended, by fate."""
    overload, availability = report.metrics.overload, report.metrics.availability
    return {
        "completed": report.metrics.requests,
        "lost": availability.get("requests_lost", 0),
        "rejected": overload.get("rejected", 0),
        "shed": overload.get("shed", 0),
        "expired": overload.get("expired", 0),
    }


def random_fault_schedule(
    devices: int, duration_s: float, seed: int, events: int = 3
) -> FaultSchedule:
    """A seeded random schedule of ``events`` deaths over ``[0, duration_s)``.

    The chaos suite's generator: about three deaths in four heal within the
    run.  Device 0 never dies permanently — on one device every death heals,
    on more device 0 never dies — so ``on_death="retry"`` runs always keep a
    survivor.  Everything else comes off ``random.Random(seed)``, so one seed
    is one schedule.
    """
    rng = random.Random(seed)
    drawn = []
    for _ in range(events):
        inject = rng.uniform(0.0, duration_s * 0.9)
        heals = rng.random() < 0.75 or devices == 1
        heal = inject + rng.uniform(duration_s * 0.05, duration_s * 0.5)
        device = rng.randrange(1, devices) if devices > 1 else 0
        drawn.append(FaultSchedule.death(device, inject, heal if heals else math.inf))
    return FaultSchedule.of(*drawn)


def with_deadline(request: Request, deadline_s: float) -> Request:
    """``request`` rebuilt with ``deadline_s`` (a ``Request`` has no ``replace``)."""
    return Request(
        request.request_id,
        request.tenant,
        request.kind,
        request.items,
        request.pbs_per_item,
        request.arrival_s,
        request.model,
        deadline_s,
    )


def _serve_three_ways(trace, deadline=False, death=False, **options):
    """Serve ``trace`` through all three simulated-clock entries and assert
    they agree: ``simulate(trace)`` ≡ ``begin_run``/``offer``*/``finish`` ≡
    the trace over loopback TCP, on outcomes and on ``to_dict()`` (the wire
    run adds only its ``wire`` block and the BUSY frames it counted), with
    every request accounted for exactly once in all three.

    ``deadline`` gives every request a budget just under the batcher's
    flush delay, so the head of each deadline-flushed batch expires;
    ``death`` kills the device serving the middle request halfway through
    that batch with ``on_death="drop"``, so it is lost.  Returns
    ``(in_process_report, wire_report)``.
    """
    if deadline:
        trace = [with_deadline(r, r.arrival_s + 0.0019) for r in trace]
    if death:
        served = Server(**options).simulate(trace).outcomes
        victim = served[len(served) // 2]
        midway = (victim.dispatched_s + victim.completed_s) / 2
        options.update(
            faults=FaultSchedule.of(FaultSchedule.death(victim.device, midway)),
            on_death="drop",
        )
    local = Server(**options).simulate(trace, label="three-ways")
    run = Server(**options).begin_run(label="three-ways")
    for request in sorted(trace, key=lambda r: r.arrival_s):
        try:
            run.offer(request)
        except RequestRejectedError:
            pass
    run.drain()
    streamed = run.finish()
    wire = replay_trace(trace, label="three-ways", **options)

    assert streamed.outcomes == local.outcomes
    assert streamed.to_dict() == local.to_dict()
    wired = wire.to_dict()
    assert wired.pop("wire")
    wired.get("overload", {}).pop("busy_replies", None)
    assert wire.outcomes == local.outcomes
    assert wired == local.to_dict()
    for report in (local, streamed, wire):
        assert sum(ledger(report).values()) == len(trace)
    fates = ledger(local)
    assert (fates["expired"] > 0) == deadline
    assert (fates["lost"] > 0) == death
    return local, wire


@pytest.fixture
def serve_three_ways():
    """:func:`_serve_three_ways`, for the in-process ≡ TCP equality tests."""
    return _serve_three_ways


class _ThreadedNetServer:
    """A NetServer on its own thread and event loop, for the blocking-client tests."""

    def __init__(self, **options):
        self._options = options
        self._ready = threading.Event()
        self._thread = threading.Thread(target=lambda: asyncio.run(self._serve()), daemon=True)
        self.address = None
        self.net = None

    async def _serve(self):
        self._loop = asyncio.get_running_loop()
        self._stop = self._loop.create_future()
        async with NetServer(**self._options) as self.net:
            self.address = self.net.address
            self._ready.set()
            await self._stop

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(5.0), "server did not start"
        return self

    def __exit__(self, *exc_info):
        self._loop.call_soon_threadsafe(lambda: self._stop.done() or self._stop.set_result(None))
        self._thread.join(5.0)


@pytest.fixture
def threaded_net_server():
    """``with threaded_net_server(**NetServer options) as served:`` serves on
    ``served.address`` (``served.net`` is the server) until the block ends."""
    return _ThreadedNetServer
