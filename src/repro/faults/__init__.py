"""Deterministic fault injection and degraded-mode serving (Seam 7).

Production clusters lose devices mid-trace; this package makes the serving
tier model it without giving up a single bit of reproducibility:

* :class:`FaultSchedule` — an immutable, time-sorted plan of
  device-death :class:`FaultEvent`\\ s, every availability question a
  pure function of time;
* :class:`FaultInjector` — the per-cluster resolver: excludes dead
  devices from placement, reclaims a dead device's key memory through
  :class:`~repro.arch.key_cache.KeyResidencyManager`, replays (or drops)
  batches whose device dies under them per ``on_death="retry"|"drop"``,
  and accounts the impact the :class:`~repro.serve.server.ServeReport`
  ``availability`` block reports;
* :class:`RequestLostError` — what an async submitter awaits into when its
  request dies with its device and is not replayed.

The contract, enforced by the chaos suite in ``tests/test_faults.py``: an
empty schedule changes nothing (byte-for-byte), the same seed and schedule
reproduce the same report bit-for-bit, and ``completed + lost ==
submitted`` under every fault mix.  See ``docs/resilience.md``.

Quickstart::

    from repro.apps.traffic import steady_trace
    from repro.faults import FaultSchedule
    from repro.serve import Server

    schedule = FaultSchedule.of(FaultSchedule.death(device=1, at_s=0.05))
    server = Server(devices=4, faults=schedule, on_death="retry")
    report = server.simulate(
        steady_trace(rate_rps=2000, duration_s=0.1, seed=7), label="chaos"
    )
    print(report.metrics.availability)     # lost/retried/recovery/re-ship
"""

from repro.faults.injector import (
    MAX_RETRIES,
    ON_DEATH_POLICIES,
    FaultInjector,
    RequestLostError,
)
from repro.faults.schedule import FaultEvent, FaultSchedule

__all__ = [
    "MAX_RETRIES",
    "ON_DEATH_POLICIES",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "RequestLostError",
]
