"""Degraded-mode dispatch: resolving a fault schedule against live serving.

The :class:`~repro.faults.schedule.FaultSchedule` says *what* breaks;
:class:`FaultInjector` is the piece that makes the serving path feel it.
One injector lives on each :class:`~repro.serve.cluster.StrixCluster` and
owns every stateful consequence of the schedule:

* **death side effects** — when a death's injection time is reached, the
  dying device's resident key sets are reclaimed through
  :meth:`~repro.arch.key_cache.KeyResidencyManager.evict_device` (its HBM
  contents are gone; surviving copies on other devices stay).  A tenant
  left with keys nowhere is an orphan: its next placement's re-ship is
  charged once, to the earliest death that orphaned it.
* **dispatch resolution** — :meth:`run` wraps the layout's dispatch.  It
  first waits out any window in which *no* device accepts placement, then
  lets the layout place the batch among the placeable devices.  If a
  death lands inside the resulting execution window, the batch *fails at
  the death instant*: the device state the attempt booked is rolled back,
  the partial occupancy up to the failure is re-booked as wasted work,
  the dead device's keys are reclaimed, and — per ``on_death`` — the
  batch is replayed from the failure time onto the survivors
  (``"retry"``, the default) or counted as lost (``"drop"``).
* **impact accounting** — requests lost and retried, batches deferred,
  wasted and throttle-extra seconds, per-event recovery time and key
  re-ship bytes.  :meth:`availability` folds it into the report block and
  returns ``{}`` when nothing was ever impacted, so a schedule that heals
  before the first flush leaves every report byte-identical to no faults
  at all — the invariant the chaos suite pins.

Determinism: the injector adds no randomness and reads no wall clock.
Failure times come off the schedule, retry times off the failure times,
and every counter update is a pure consequence of (trace, schedule,
config) — so the same seed and the same schedule reproduce the same
:class:`~repro.serve.server.ServeReport` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING, Any

from repro.faults.schedule import FaultEvent, FaultSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.params import TFHEParameters
    from repro.sched.layouts import Dispatch
    from repro.serve.batcher import Batch
    from repro.serve.cluster import StrixCluster

#: Valid ``on_death`` policies.
ON_DEATH_POLICIES = ("retry", "drop")

#: Retry ceiling per batch — far above any real schedule's event count; a
#: batch that fails this often under a pathological schedule is lost.
MAX_RETRIES = 64


class RequestLostError(RuntimeError):
    """A request died with its device and was not replayed.

    Raised to async submitters awaiting an outcome when their batch is
    dropped (``on_death="drop"``) or runs out of surviving devices.
    """


class FaultInjector:
    """Applies one :class:`FaultSchedule` to one cluster's serving path."""

    def __init__(self, schedule: FaultSchedule, on_death: str = "retry"):
        if on_death not in ON_DEATH_POLICIES:
            raise ValueError(
                f"unknown on_death policy {on_death!r}; "
                f"choose one of {list(ON_DEATH_POLICIES)}"
            )
        self.schedule = schedule
        self.on_death = on_death
        #: Whether any fault is scheduled (``False`` keeps every fast path).
        self.active = bool(schedule)
        self._has_slowdowns = bool(schedule.slowdowns)
        self.reset()

    def reset(self) -> None:
        """Clear all per-simulation impact state (the schedule is immutable)."""
        self._deaths_applied: set[FaultEvent] = set()
        #: Tenants a death left with keys nowhere, each mapped to the earliest
        #: death that orphaned it; popped when its re-ship is charged.
        self._orphans: dict[str, FaultEvent] = {}
        self._impacts: dict[FaultEvent, dict[str, Any]] = {}
        self.requests_lost = 0
        self.requests_retried = 0
        self.batches_retried = 0
        self.batches_lost = 0
        self.batches_deferred = 0
        self.deferred_s = 0.0
        self.wasted_s = 0.0
        self.throttle_extra_s = 0.0

    # -- per-event impact records --------------------------------------------------

    def _impact(self, event: FaultEvent) -> dict[str, Any]:
        """The (created-on-first-touch) impact record for ``event``."""
        record = self._impacts.get(event)
        if record is None:
            record = {
                "requests_lost": 0,
                "batches_retried": 0,
                "requests_retried": 0,
                "recovery_s": 0.0,
                "wasted_s": 0.0,
                "evicted_tenants": 0,
                "reship_bytes": 0,
                "throttled_batches": 0,
                "throttle_extra_s": 0.0,
            }
            self._impacts[event] = record
        return record

    # -- death side effects --------------------------------------------------------

    def apply_deaths(self, cluster: "StrixCluster", now: float) -> None:
        """Reclaim key memory for every death injected at or before ``now``.

        Each death applies exactly once (a device that died, healed and
        died again is two events).  Eviction that frees nothing — the
        device held no keys, e.g. the event healed before any batch ever
        flushed — leaves no impact record, which is what keeps zero-impact
        schedules byte-identical to no faults.
        """
        for event in self.schedule.deaths:
            if event.inject_s > now:
                break
            if event not in self._deaths_applied:
                self._reclaim(cluster, event)

    def _reclaim(self, cluster: "StrixCluster", event: FaultEvent) -> None:
        """Evict ``event``'s device and note the tenants it left with keys nowhere."""
        self._deaths_applied.add(event)
        evicted = cluster.key_residency.evict_device(event.device)
        if evicted:
            self._impact(event)["evicted_tenants"] += len(evicted)  # a buried tenant counts again
        for tenant in evicted:  # a bury may re-apply a death earlier than the orphan's entry
            if not cluster.key_residency.resident_devices(tenant):
                orphaned_by = self._orphans.get(tenant, event)
                self._orphans[tenant] = min(orphaned_by, event, key=lambda death: death.inject_s)

    def _bury(self, cluster: "StrixCluster", devices: "tuple[int, ...]") -> None:
        """Reclaim keys just shipped to a device whose permanent death already applied.

        A failure can apply a death ahead of the serving clock, and a batch that
        flushed before that instant may still land on the device.  A healed device
        may also hold keys a replay shipped after the heal, so it is left alone.
        """
        for event in self.schedule.deaths:
            permanent = event.heal_s == math.inf
            if permanent and event.device in devices and event in self._deaths_applied:
                self._reclaim(cluster, event)

    def _note_reships(self, cluster: "StrixCluster", params: "TFHEParameters") -> None:
        """Charge each orphan whose keys landed again to the death that orphaned it.

        That death is the earliest that orphaned the tenant; popping the orphan
        on charge keeps attribution summing to the bytes moved.
        """
        regained = [
            tenant for tenant in self._orphans if cluster.key_residency.resident_devices(tenant)
        ]
        if regained:
            key_bytes = cluster.interconnect.key_set_bytes(params)
            for tenant in regained:
                self._impacts[self._orphans.pop(tenant)]["reship_bytes"] += key_bytes

    # -- slow-device throttling ------------------------------------------------------

    def adjust_service(self, device: int, start_s: float, service_s: float) -> float:
        """Service time after thermal throttling on ``device`` at ``start_s``.

        The multiplier of every slow-device event active at the *start* of
        the work applies to the whole window (a batch does not re-price
        mid-flight); the extra seconds are charged to each event's impact
        record.  Returns ``service_s`` unchanged — the same float — when no
        slowdown is scheduled, so the no-fault path stays bit-identical.
        """
        if not self._has_slowdowns:
            return service_s
        adjusted = service_s
        for event in self.schedule.slowdowns:
            if event.device == device and event.active_at(start_s):
                extra = adjusted * (event.slow_factor - 1.0)
                adjusted += extra
                record = self._impact(event)
                record["throttled_batches"] += 1
                record["throttle_extra_s"] += extra
                self.throttle_extra_s += extra
        return adjusted

    # -- dispatch resolution -----------------------------------------------------------

    def run(
        self,
        cluster: "StrixCluster",
        batch: "Batch",
        now: float,
        params: "TFHEParameters",
    ) -> "Dispatch":
        """Dispatch ``batch`` under the schedule (the degraded-mode path).

        Only called when the schedule is non-empty; the no-fault path goes
        straight to the layout.  See the module docstring for the
        resolution algorithm.
        """
        from repro.sched.layouts import Dispatch

        self.apply_deaths(cluster, now)
        devices = len(cluster.devices)
        t = self.schedule.first_available_s(now, devices)
        if t is None:
            return self._lose(batch, None, now)
        if t > now:
            self.batches_deferred += 1
            self.deferred_s += t - now
        causes: list[FaultEvent] = []
        attempt = 0
        while True:
            current = batch if attempt == 0 else replace(batch, attempt=attempt)
            snapshot = [
                (device.busy_until, device.busy_s, device.batches, device.pbs)
                for device in cluster.devices
            ]
            dispatch = cluster.layout.dispatch(cluster, current, t, params)
            self._bury(cluster, dispatch.devices)
            failure = self._first_failure(dispatch)
            if failure is None:
                self._note_reships(cluster, params)
                if causes:
                    dispatch = dispatch._replace(retried=True)
                    for event in causes:
                        record = self._impact(event)
                        record["recovery_s"] = max(
                            record["recovery_s"], dispatch.end_s - event.inject_s
                        )
                return dispatch
            event, failed_at = failure
            for device, state in zip(cluster.devices, snapshot):
                device.busy_until, device.busy_s, device.batches, device.pbs = state
            wasted = self._book_partial(cluster, dispatch, failed_at)
            self.wasted_s += wasted
            record = self._impact(event)
            record["wasted_s"] += wasted
            # The death is now observed: reclaim the dead device's keys so
            # the replay pays (and attributes) any re-shipping.
            self.apply_deaths(cluster, failed_at)
            if self.on_death == "drop" or attempt + 1 >= MAX_RETRIES:
                return self._lose(batch, dispatch, failed_at, event)
            attempt += 1
            causes.append(event)
            record["batches_retried"] += 1
            record["requests_retried"] += len(batch.requests)
            self.batches_retried += 1
            self.requests_retried += len(batch.requests)
            t = self.schedule.first_available_s(failed_at, devices)
            if t is None:
                return self._lose(batch, dispatch, failed_at, event)
            if t > failed_at:
                self.batches_deferred += 1
                self.deferred_s += t - failed_at

    def _first_failure(
        self, dispatch: "Dispatch"
    ) -> "tuple[FaultEvent, float] | None":
        """The earliest death landing inside the dispatch's device windows.

        Pipeline dispatches fail per-stage window; single-device dispatches
        fail on their one execution window.  Returns ``(event, t)`` with
        ``t`` the failure instant (the death time, or the window start when
        the device was already dead as the work began), or ``None``.
        """
        windows = dispatch.windows()
        best: tuple[FaultEvent, float] | None = None
        for event in self.schedule.deaths:
            for device, start, end in windows:
                if (
                    event.device == device
                    and event.inject_s < end
                    and event.heal_s > start
                ):
                    failed_at = max(event.inject_s, start)
                    if best is None or failed_at < best[1]:
                        best = (event, failed_at)
        return best

    def _book_partial(
        self, cluster: "StrixCluster", dispatch: "Dispatch", failed_at: float
    ) -> float:
        """Re-book the work executed before the failure as wasted busy time.

        The devices really ran until the death; the batch just produced
        nothing.  Utilization stays honest (busy seconds include the wasted
        window) while batch/PBS completion counters do not move.
        """
        wasted = 0.0
        for index, start, end in dispatch.windows():
            if start >= failed_at:
                continue
            until = min(end, failed_at)
            device = cluster.devices[index]
            device.busy_until = max(device.busy_until, until)
            device.busy_s += until - start
            wasted += until - start
        return wasted

    def _lose(
        self,
        batch: "Batch",
        dispatch: "Dispatch | None",
        at_s: float,
        event: FaultEvent | None = None,
    ) -> "Dispatch":
        """Mark the batch lost and return the terminal (lost) dispatch."""
        from repro.sched.layouts import Dispatch

        self.requests_lost += len(batch.requests)
        self.batches_lost += 1
        if event is not None:
            self._impact(event)["requests_lost"] += len(batch.requests)
        if dispatch is None:
            # No device ever accepted the batch: it is lost where it stood.
            return Dispatch(
                device=-1, start_s=at_s, end_s=at_s, devices=(), breakdown={}, lost=True
            )
        return dispatch._replace(end_s=at_s, lost=True)

    # -- reporting ------------------------------------------------------------------

    def _had_impact(self) -> bool:
        return bool(
            self._impacts
            or self.requests_lost
            or self.batches_deferred
            or self.wasted_s
            or self.throttle_extra_s
        )

    def availability(self, horizon_s: float) -> dict[str, Any]:
        """The report's ``availability`` block; ``{}`` when nothing happened.

        ``degraded_s`` measures the union of the impact-bearing events'
        active windows clipped to ``[0, horizon_s]`` — seconds during which
        the cluster actually served degraded, not merely seconds a fault
        was nominally scheduled.
        """
        if not self._had_impact():
            return {}
        events = []
        intervals = []
        for event in filter(self._impacts.__contains__, self.schedule.events):
            events.append({**event.to_dict(), **self._impacts[event]})
            start = min(event.inject_s, horizon_s)
            end = min(event.heal_s, horizon_s)
            if end > start:
                intervals.append((start, end))
        degraded = 0.0
        cursor = -math.inf
        for start, end in sorted(intervals):
            start = max(start, cursor)
            if end > start:
                degraded += end - start
                cursor = end
        return {
            "requests_lost": self.requests_lost,
            "requests_retried": self.requests_retried,
            "batches_lost": self.batches_lost,
            "batches_retried": self.batches_retried,
            "batches_deferred": self.batches_deferred,
            "deferred_s": self.deferred_s,
            "wasted_s": self.wasted_s,
            "throttle_extra_s": self.throttle_extra_s,
            "key_reship_bytes": sum(
                record["reship_bytes"] for record in self._impacts.values()
            ),
            "degraded_s": degraded,
            "events": events,
        }

    def stats_view(self) -> dict[str, float]:
        """Flat counters for the metrics registry's ``serve_faults`` view.

        Empty when no fault is scheduled, so registries (and the ``STATS``
        wire frame) stay byte-identical for fault-free servers.
        """
        if not self.active:
            return {}
        return {
            "events_scheduled": float(len(self.schedule)),
            "deaths_applied": float(len(self._deaths_applied)),
            "requests_lost": float(self.requests_lost),
            "requests_retried": float(self.requests_retried),
            "batches_lost": float(self.batches_lost),
            "batches_retried": float(self.batches_retried),
            "batches_deferred": float(self.batches_deferred),
            "wasted_s": self.wasted_s,
            "throttle_extra_s": self.throttle_extra_s,
        }
