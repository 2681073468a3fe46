"""Serially reusable resources and a small discrete-event engine.

:class:`Resource` is the booking primitive of the epoch scheduler
(:mod:`repro.sim.scheduler`): occupy one HSC, the keyswitch cluster or the
linear unit for a duration as soon as it is free.  The scheduler holds its
resources directly and reads makespan and utilization off them.

:class:`SimulationEngine` wraps the same resources by name, adds a
time-ordered event heap and records every activity as a
:class:`~repro.sim.events.TimelineEntry`.  No module under ``src/`` drives
it — it is kept for its public API — and the Fig. 8 occupancy traces come
from :class:`repro.arch.hsc.BusyInterval`, not from this timeline.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.sim.events import Event, TimelineEntry


@dataclass
class Resource:
    """A serially reusable resource (one HSC, the HBM bus, ...)."""

    name: str
    free_at: float = 0.0
    busy_time: float = 0.0

    def reserve(self, earliest_start: float, duration: float) -> tuple[float, float]:
        """Occupy the resource for ``duration`` as soon as possible.

        Returns the (start, end) interval actually granted.
        """
        start = max(self.free_at, earliest_start)
        end = start + duration
        self.free_at = end
        self.busy_time += duration
        return start, end


class SimulationEngine:
    """Discrete-event engine with named resources and a recorded timeline."""

    def __init__(self):
        self._events: list[Event] = []
        self._resources: dict[str, Resource] = {}
        self.timeline: list[TimelineEntry] = []
        self.now: float = 0.0

    # -- resources -----------------------------------------------------------

    def add_resource(self, name: str) -> Resource:
        """Register a resource; returns the existing one if already present."""
        if name not in self._resources:
            self._resources[name] = Resource(name)
        return self._resources[name]

    def resource(self, name: str) -> Resource:
        """Look up a registered resource."""
        return self._resources[name]

    @property
    def resources(self) -> dict[str, Resource]:
        """All registered resources."""
        return dict(self._resources)

    # -- activities -----------------------------------------------------------

    def schedule_activity(
        self,
        resource_name: str,
        duration: float,
        earliest_start: float = 0.0,
        label: str = "",
    ) -> TimelineEntry:
        """Reserve a resource and record the activity on the timeline.

        The activity starts at ``max(earliest_start, resource free time)``;
        the engine's clock advances lazily when :meth:`run` drains events, so
        activities may be scheduled ahead of time.
        """
        resource = self.add_resource(resource_name)
        start, end = resource.reserve(earliest_start, duration)
        entry = TimelineEntry(resource=resource_name, label=label, start=start, end=end)
        self.timeline.append(entry)
        return entry

    # -- classic event queue -----------------------------------------------------

    def schedule_event(self, time: float, action, priority: int = 0, label: str = "") -> None:
        """Push a callback onto the event heap."""
        heapq.heappush(self._events, Event.at(time, action, priority, label))

    def run(self) -> float:
        """Drain the event heap; returns the final simulation time."""
        while self._events:
            event = heapq.heappop(self._events)
            self.now = event.time
            event.action()
        self.now = max(self.now, self.makespan)
        return self.now

    # -- results --------------------------------------------------------------------

    @property
    def makespan(self) -> float:
        """Completion time of the last activity (0.0 before the first).

        A resource's reservations never end earlier than the one before, so
        the latest ``free_at`` is the largest ``end`` on the timeline.
        """
        return max((resource.free_at for resource in self._resources.values()), default=0.0)

    def utilization(self, resource_name: str) -> float:
        """Busy fraction of a resource over the makespan."""
        span = self.makespan
        if span <= 0:
            return 0.0
        return self._resources[resource_name].busy_time / span

    def entries_for(self, resource_name: str) -> list[TimelineEntry]:
        """All timeline entries of one resource, in start order."""
        entries = [entry for entry in self.timeline if entry.resource == resource_name]
        return sorted(entries, key=lambda entry: entry.start)
