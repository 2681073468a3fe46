"""Deterministic fault schedules: what breaks, when, and for how long.

Production clusters lose devices; a *simulated* cluster has to lose them
deterministically, or no availability number it reports can be trusted
twice.  A :class:`FaultSchedule` is the whole fault story of one serving
run, fixed before the run starts: a sorted tuple of :class:`FaultEvent`\\ s,
each naming a device, an injection time and (optionally) a heal time.
Every event is a device death: the device drops off the cluster at
``inject_s``, it rejects placement, any batch occupying it at that instant
fails (the injector replays or drops it per the ``on_death`` policy), and
its HBM contents — resident tenant key sets — are lost.  A finite
``heal_s`` models a reboot: the device returns *empty*, so returning
tenants pay key re-shipping.

The schedule is **pure data**: every availability question
(:meth:`FaultSchedule.dead_at`, :meth:`FaultSchedule.available_indices`,
:meth:`FaultSchedule.first_available_s`) is a time-indexed query with no
internal state, which is what makes degraded-mode serving replayable —
the :class:`~repro.faults.injector.FaultInjector` keeps the one-shot
side effects (key eviction on death, impact accounting) and the schedule
never changes under it.  An empty schedule is the explicit no-fault case
and costs nothing: every fast path in the serving tier checks
``schedule`` truthiness once and falls through to the historical
arithmetic, byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class FaultEvent:
    """One device death: ``[inject_s, heal_s)`` on the serving clock.

    ``heal_s`` defaults to ``math.inf`` (the device never comes back).
    """

    device: int
    inject_s: float
    heal_s: float = math.inf

    def __post_init__(self) -> None:
        if self.device < 0:
            raise ValueError("fault events target device indices >= 0")
        if self.inject_s < 0:
            raise ValueError("faults cannot inject before the run starts")
        if self.heal_s <= self.inject_s:
            raise ValueError("a fault must heal strictly after it injects")

    def active_at(self, t_s: float) -> bool:
        """Whether the fault is in effect at time ``t_s``."""
        return self.inject_s <= t_s < self.heal_s

    def to_dict(self) -> dict:
        """JSON-friendly representation (``heal_s`` is ``None`` when inf)."""
        return {
            "device": self.device,
            "inject_s": self.inject_s,
            "heal_s": None if math.isinf(self.heal_s) else self.heal_s,
        }


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-sorted set of :class:`FaultEvent`\\ s.

    Build one with :meth:`of` (which sorts) from :meth:`death` events.  All
    queries are pure functions of time, so two runs over one schedule can
    never observe different fault states.
    """

    events: tuple[FaultEvent, ...] = field(default=())

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda event: (event.inject_s, event.device)))
        seen: set[FaultEvent] = set()
        for event in ordered:
            if event in seen:
                raise ValueError(f"a fault schedule cannot list one event twice: {event}")
            seen.add(event)
        object.__setattr__(self, "events", ordered)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    # -- construction ------------------------------------------------------------

    @classmethod
    def empty(cls) -> "FaultSchedule":
        """The explicit no-fault schedule (serving stays byte-identical)."""
        return cls()

    @classmethod
    def of(cls, *events: FaultEvent) -> "FaultSchedule":
        """A schedule from distinct events in any order."""
        return cls(events=tuple(events))

    @staticmethod
    def death(device: int, at_s: float, heal_s: float = math.inf) -> FaultEvent:
        """A device-death event (reboot at ``heal_s`` if finite)."""
        return FaultEvent(device, at_s, heal_s)

    # -- time-indexed queries ----------------------------------------------------

    def dead_at(self, device: int, t_s: float) -> bool:
        """Whether ``device`` is dead at time ``t_s``."""
        return any(event.device == device and event.active_at(t_s) for event in self.events)

    def available_indices(self, t_s: float, devices: int) -> list[int]:
        """Indices accepting placement at ``t_s``, ascending."""
        return [index for index in range(devices) if not self.dead_at(index, t_s)]

    def first_available_s(self, t_s: float, devices: int) -> float | None:
        """Earliest time ``>= t_s`` at which *some* device accepts placement.

        ``t_s`` itself when a device is already placeable; otherwise the
        first heal that frees one (only a heal can); ``None`` when every
        device stays dead forever (all remaining deaths are permanent).
        """
        if self.available_indices(t_s, devices):
            return t_s
        heals = sorted({event.heal_s for event in self.events if t_s < event.heal_s < math.inf})
        for heal_s in heals:
            if self.available_indices(heal_s, devices):
                return heal_s
        return None
