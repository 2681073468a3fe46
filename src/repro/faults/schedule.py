"""Deterministic fault schedules: what breaks, when, and for how long.

Production clusters lose devices; a *simulated* cluster has to lose them
deterministically, or no availability number it reports can be trusted
twice.  A :class:`FaultSchedule` is the whole fault story of one serving
run, fixed before the run starts: a sorted tuple of :class:`FaultEvent`\\ s,
each naming a device, an injection time and (optionally) a heal time.
Three kinds of event exist:

* ``DEVICE_DEATH`` — the device drops off the cluster at ``inject_s``: it
  rejects placement, any batch occupying it at that instant fails (the
  injector replays or drops it per the ``on_death`` policy), and its HBM
  contents — resident tenant key sets — are lost.  A finite ``heal_s``
  models a reboot: the device returns *empty*, so returning tenants pay
  key re-shipping.
* ``SLOW_DEVICE`` — a thermal throttle: every batch (or pipeline stage)
  *starting* on the device while the event is active takes
  ``slow_factor``× its modeled service time.  Keys stay resident; nothing
  fails.
* ``PARTITION`` — an interconnect partition: the host cannot reach the
  device, so it rejects *new* placement while the event is active, but
  work already on it completes and its key sets survive — when the
  partition heals the device rejoins warm, with no re-shipping.

The schedule is **pure data**: every availability question
(:meth:`FaultSchedule.dead_at`, :meth:`FaultSchedule.available_indices`,
:meth:`FaultSchedule.slow_factor_at`) is a time-indexed query with no
internal state, which is what makes degraded-mode serving replayable —
the :class:`~repro.faults.injector.FaultInjector` keeps the one-shot
side effects (key eviction on death, impact accounting) and the schedule
never changes under it.  An empty schedule is the explicit no-fault case
and costs nothing: every fast path in the serving tier checks
``schedule`` truthiness once and falls through to the historical
arithmetic, byte-for-byte.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field


class FaultKind(enum.Enum):
    """The three failure modes the serving tier models."""

    DEVICE_DEATH = "death"
    SLOW_DEVICE = "slow"
    PARTITION = "partition"


@dataclass(frozen=True)
class FaultEvent:
    """One fault on one device: ``[inject_s, heal_s)`` on the serving clock.

    ``heal_s`` defaults to ``math.inf`` (the fault never heals);
    ``slow_factor`` is only meaningful for ``SLOW_DEVICE`` events, where it
    multiplies the service time of work starting inside the window.
    """

    kind: FaultKind
    device: int
    inject_s: float
    heal_s: float = math.inf
    slow_factor: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            object.__setattr__(self, "kind", FaultKind(self.kind))
        if self.device < 0:
            raise ValueError("fault events target device indices >= 0")
        if self.inject_s < 0:
            raise ValueError("faults cannot inject before the run starts")
        if self.heal_s <= self.inject_s:
            raise ValueError("a fault must heal strictly after it injects")
        if self.kind is FaultKind.SLOW_DEVICE:
            if self.slow_factor <= 1.0:
                raise ValueError(
                    "a slow-device event needs slow_factor > 1 "
                    "(1.0 is not a fault)"
                )
        elif self.slow_factor != 1.0:
            raise ValueError("slow_factor only applies to SLOW_DEVICE events")

    def active_at(self, t_s: float) -> bool:
        """Whether the fault is in effect at time ``t_s``."""
        return self.inject_s <= t_s < self.heal_s

    def to_dict(self) -> dict:
        """JSON-friendly representation (``heal_s`` is ``None`` when inf)."""
        out: dict = {
            "kind": self.kind.value,
            "device": self.device,
            "inject_s": self.inject_s,
            "heal_s": None if math.isinf(self.heal_s) else self.heal_s,
        }
        if self.kind is FaultKind.SLOW_DEVICE:
            out["slow_factor"] = self.slow_factor
        return out


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-sorted set of :class:`FaultEvent`\\ s.

    Build one with :meth:`of` (which sorts) from the :meth:`death` /
    :meth:`slowdown` / :meth:`partition` helpers, or draw a seeded random
    mix with :meth:`random` (the chaos suite's generator — same seed, same
    schedule, always).  All queries are pure functions of time, so two runs
    over one schedule can never observe different fault states.
    """

    events: tuple[FaultEvent, ...] = field(default=())

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(
                self.events,
                key=lambda event: (event.inject_s, event.device, event.kind.value),
            )
        )
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
        return FaultEvent(FaultKind.DEVICE_DEATH, device, at_s, heal_s)

    @staticmethod
    def slowdown(
        device: int, factor: float, at_s: float, heal_s: float = math.inf
    ) -> FaultEvent:
        """A thermal-throttle event multiplying service time by ``factor``."""
        return FaultEvent(
            FaultKind.SLOW_DEVICE, device, at_s, heal_s, slow_factor=factor
        )

    @staticmethod
    def partition(device: int, at_s: float, heal_s: float = math.inf) -> FaultEvent:
        """An interconnect-partition event (placement-only exclusion)."""
        return FaultEvent(FaultKind.PARTITION, device, at_s, heal_s)

    @classmethod
    def random(
        cls,
        devices: int,
        duration_s: float,
        seed: int,
        events: int = 3,
    ) -> "FaultSchedule":
        """A seeded random fault mix over ``[0, duration_s)``.

        The chaos suite's generator: deaths, slowdowns and partitions in
        roughly equal measure, most of them healing within the run.  Device
        0 is never killed or partitioned permanently by construction —
        at least one survivor keeps ``on_death="retry"`` runs meaningful —
        but everything else (which device, when, how long, how slow) comes
        off ``random.Random(seed)``, so one seed is one schedule forever.
        """
        if devices < 1:
            raise ValueError("a fault schedule needs at least one device")
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        rng = random.Random(seed)
        drawn: list[FaultEvent] = []
        kinds = (FaultKind.DEVICE_DEATH, FaultKind.SLOW_DEVICE, FaultKind.PARTITION)
        for _ in range(events):
            kind = kinds[rng.randrange(len(kinds))]
            inject = rng.uniform(0.0, duration_s * 0.9)
            heals = rng.random() < 0.75
            heal = inject + rng.uniform(duration_s * 0.05, duration_s * 0.5)
            if kind is FaultKind.SLOW_DEVICE:
                device = rng.randrange(devices)
                drawn.append(
                    FaultSchedule.slowdown(
                        device,
                        1.0 + rng.uniform(0.5, 3.0),
                        inject,
                        heal if heals else math.inf,
                    )
                )
            else:
                # Keep device 0 out of permanent death/partition events.
                device = rng.randrange(1, devices) if devices > 1 else 0
                if devices == 1:
                    heals = True
                maker = (
                    FaultSchedule.death
                    if kind is FaultKind.DEVICE_DEATH
                    else FaultSchedule.partition
                )
                drawn.append(maker(device, inject, heal if heals else math.inf))
        return cls.of(*drawn)

    # -- per-kind views ----------------------------------------------------------

    @property
    def deaths(self) -> tuple[FaultEvent, ...]:
        """Device-death events, in injection order."""
        return tuple(
            event for event in self.events if event.kind is FaultKind.DEVICE_DEATH
        )

    @property
    def slowdowns(self) -> tuple[FaultEvent, ...]:
        """Slow-device events, in injection order."""
        return tuple(
            event for event in self.events if event.kind is FaultKind.SLOW_DEVICE
        )

    # -- time-indexed queries ----------------------------------------------------

    def dead_at(self, device: int, t_s: float) -> bool:
        """Whether ``device`` is dead at time ``t_s``."""
        return any(
            event.device == device and event.active_at(t_s)
            for event in self.events
            if event.kind is FaultKind.DEVICE_DEATH
        )

    def partitioned_at(self, device: int, t_s: float) -> bool:
        """Whether ``device`` is unreachable (partitioned) at time ``t_s``."""
        return any(
            event.device == device and event.active_at(t_s)
            for event in self.events
            if event.kind is FaultKind.PARTITION
        )

    def placeable_at(self, device: int, t_s: float) -> bool:
        """Whether new work may land on ``device`` at time ``t_s``.

        Dead devices reject everything; partitioned devices reject *new*
        placement (work already on them completes).
        """
        return not (self.dead_at(device, t_s) or self.partitioned_at(device, t_s))

    def available_indices(self, t_s: float, devices: int) -> list[int]:
        """Indices accepting placement at ``t_s``, ascending."""
        return [
            index for index in range(devices) if self.placeable_at(index, t_s)
        ]

    def first_available_s(self, t_s: float, devices: int) -> float | None:
        """Earliest time ``>= t_s`` at which *some* device accepts placement.

        ``t_s`` itself when a device is already placeable; otherwise the
        first event boundary that frees one; ``None`` when every device
        stays unreachable forever (all remaining faults are permanent).
        """
        if self.available_indices(t_s, devices):
            return t_s
        boundaries = sorted(
            {
                boundary
                for event in self.events
                for boundary in (event.inject_s, event.heal_s)
                if t_s < boundary < math.inf
            }
        )
        for boundary in boundaries:
            if self.available_indices(boundary, devices):
                return boundary
        return None
