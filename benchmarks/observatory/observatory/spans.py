"""In-memory span recorder: ``span()`` / ``wrap()`` around calls into ``repro``.

The benchmark traces from outside: no file under ``src/`` carries a timer.
A span is ``(name, start, end, parent, op)``; spans of one operation (one
PBS call, one ``simulate()`` of one trace) share ``op``.  A layer's self time
is its spans' duration minus the part their child spans cover.  Spans live in
typed arrays (28 bytes each — a traced ``simulate()`` pass records over a
million) and are written as JSONL only on request.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

import numpy as np


class Recorder:
    """Records nested spans and undoes every wrapper it installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._stack: list[int] = [-1]
        #: Identifier stamped on every span opened from now on.
        self.op = 0
        self._restores: list[tuple[Any, str, Any, bool]] = []

    def __len__(self) -> int:
        return len(self._name)

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    # -- recording ----------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._op.append(self.op)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager recording one span named ``name``."""
        return _Span(self, self._name_id(name))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper until :meth:`restore`.

        ``owner`` is a class, a module or an instance.  ``observe(args,
        result)`` runs after the span closes (sizes and counts the span
        itself cannot know).
        """
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        name_id = self._name_id(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            index = open_(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                close(index)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._restores.append((owner, attr, original, own))

    def restore(self) -> None:
        """Put back every attribute :meth:`wrap` replaced (idempotent)."""
        while self._restores:
            owner, attr, original, own = self._restores.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ------------------------------------------------------------------

    def totals(self) -> dict[str, "SpanTotal"]:
        """Calls, total time and self time per span name (zeros for unseen names)."""
        if not len(self):
            return defaultdict(SpanTotal)
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        duration = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(
            self._start, dtype=np.float64
        )
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        kinds = len(self.names)
        calls = np.bincount(name, minlength=kinds)
        total = np.bincount(name, weights=duration, minlength=kinds)
        own = np.bincount(name, weights=duration - covered, minlength=kinds)
        return defaultdict(
            SpanTotal,
            {
                label: SpanTotal(int(calls[i]), float(total[i]), float(own[i]))
                for i, label in enumerate(self.names)
            },
        )

    def write_jsonl(self, path: str) -> int:
        """Write every span as one JSON object per line; returns the count."""
        with open(path, "w") as handle:
            for index in range(len(self)):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": self.names[self._name[index]],
                            "start_s": self._start[index],
                            "end_s": self._end[index],
                            "parent": self._parent[index],
                            "op": self._op[index],
                        }
                    )
                    + "\n"
                )
        return len(self)


class SpanTotal:
    """Aggregate of all spans sharing one name."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self, calls: int = 0, total_s: float = 0.0, self_s: float = 0.0):
        self.calls = calls
        self.total_s = total_s
        self.self_s = self_s


class _Span:
    __slots__ = ("_recorder", "_name_id", "_index")

    def __init__(self, recorder: Recorder, name_id: int):
        self._recorder = recorder
        self._name_id = name_id

    def __enter__(self) -> "_Span":
        self._index = self._recorder._open(self._name_id)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._recorder._close(self._index)


def layer_totals(totals: dict[str, SpanTotal], prefix: str) -> SpanTotal:
    """Sum of every span total whose name starts with ``prefix``."""
    merged = SpanTotal()
    for name, total in totals.items():
        if name.startswith(prefix):
            merged.calls += total.calls
            merged.total_s += total.total_s
            merged.self_s += total.self_s
    return merged
