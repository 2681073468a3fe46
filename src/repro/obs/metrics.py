"""A unified metrics registry: counters, gauges, histograms, derived views.

Before this module every subsystem kept its own counter dict —
:class:`~repro.arch.key_cache.KeyCacheStats` for key residency,
:class:`~repro.sched.memo.ScheduleCache` for schedule memoization,
:class:`~repro.net.server.WireStats` for the transport — and answering "what is this server doing right now"
meant knowing every one of them.  :class:`MetricsRegistry` is the single
place they all surface:

* **primitive instruments** — :class:`Counter` (monotonic),
  :class:`Gauge` (set to the current level) and :class:`Histogram`
  (bucketed observations with sum and count) created through the
  registry's get-or-create accessors;
* **views** — the existing ad-hoc counter dicts *re-registered* as derived
  read-throughs: a view is a prefix plus a zero-argument callable returning
  ``{key: number}``, sampled at collection time, so the historical counters
  keep their one source of truth (``ServeReport.to_dict()`` stays
  byte-identical) while appearing in the unified namespace;
* **exposition** — :meth:`MetricsRegistry.collect` flattens everything into
  one sorted ``{name: value}`` snapshot (what the net protocol's ``STATS``
  frame serializes) and :meth:`MetricsRegistry.render_prometheus` renders
  the Prometheus text format for scrape-style consumers.

Lookups follow the repository's registry contract: unknown names raise
:class:`~repro.errors.UnknownMetricError`, the shared did-you-mean shape.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Iterable, Mapping

from repro.errors import UnknownMetricError

#: Default :class:`Histogram` bucket bounds (seconds), spanning the
#: sub-millisecond-to-seconds range serving latencies live in.
DEFAULT_LATENCY_BUCKETS_S = (
    1e-4,
    2.5e-4,
    5e-4,
    1e-3,
    2.5e-3,
    5e-3,
    1e-2,
    2.5e-2,
    5e-2,
    1e-1,
    2.5e-1,
    1.0,
)


def _format_bound(bound: float) -> str:
    """Bucket-bound label: ``+Inf`` for the overflow bucket, ``%g`` otherwise."""
    if math.isinf(bound):
        return "+Inf"
    return f"{bound:g}"


def _format_value(value: float) -> str:
    """Exposition-format a sample (integers without a trailing ``.0``)."""
    if isinstance(value, bool):  # pragma: no cover - defensive; bools are ints
        return str(int(value))
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


class Metric:
    """Base of every registered instrument: a name, a kind and a help line."""

    #: Exposition kind (``counter`` / ``gauge`` / ``histogram``).
    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        if not name or not all(ch.isalnum() or ch == "_" for ch in name):
            raise ValueError(
                f"metric name {name!r} must be non-empty [a-zA-Z0-9_] "
                "(prometheus-compatible)"
            )
        self.name = name
        self.help = help

    def samples(self) -> dict[str, float]:
        """Flattened ``{sample_name: value}`` this instrument contributes."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing count (requests, batches, bytes)."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._value = 0.0

    @property
    def value(self) -> float:
        """The current count."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters never go down)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc({amount}))")
        self._value += amount

    def samples(self) -> dict[str, float]:
        return {self.name: self._value}


class Gauge(Metric):
    """An instantaneous level (queue depth, active devices)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._value = 0.0

    @property
    def value(self) -> float:
        """The current level."""
        return self._value

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        self._value += amount

    def samples(self) -> dict[str, float]:
        return {self.name: self._value}


class Histogram(Metric):
    """Bucketed observations with a running sum and count.

    Buckets are *cumulative* in exposition (Prometheus semantics): the
    sample for bound ``b`` counts every observation ``<= b``, and the
    implicit ``+Inf`` bucket equals the total count.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_S,
    ):
        super().__init__(name, help)
        bounds = sorted(float(bound) for bound in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(math.isinf(bound) for bound in bounds):
            raise ValueError("the +Inf bucket is implicit; pass finite bounds only")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram bucket bounds must be strictly increasing")
        self.bounds = tuple(bounds)
        self._counts = [0] * (len(self.bounds) + 1)  # last slot = overflow
        self._sum = 0.0
        self._count = 0

    @property
    def count(self) -> int:
        """Total observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of every observed value."""
        return self._sum

    def observe(self, *values: float) -> None:
        """Record one observation — or one batch's, in order, in one call."""
        counts, bounds, total = self._counts, self.bounds, self._sum
        for value in values:
            counts[bisect.bisect_left(bounds, value)] += 1
            total += value
        self._sum = total
        self._count += len(values)

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(bound, cumulative_count)`` per bucket, ``+Inf`` last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self._counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, self._count))
        return out

    def samples(self) -> dict[str, float]:
        flat: dict[str, float] = {}
        for bound, cumulative in self.cumulative_buckets():
            flat[f"{self.name}_bucket_le_{_format_bound(bound)}"] = cumulative
        flat[f"{self.name}_sum"] = self._sum
        flat[f"{self.name}_count"] = self._count
        return flat


class MetricsRegistry:
    """One namespace over primitive instruments and derived views.

    Instruments are created through the get-or-create accessors
    (:meth:`counter` / :meth:`gauge` / :meth:`histogram`); asking for an
    existing name with a different kind is an error.  Views re-register
    external counter dicts without copying them: the callable is sampled at
    every :meth:`collect`, so the owning subsystem remains the single
    source of truth.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._views: dict[str, Callable[[], Mapping[str, float]]] = {}

    # -- creation ----------------------------------------------------------------

    def _get_or_create(self, name: str, kind: type, factory: Callable[[], Metric]) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{existing.kind}, not a {kind.kind}"
                )
            return existing
        if name in self._views:
            raise ValueError(f"{name!r} is already registered as a view prefix")
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a :class:`Counter`."""
        metric = self._get_or_create(name, Counter, lambda: Counter(name, help))
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a :class:`Gauge`."""
        metric = self._get_or_create(name, Gauge, lambda: Gauge(name, help))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> Histogram:
        """Get or create a :class:`Histogram`."""
        metric = self._get_or_create(name, Histogram, lambda: Histogram(name, help, buckets))
        assert isinstance(metric, Histogram)
        return metric

    def register_view(
        self,
        prefix: str,
        sample: Callable[[], Mapping[str, float]],
        help: str = "",
    ) -> None:
        """Register (or replace) a derived view under ``prefix``.

        ``sample`` is called at collection time and must return a flat
        ``{key: number}`` mapping; every key appears as ``{prefix}_{key}``.
        Re-registering a prefix replaces its callable — the natural
        semantics for components (a net front-end, a rebuilt cluster) that
        re-bind on start.
        """
        if prefix in self._metrics:
            raise ValueError(f"{prefix!r} is already registered as a {self._metrics[prefix].kind}")
        Metric(prefix, help)  # reuse the name validation
        self._views[prefix] = sample

    # -- lookup ------------------------------------------------------------------

    def names(self) -> list[str]:
        """Registered instrument names and view prefixes, sorted."""
        return sorted([*self._metrics, *self._views])

    def get(self, name: str) -> Metric:
        """Look up an instrument by name.

        Raises :class:`~repro.errors.UnknownMetricError` — the shared
        did-you-mean shape — for unknown names (view prefixes are listed in
        the message but are not instruments and cannot be returned).
        """
        try:
            return self._metrics[name]
        except KeyError:
            raise UnknownMetricError(name, self.names()) from None

    def __getitem__(self, name: str) -> Metric:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics or name in self._views

    # -- collection --------------------------------------------------------------

    def collect(self) -> dict[str, float]:
        """One flat, name-sorted ``{sample: value}`` snapshot.

        Histograms flatten to their cumulative buckets plus ``_sum`` and
        ``_count``; views are sampled live and expand to
        ``{prefix}_{key}``.  This is exactly what the ``STATS`` wire frame
        serializes, so a scrape over the socket and an in-process read see
        the same numbers.
        """
        flat: dict[str, float] = {}
        for metric in self._metrics.values():
            flat.update(metric.samples())
        for prefix, sample in self._views.items():
            for key, value in sample().items():
                flat[f"{prefix}_{key}"] = value
        return dict(sorted(flat.items()))

    def render_prometheus(self, namespace: str = "repro") -> str:
        """Prometheus text exposition of every instrument and view.

        ``namespace`` prefixes every family name (``repro_`` by default);
        views render as untyped gauges.
        """

        def full(name: str) -> str:
            return f"{namespace}_{name}" if namespace else name

        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {full(name)} {metric.help}")
            lines.append(f"# TYPE {full(name)} {metric.kind}")
            if isinstance(metric, Histogram):
                for bound, cumulative in metric.cumulative_buckets():
                    lines.append(
                        f'{full(name)}_bucket{{le="{_format_bound(bound)}"}} {cumulative}'
                    )
                lines.append(f"{full(name)}_sum {_format_value(metric.sum)}")
                lines.append(f"{full(name)}_count {metric.count}")
            else:
                lines.append(f"{full(name)} {_format_value(metric.value)}")
        for prefix in sorted(self._views):
            lines.append(f"# TYPE {full(prefix)} gauge")
            for key, value in sorted(self._views[prefix]().items()):
                lines.append(f"{full(prefix)}_{key} {_format_value(value)}")
        return "\n".join(lines) + "\n"
