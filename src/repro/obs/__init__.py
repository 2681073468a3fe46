"""repro.obs — observability for the serving stack.

Three pieces, all pure observation (enabling them never changes serving
behaviour — the test suite enforces byte-identical reports with tracing
on versus off):

* :mod:`repro.obs.trace` — :class:`Span`/:class:`Tracer`: one span per
  request with enqueue/admit/execute/complete/reply timestamps plus batch
  and device attribution, assembled from lifecycle hooks in the queue,
  batcher, cluster and net front-end.  Install with
  :meth:`repro.serve.Server.enable_tracing`.
* :mod:`repro.obs.metrics` — :class:`Counter`/:class:`Gauge`/
  :class:`Histogram` primitives behind a :class:`MetricsRegistry` that
  also *re-registers* the stack's historical counter dicts (key
  residency, schedule memo, wire) as live views;
  :meth:`MetricsRegistry.collect` is one flat snapshot,
  :meth:`MetricsRegistry.render_prometheus` the text exposition.
* :mod:`repro.obs.export` — JSONL span dumps and Chrome ``trace_event``
  timelines (open in ``chrome://tracing`` / Perfetto).

The live counterpart is :meth:`repro.serve.Server.watch` (periodic
per-tenant p99/backlog/utilization snapshots) and the net protocol's
``STATS`` frame (scrape a running :class:`repro.net.NetServer` over the
wire).  See ``docs/observability.md``.
"""

from repro.obs.export import (
    chrome_trace,
    spans_to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
)
from repro.obs.trace import Span, StageSpan, Tracer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "Span",
    "StageSpan",
    "Tracer",
    "chrome_trace",
    "spans_to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]
