"""Request-lifecycle tracing: where did request X spend its time?

A :class:`Span` is one request's full story through the serving stack —
enqueue, batch admission, device execution, wire reply — with batch and
device attribution at every step.  The :class:`Tracer` assembles spans
from *observer hooks* the serving components call as a request moves:

* :meth:`Tracer.on_enqueue` — :class:`~repro.serve.queue.RequestQueue`
  notifies on every ``push`` (the span opens at the request's arrival);
* :meth:`Tracer.on_batch` — the
  :class:`~repro.serve.batcher.AdaptiveBatcher` notifies when a flush
  admits the request into a batch (admission time, batch id, flush
  reason);
* :meth:`Tracer.on_dispatch` — the
  :class:`~repro.serve.cluster.StrixCluster` notifies with the layout's
  :class:`~repro.sched.layouts.Dispatch` (execution window, device set,
  per-stage detail under the pipeline layout);
* :meth:`Tracer.on_reply` — the :class:`~repro.net.server.NetServer`
  notifies when the ``RESULT`` frame goes out.

The tracer owns **no clock**: every timestamp is read off the request,
batch or dispatch object that carries it, so a replayed trace yields
simulated-time spans (bit-for-bit reproducible) while the live asyncio
path yields wall-clock spans — with the same code.  Tracing is pure
observation; enabling it never changes batching, placement or the
resulting :class:`~repro.serve.server.ServeReport` (the test suite
enforces byte-identity with tracing on versus off).

Install one via :meth:`repro.serve.Server.enable_tracing`; export spans
with :mod:`repro.obs.export` (JSONL, Chrome ``trace_event``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.sched.layouts import Dispatch
    from repro.serve.batcher import Batch
    from repro.serve.request import Request


@dataclass(frozen=True)
class StageSpan:
    """One pipeline stage's slice of a request's execution window."""

    stage: int
    device: int
    start_s: float
    end_s: float
    pbs: int

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "stage": self.stage,
            "device": self.device,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "pbs": self.pbs,
        }


@dataclass(frozen=True)
class Span:
    """One request's lifecycle through queue → batcher → device → reply.

    Timestamps share one clock — the serving clock of the run that
    produced them (simulated seconds in replay, wall seconds since the
    server epoch live).  Fields after ``enqueue_s`` are ``None`` until
    the corresponding lifecycle step has happened; a drained run leaves
    every span with at least enqueue/admit/execute/complete filled.
    """

    request_id: int
    tenant: str
    kind: str
    items: int
    pbs: int
    #: Arrival on the serving clock (queue push).
    enqueue_s: float
    #: Batch admission time (the flush that took the request).
    admit_s: float | None = None
    batch_id: int | None = None
    flush_reason: str | None = None
    #: Device execution window (the dispatch start/end of the batch).
    execute_s: float | None = None
    complete_s: float | None = None
    #: When the RESULT frame left the wire (``None`` off the net path).
    reply_s: float | None = None
    #: Completing device, and every device the batch touched.
    device: int | None = None
    devices: tuple[int, ...] = ()
    #: Per-stage execution detail under the pipeline layout.
    stages: tuple[StageSpan, ...] = ()
    #: Fault-injection outcome: the batch was replayed after a device
    #: death (``retried``), or dropped without completing (``lost``).
    retried: bool = False
    lost: bool = False

    @property
    def queue_s(self) -> float | None:
        """Seconds between enqueue and batch admission."""
        if self.admit_s is None:
            return None
        return self.admit_s - self.enqueue_s

    @property
    def service_s(self) -> float | None:
        """Seconds the batch occupied its device(s)."""
        if self.execute_s is None or self.complete_s is None:
            return None
        return self.complete_s - self.execute_s

    @property
    def latency_s(self) -> float | None:
        """End-to-end enqueue-to-completion seconds."""
        if self.complete_s is None:
            return None
        return self.complete_s - self.enqueue_s

    def to_dict(self) -> dict:
        """JSON-friendly representation (what the JSONL exporter writes)."""
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "kind": self.kind,
            "items": self.items,
            "pbs": self.pbs,
            "enqueue_s": self.enqueue_s,
            "admit_s": self.admit_s,
            "batch_id": self.batch_id,
            "flush_reason": self.flush_reason,
            "execute_s": self.execute_s,
            "complete_s": self.complete_s,
            "reply_s": self.reply_s,
            "device": self.device,
            "devices": list(self.devices),
            "stages": [stage.to_dict() for stage in self.stages],
            "retried": self.retried,
            "lost": self.lost,
        }


class Tracer:
    """Assembles one :class:`Span` per request from the lifecycle hooks.

    Spans are keyed by request id and each hook *overwrites* its own
    fields, so replayed paths that push the same request through a queue
    twice (``simulate`` re-queues sync submissions) stay idempotent.
    """

    def __init__(self) -> None:
        self._spans: dict[int, Span] = {}

    def __len__(self) -> int:
        return len(self._spans)

    # -- lifecycle hooks ----------------------------------------------------------

    def _base(self, request: "Request") -> Span:
        existing = self._spans.get(request.request_id)
        if existing is not None:
            return existing
        return Span(
            request_id=request.request_id,
            tenant=request.tenant,
            kind=request.kind.value,
            items=request.items,
            pbs=request.total_pbs,
            enqueue_s=request.arrival_s,
        )

    def on_enqueue(self, request: "Request") -> None:
        """The queue accepted ``request`` (opens its span)."""
        self._spans[request.request_id] = self._base(request)

    def on_batch(self, batch: "Batch") -> None:
        """A flush admitted every request of ``batch``."""
        for request in batch.requests:
            self._spans[request.request_id] = replace(
                self._base(request),
                admit_s=batch.created_s,
                batch_id=batch.batch_id,
                flush_reason=batch.flush_reason,
            )

    def on_dispatch(self, batch: "Batch", dispatch: "Dispatch") -> None:
        """The cluster executed ``batch`` per the layout's ``dispatch``."""
        stages = tuple(
            StageSpan(
                stage=index,
                device=stage.device,
                start_s=stage.start_s,
                end_s=stage.end_s,
                pbs=stage.pbs,
            )
            for index, stage in enumerate(dispatch.stages)
        )
        for request in batch.requests:
            self._spans[request.request_id] = replace(
                self._base(request),
                execute_s=dispatch.start_s,
                complete_s=dispatch.end_s,
                device=dispatch.device,
                devices=tuple(dispatch.devices),
                stages=stages,
                retried=dispatch.retried,
                lost=dispatch.lost,
            )

    def on_reply(self, request_id: int, t_s: float) -> None:
        """The wire sent ``request_id``'s RESULT frame at ``t_s``."""
        span = self._spans.get(request_id)
        if span is not None:
            self._spans[request_id] = replace(span, reply_s=t_s)

    # -- reading ------------------------------------------------------------------

    def spans(self) -> list[Span]:
        """Every recorded span, ordered by (enqueue time, request id)."""
        return sorted(
            self._spans.values(), key=lambda span: (span.enqueue_s, span.request_id)
        )

    def clear(self) -> None:
        """Drop every recorded span (e.g. between repeated simulations)."""
        self._spans.clear()
