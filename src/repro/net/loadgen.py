"""Closed-loop load generation over real loopback sockets.

Two drivers, mirroring the two :class:`~repro.net.server.NetServer` modes:

* :func:`replay_trace` — deterministic: one connection streams a recorded
  :mod:`repro.apps.traffic` trace in arrival order, ``DRAIN`` flushes the
  tail, and the resulting :class:`~repro.serve.server.ServeReport` is
  bit-for-bit what the in-process :meth:`~repro.serve.Server.simulate`
  produces for the same trace — plus wire counters in ``report.wire``.
* :func:`closed_loop` — live: N concurrent connections each submit their
  slice of the trace one request at a time (a classic closed loop), the
  server batches on the wall clock, and the report carries measured
  round-trip percentiles (``rtt_p50_ms`` / ``rtt_p99_ms``), wire
  throughput and byte counts.

Both have async (``*_async``) and blocking entry points; the blocking ones
spin up their own event loop and are what :mod:`repro.apps.netload` and the
serving benchmark call.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace
from typing import Any, Sequence

from repro.flow.retry import RequestTimeoutError, ServerBusyError
from repro.net.client import AsyncNetClient, NetError
from repro.net.protocol import ErrorCode
from repro.net.server import NetServer
from repro.serve.metrics import percentile
from repro.serve.request import Request, RequestOutcome
from repro.serve.server import ServeReport, Server


def _rtt_summary(rtts_s: list[float]) -> dict[str, Any]:
    """Round-trip percentiles (milliseconds) from raw client samples."""
    if not rtts_s:
        return {}
    return {
        "rtt_samples": len(rtts_s),
        "rtt_p50_ms": percentile(rtts_s, 50.0) * 1e3,
        "rtt_p99_ms": percentile(rtts_s, 99.0) * 1e3,
        "rtt_mean_ms": sum(rtts_s) / len(rtts_s) * 1e3,
        "rtt_max_ms": max(rtts_s) * 1e3,
    }


def _merge_wire(report: ServeReport, extra: dict[str, Any]) -> ServeReport:
    """Fold extra wire measurements into a report's ``wire`` block."""
    return replace(report, wire={**report.wire, **extra})


async def replay_trace_async(
    trace: Sequence[Request],
    server: Server | None = None,
    label: str = "net-replay",
    host: str = "127.0.0.1",
    **server_options: Any,
) -> ServeReport:
    """Replay a recorded trace through a loopback socket, deterministically.

    One connection, requests streamed in arrival order with their trace
    timestamps, one final ``DRAIN``.  The report's ``outcomes`` are the
    RESULTs the client received, in reply order: bit-for-bit the in-process
    :meth:`~repro.serve.Server.simulate` result.
    """
    ordered = sorted(trace, key=lambda request: request.arrival_s)
    received: list[RequestOutcome] = []

    def receive(future: asyncio.Future) -> None:
        if not future.cancelled() and future.exception() is None:
            received.append(future.result())

    async with NetServer(
        server=server, mode="replay", host=host, label=label, **server_options
    ) as net:
        bind_host, port = net.address
        client = await AsyncNetClient.connect(bind_host, port)
        try:
            futures = [client.submit_nowait(request) for request in ordered]
            for future in futures:  # fair QoS replies out of submission order
                future.add_done_callback(receive)
            await client.drain()
            # Under an admission policy some futures resolve to typed
            # BUSY/deadline errors instead of outcomes — still one answer
            # per submitted request, never a hang.
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
        finally:
            await client.close()
        dropped = [outcome for outcome in outcomes if isinstance(outcome, BaseException)]
        for failure in dropped:
            if not isinstance(failure, (ServerBusyError, NetError)):
                raise failure
        extra = {
            "client_frames_sent": client.frames_sent,
            "client_bytes_sent": client.bytes_sent,
            "client_bytes_received": client.bytes_received,
        }
        if dropped:
            extra["client_dropped"] = len(dropped)
    report = net.last_report
    assert report is not None and len(outcomes) == len(ordered)
    return _merge_wire(replace(report, outcomes=received), extra)


def replay_trace(trace: Sequence[Request], **kwargs: Any) -> ServeReport:
    """Blocking wrapper around :func:`replay_trace_async`."""
    return asyncio.run(replay_trace_async(trace, **kwargs))


async def closed_loop_async(
    trace: Sequence[Request],
    connections: int = 4,
    server: Server | None = None,
    label: str = "net-live",
    host: str = "127.0.0.1",
    deadline_s: float | None = None,
    timeout_s: float | None = None,
    **server_options: Any,
) -> ServeReport:
    """Drive live traffic through N concurrent closed-loop connections.

    The trace supplies the request *mix* (tenants, kinds, sizes); arrival
    times come from the closed loop itself — each connection submits its
    next request the moment the previous outcome returns, which is how real
    clients exercise an online batcher.

    ``deadline_s``/``timeout_s`` apply per request.  A request that fails
    with a typed BUSY, deadline or timeout error is counted as abandoned
    and the loop moves on, exactly how a closed-loop client that does not
    retry behaves under overload.
    """
    if connections < 1:
        raise ValueError("a closed loop needs at least one connection")
    async with NetServer(
        server=server, mode="live", host=host, label=label, **server_options
    ) as net:
        bind_host, port = net.address
        clients = [
            await AsyncNetClient.connect(bind_host, port) for _ in range(connections)
        ]
        abandoned = 0
        try:
            for client in clients:
                await client.ping()

            async def drive(client: AsyncNetClient, slice_: list[Request]) -> int:
                nonlocal abandoned
                done = 0
                for request in slice_:
                    try:
                        await client.submit(
                            request.tenant,
                            request.kind.value,
                            request.items,
                            model=request.model,
                            deadline_s=deadline_s,
                            timeout_s=timeout_s,
                        )
                    except (ServerBusyError, RequestTimeoutError):
                        abandoned += 1
                        continue
                    except NetError as error:
                        if error.reply.code == ErrorCode.DEADLINE_EXCEEDED:
                            abandoned += 1
                            continue
                        raise
                    done += 1
                return done

            slices = [list(trace[index::connections]) for index in range(connections)]
            started = time.perf_counter()
            counts = await asyncio.gather(
                *(drive(client, slice_) for client, slice_ in zip(clients, slices))
            )
            wall_s = time.perf_counter() - started
            rtts = [sample for client in clients for sample in client.rtts_s]
            pings = [sample for client in clients for sample in client.ping_rtts_s]
            extra = {
                **_rtt_summary(rtts),
                "ping_p50_ms": percentile(pings, 50.0) * 1e3 if pings else 0.0,
                "wall_s": wall_s,
                "wire_requests_per_s": sum(counts) / wall_s if wall_s > 0 else 0.0,
                "client_bytes_sent": sum(client.bytes_sent for client in clients),
                "client_bytes_received": sum(client.bytes_received for client in clients),
            }
            # Overload counters join the wire block only once they fire, so
            # unsaturated runs keep their historical shape.
            overload = {
                "client_busy_replies": sum(client.busy_replies for client in clients),
                "client_credit_stalls": sum(client.credit_stalls for client in clients),
                "client_abandoned": abandoned,
            }
            extra.update((key, count) for key, count in overload.items() if count)
        finally:
            for client in clients:
                await client.close()
    report = net.last_report
    assert report is not None
    return _merge_wire(report, extra)


def closed_loop(trace: Sequence[Request], **kwargs: Any) -> ServeReport:
    """Blocking wrapper around :func:`closed_loop_async`."""
    return asyncio.run(closed_loop_async(trace, **kwargs))
