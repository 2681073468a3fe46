"""``wire-open-loop``: codec, framing, sockets and the async serving path.

One asyncio loop, a loopback ``NetServer`` and two ``AsyncNetClient``
connections, all in this process (the sandbox has two cores).  Three phases:

(a) a recorded trace replayed over TCP must produce the outcomes of the
    in-process ``simulate()``, bit for bit;
(b) an open loop at a fixed 4,000 req/s — independent tenants do not wait for
    each other — timing every request from the moment it was *due*, and
    recording how late the generator itself ran;
(c) pipelined saturation: 20,000 requests written back to back, timed until
    the last RESULT.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.apps.traffic import steady_trace
from repro.net import AsyncNetClient, MessageType, NetServer, codec, protocol
from repro.net.loadgen import replay_trace_async
from repro.serve import Server
from repro.serve.request import Request

from observatory.calib import measure_segments
from observatory.common import (
    Options,
    Result,
    attribution_metrics,
    finish,
    throughput_metrics,
    timed_set_up,
)
from observatory.spans import Recorder, layer_totals

CONNECTIONS = 2
OPEN_LOOP_RATE = 4000.0
OPEN_LOOP_SEGMENT_S = 2.0
SATURATION_REQUESTS = 20_000
REPLAY_RATE = 3000.0
REPLAY_DURATION_S = 5.0
#: No reply after this long counts as a hung request (a failed operation).
GUARD_S = 30.0
PROBE_ITERATIONS = 20_000


def _serve_options() -> dict:
    return {"devices": 4, "params": "I"}


@dataclass
class Wire:
    """The live server, its clients and the seeded request mix."""

    net: NetServer
    clients: list[AsyncNetClient]
    replay: list[Request]
    mix: list[Request]


async def _set_up(options: Options) -> Wire:
    """Trace generation, listener, connections and one ping each."""
    replay = steady_trace(REPLAY_RATE, REPLAY_DURATION_S * options.scale, seed=options.seed)
    wanted = options.scaled(SATURATION_REQUESTS, floor=200)
    mix = steady_trace(OPEN_LOOP_RATE, wanted / OPEN_LOOP_RATE * 1.1 + 0.05, seed=options.seed + 7)
    net = NetServer(mode="live", **_serve_options())
    host, port = await net.start()
    clients = [await AsyncNetClient.connect(host, port) for _ in range(CONNECTIONS)]
    for client in clients:
        await client.ping()
    return Wire(net, clients, replay, mix[:wanted])


async def _tear_down(wire: Wire) -> None:
    for client in wire.clients:
        await client.close()
    await wire.net.aclose()


@dataclass
class Answers:
    """What became of the requests of one phase."""

    submitted: int = 0
    answered: int = 0
    typed_failures: int = 0
    hung: int = 0
    latencies: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)

    def merge(self, other: "Answers") -> None:
        self.submitted += other.submitted
        self.answered += other.answered
        self.typed_failures += other.typed_failures
        self.hung += other.hung
        self.latencies.extend(other.latencies)
        self.lateness.extend(other.lateness)


async def _collect(futures: list[asyncio.Future], answers: Answers) -> None:
    """Wait (bounded) for every future and classify how each one ended."""
    done, pending = await asyncio.wait(futures, timeout=GUARD_S)
    answers.submitted += len(futures)
    answers.hung += len(pending)
    for future in pending:
        future.cancel()
    for future in done:
        if future.cancelled() or future.exception() is not None:
            answers.typed_failures += 1
        else:
            answers.answered += 1


def _stamp(latencies: list[float], due_at: float, future: asyncio.Future) -> None:
    if not future.cancelled() and future.exception() is None:
        latencies.append(time.perf_counter() - due_at)


async def _open_loop(wire: Wire, requests: list[Request], rate: float) -> Answers:
    """Send ``requests`` on a fixed schedule, whatever the server is doing."""
    answers = Answers()
    futures: list[asyncio.Future] = []
    started = time.perf_counter() + 0.002
    sent = 0
    while sent < len(requests):
        now = time.perf_counter()
        due = min(len(requests), int((now - started) * rate) + 1) if now >= started else 0
        while sent < due:
            due_at = started + sent / rate
            answers.lateness.append(time.perf_counter() - due_at)
            future = wire.clients[sent % CONNECTIONS].submit_nowait(requests[sent])
            future.add_done_callback(partial(_stamp, answers.latencies, due_at))
            futures.append(future)
            sent += 1
        await asyncio.sleep(max(0.0, started + sent / rate - time.perf_counter()))
    await _collect(futures, answers)
    return answers


async def _saturate(wire: Wire, requests: list[Request]) -> Answers:
    """Write every request back to back, then wait for the last RESULT."""
    answers = Answers()
    futures = [
        wire.clients[index % CONNECTIONS].submit_nowait(request)
        for index, request in enumerate(requests)
    ]
    await _collect(futures, answers)
    return answers


async def _replay(wire: Wire, options: Options, result: Result) -> None:
    """Phase (a): the trace over TCP against the trace in process."""
    start = time.perf_counter()
    over_tcp = await replay_trace_async(wire.replay, **_serve_options())
    tcp_s = time.perf_counter() - start
    start = time.perf_counter()
    in_process = Server(**_serve_options()).simulate(list(wire.replay), label="net-replay")
    local_s = time.perf_counter() - start
    same = over_tcp.outcomes == in_process.outcomes
    result.count(
        len(wire.replay),
        0 if same else len(wire.replay),
        "replayed requests (TCP outcomes differ from in-process simulate())",
    )
    served = over_tcp.metrics
    busy_s = sum(served.device_utilization.values()) * served.horizon_s
    metrics = result.metrics
    metrics["modeled_pbs_per_device_s"] = served.total_pbs / busy_s
    metrics["net.replay_req_per_s"] = len(wire.replay) / tcp_s
    metrics["net.replay_transport_overhead_x"] = tcp_s / local_s
    frames = over_tcp.wire["frames_received"] + over_tcp.wire["frames_sent"]
    wire_bytes = over_tcp.wire["bytes_received"] + over_tcp.wire["bytes_sent"]
    metrics["net.wire.frames_per_req"] = frames / len(wire.replay)
    metrics["net.wire.bytes_per_req"] = wire_bytes / len(wire.replay)
    if options.traced:
        _codec_probes(wire.replay, in_process.outcomes, metrics)


def _per_call_ns(function, items: list) -> float:
    """Mean nanoseconds of ``function(item)`` over ``PROBE_ITERATIONS`` calls."""
    count = 0
    start = time.perf_counter()
    while count < PROBE_ITERATIONS:
        for item in items:
            function(item)
        count += len(items)
    return (time.perf_counter() - start) / count * 1e9


def _codec_probes(requests: list[Request], outcomes: list, metrics: dict[str, float]) -> None:
    """Encode/decode cost per message over the workload's own requests and outcomes."""
    requests, outcomes = requests[:2000], outcomes[:2000]
    submits = [codec.submit_from_request(request) for request in requests]
    results = [codec.result_from_outcome(outcome) for outcome in outcomes]
    frames = [protocol.encode_frame(MessageType.SUBMIT, payload) for payload in submits]
    decoder = protocol.FrameDecoder()
    metrics["net.codec.encode_submit_ns"] = _per_call_ns(codec.submit_from_request, requests)
    metrics["net.codec.decode_submit_ns"] = _per_call_ns(codec.decode_submit, submits)
    metrics["net.codec.encode_result_ns"] = _per_call_ns(codec.result_from_outcome, outcomes)
    metrics["net.codec.decode_result_ns"] = _per_call_ns(codec.decode_result, results)
    metrics["net.protocol.encode_frame_ns"] = _per_call_ns(
        partial(protocol.encode_frame, MessageType.SUBMIT), submits
    )
    metrics["net.protocol.decode_frame_ns"] = _per_call_ns(decoder.feed, frames)


_NET_WRAPS = (
    (codec, "submit_from_request", "net.codec.submit_from_request"),
    (codec, "decode_submit", "net.codec.decode_submit"),
    (codec, "encode_result", "net.codec.encode_result"),
    (codec, "decode_result", "net.codec.decode_result"),
    (protocol, "encode_frame", "net.protocol.encode_frame"),
    (protocol.FrameDecoder, "feed", "net.protocol.decode_frames"),
)


def run(_name: str, options: Options) -> Result:
    """Run the wire workload on one event loop owned by this function."""
    result = Result()
    loop = asyncio.new_event_loop()
    try:
        _run(loop, options, result)
    finally:
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()
    return result


def _run(loop: asyncio.AbstractEventLoop, options: Options, result: Result) -> None:
    run_async = loop.run_until_complete
    metrics = result.metrics

    calibration = options.calibration("py")
    wire, metrics["setup_s"] = timed_set_up(
        options,
        calibration,
        lambda: run_async(_set_up(options)),
        tear_down=lambda previous: run_async(_tear_down(previous)),
    )

    try:
        run_async(_replay(wire, options, result))

        # Warm-up doubles as the first saturation burst: the async serving
        # path, the codecs and the socket buffers have all been exercised.
        totals = run_async(_saturate(wire, wire.mix[: max(100, len(wire.mix) // 10)]))

        per_segment = options.scaled(int(OPEN_LOOP_RATE * OPEN_LOOP_SEGMENT_S), floor=100)
        open_requests = wire.mix[:per_segment]
        open_segments = max(3, round(options.seconds / 2 / OPEN_LOOP_SEGMENT_S))
        if options.traced:
            open_segments = 1
        open_loop = Answers()
        for _ in range(open_segments):
            open_loop.merge(run_async(_open_loop(wire, open_requests, OPEN_LOOP_RATE)))
        totals.merge(open_loop)
        metrics["host_op_p50_s"] = statistics.median(open_loop.latencies)
        metrics["net.open_loop_p99_s"] = float(np.percentile(open_loop.latencies, 99))
        metrics["net.loadgen_late_p99_s"] = float(np.percentile(open_loop.lateness, 99))
        result.notes["net.open_loop_samples"] = len(open_loop.latencies)

        def segment(_index: int) -> int:
            answers = run_async(_saturate(wire, wire.mix))
            totals.merge(answers)
            return answers.answered

        segments = measure_segments(
            calibration,
            segment,
            options.measured_seconds / 2,
            min_segments=2 if options.traced else 3,
        )
        throughput_metrics(result, calibration, segments, "harness.raw_wire_sat_req_per_s")

        if options.traced:
            _traced_segment(segment, options, segments[0].wall_s, result)

        metrics["net.client.credit_stalls"] = sum(c.credit_stalls for c in wire.clients)
        metrics["net.server.busy_sent"] = wire.net.stats.busy_sent
    finally:
        run_async(_tear_down(wire))

    live = wire.net.last_report.metrics
    metrics["net.live_batches"] = live.batches
    metrics["net.live_mean_fill"] = live.mean_batch_fill
    result.count(
        totals.submitted,
        totals.typed_failures + totals.hung,
        f"live requests failed ({totals.typed_failures} typed, "
        f"{totals.hung} hung past {GUARD_S:g} s)",
    )
    result.require(
        totals.submitted == totals.answered + totals.typed_failures + totals.hung,
        "live requests are not all accounted for",
    )
    finish(result)


def _traced_segment(
    segment, options: Options, untraced_wall_s: float, result: Result
) -> None:
    """One more saturation segment with the codec and framing calls under spans."""
    recorder = Recorder()
    try:
        for owner, attr, name in _NET_WRAPS:
            recorder.wrap(owner, attr, name)
        with recorder.span("harness.segment"):
            segment(0)
    finally:
        recorder.restore()
    totals = recorder.totals()
    metrics = result.metrics
    metrics["net.codec.busy_s"] = layer_totals(totals, "net.codec.").self_s
    metrics["net.protocol.busy_s"] = layer_totals(totals, "net.protocol.").self_s
    # Sockets, asyncio and the serving core are not wrapped, so most of this
    # segment is deliberately unattributed: the share is reported, not required.
    attribution_metrics(
        result, options, totals["harness.segment"], untraced_wall_s, required=False
    )
    result.recorder = recorder
