"""Tests for repro.net: framing, payload codecs, and the loopback TCP front-end.

Three layers of coverage, mirroring the module's own layering:

* pure framing — :class:`FrameDecoder` over crafted byte streams, every
  defect class (bad magic, oversized length, checksum miss, unsupported
  version, truncation) and the fatal/frame-local split;
* payload codecs — SUBMIT/RESULT round trips (property-tested), malformed
  payload rejection, control messages;
* real sockets — the acceptance criteria of the front-end: a trace replayed
  over loopback TCP is **bit-for-bit** the in-process simulation, corrupt
  frames earn typed ``ERROR`` replies while the server keeps serving, live
  mode serves concurrent connections with measured round trips.
"""

from __future__ import annotations

import asyncio
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.traffic import bursty_trace, steady_trace
from repro.net import codec, protocol
from repro.net.client import AsyncNetClient, NetClient, NetError
from repro.net.loadgen import closed_loop
from repro.net.protocol import (
    HEADER,
    MAGIC,
    PROTOCOL_VERSION,
    ErrorCode,
    Frame,
    FrameDecoder,
    MessageType,
    ProtocolError,
    encode_frame,
)
from repro.net.server import NetServer
from repro.params import PARAM_SET_I, TOY_PARAMETERS
from repro.serve.request import Request
from repro.tfhe.lwe import LweCiphertext
from repro.tfhe.serialization import lwe_to_bytes


# -- pure framing -------------------------------------------------------------------


class TestFraming:
    def test_frame_roundtrip(self):
        data = encode_frame(MessageType.SUBMIT, b"payload")
        decoder = FrameDecoder()
        (frame,) = decoder.feed(data)
        assert isinstance(frame, Frame)
        assert frame.msg_type == MessageType.SUBMIT
        assert frame.payload == b"payload"
        assert frame.version == PROTOCOL_VERSION
        assert decoder.pending_bytes == 0

    @given(
        payloads=st.lists(st.binary(max_size=200), min_size=1, max_size=8),
        chunk=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunked_feed_reassembles_every_frame(self, payloads, chunk):
        stream = b"".join(encode_frame(MessageType.PING, p) for p in payloads)
        decoder = FrameDecoder()
        frames = []
        for start in range(0, len(stream), chunk):
            frames.extend(decoder.feed(stream[start : start + chunk]))
        assert [f.payload for f in frames] == payloads
        assert decoder.at_eof() is None

    def test_bad_magic_is_fatal(self):
        good = encode_frame(MessageType.PING, b"x")
        decoder = FrameDecoder()
        (defect,) = decoder.feed(b"XXXX" + good[4:])
        assert isinstance(defect, ProtocolError)
        assert defect.code == ErrorCode.BAD_MAGIC and defect.fatal
        # A dead decoder refuses everything after desynchronization.
        assert decoder.feed(good) == []
        assert decoder.at_eof() is None

    def test_oversized_declared_length_is_fatal(self):
        header = HEADER.pack(MAGIC, PROTOCOL_VERSION, 1, 0, protocol.MAX_PAYLOAD_BYTES + 1, 0)
        (defect,) = FrameDecoder().feed(header)
        assert defect.code == ErrorCode.FRAME_TOO_LARGE and defect.fatal

    def test_checksum_miss_is_frame_local(self):
        bad = bytearray(encode_frame(MessageType.PING, b"abcdef"))
        bad[-1] ^= 0xFF
        follow = encode_frame(MessageType.PING, b"ok")
        decoder = FrameDecoder()
        defect, frame = decoder.feed(bytes(bad) + follow)
        assert defect.code == ErrorCode.BAD_CHECKSUM and not defect.fatal
        assert frame.payload == b"ok"

    def test_unsupported_version_is_frame_local(self):
        old = encode_frame(MessageType.PING, b"x", version=9)
        follow = encode_frame(MessageType.PING, b"ok")
        defect, frame = FrameDecoder().feed(old + follow)
        assert defect.code == ErrorCode.UNSUPPORTED_VERSION and not defect.fatal
        assert frame.payload == b"ok"

    def test_eof_mid_frame_is_truncation(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(MessageType.PING, b"abc")[:10]) == []
        defect = decoder.at_eof()
        assert defect is not None and defect.code == ErrorCode.TRUNCATED

    def test_oversized_payload_refused_at_encode(self):
        with pytest.raises(ValueError, match="frame cap"):
            encode_frame(MessageType.SUBMIT, b"\x00" * (protocol.MAX_PAYLOAD_BYTES + 1))


# -- control payloads ---------------------------------------------------------------


class TestControlPayloads:
    def test_hello_welcome_roundtrip(self):
        assert protocol.decode_hello(protocol.encode_hello((1, 3, 2))) == (1, 2, 3)
        welcome = protocol.decode_welcome(protocol.encode_welcome(1))
        assert welcome.version == 1 and welcome.credit_window is None
        # The credit-window form is 2 bytes longer; the bare form stays 1 byte.
        assert len(protocol.encode_welcome(1)) == 1
        windowed = protocol.decode_welcome(protocol.encode_welcome(1, credit_window=32))
        assert windowed.version == 1 and windowed.credit_window == 32
        with pytest.raises(ValueError):
            protocol.encode_hello(())
        with pytest.raises(ValueError):
            protocol.decode_hello(b"\x03\x01")

    def test_version_negotiation(self):
        assert protocol.negotiate_version((1,), frozenset({1, 2})) == 1
        assert protocol.negotiate_version((1, 2), frozenset({1, 2})) == 2
        assert protocol.negotiate_version((3,), frozenset({1, 2})) is None

    def test_error_roundtrip(self):
        reply = protocol.decode_error(
            protocol.encode_error(ErrorCode.BAD_CHECKSUM, "crc mismatch", request_id=7)
        )
        assert reply.code == ErrorCode.BAD_CHECKSUM
        assert reply.request_id == 7
        assert reply.message == "crc mismatch"
        assert reply.code_name == "BAD_CHECKSUM"
        assert protocol.decode_error(protocol.encode_error(200, "?")).code_name == "code-200"

    def test_ping_pong_roundtrip(self):
        assert protocol.decode_ping(protocol.encode_ping(5, 0.25)) == (5, 0.25)
        pong = protocol.decode_pong(protocol.encode_pong(5, 0.25, 0.5))
        assert (pong.nonce, pong.client_s, pong.server_s) == (5, 0.25, 0.5)
        with pytest.raises(ValueError):
            protocol.decode_pong(b"short")

    @given(text=st.text(max_size=120))
    @settings(max_examples=30, deadline=None)
    def test_string_packing_roundtrip(self, text):
        packed = protocol.pack_str(text)
        value, offset = protocol.unpack_str(packed, 0)
        assert value == text and offset == len(packed)


# -- SUBMIT / RESULT codecs ---------------------------------------------------------


class TestSubmitResultCodec:
    @given(
        request_id=st.integers(min_value=1, max_value=2**50),
        tenant=st.text(min_size=1, max_size=20),
        items=st.integers(min_value=1, max_value=10_000),
        arrival=st.one_of(st.none(), st.floats(0.0, 1e6, allow_nan=False)),
        inference=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_submit_roundtrip_property(self, request_id, tenant, items, arrival, inference):
        kind = "inference" if inference else "bootstrap"
        model = "NN-20" if inference else None
        payload = codec.encode_submit(
            request_id, tenant, kind, items, arrival_s=arrival, model=model
        )
        message = codec.decode_submit(payload)
        assert message.request_id == request_id
        assert message.tenant == tenant
        assert (message.kind, message.items, message.model) == (kind, items, model)
        assert message.arrival_s == arrival  # doubles survive bit-exactly

    def test_submit_rebuilds_trace_request_bit_for_bit(self):
        trace = steady_trace(rate_rps=400.0, duration_s=0.05, seed=3)
        for request in trace:
            payload = codec.submit_from_request(request)
            assert codec.decode_submit(payload).to_request() == request

    def test_submit_with_ciphertexts(self):
        batch = [LweCiphertext.trivial(m, 16, PARAM_SET_I) for m in range(3)]
        payload = codec.encode_submit(1, "t0", "bootstrap", 3, ciphertexts=batch)
        message = codec.decode_submit(payload)
        assert message.ciphertexts == lwe_to_bytes(batch)
        decoded = message.decode_ciphertexts(PARAM_SET_I)
        assert [ct.body for ct in decoded] == [0, 1, 2]
        with pytest.raises(ValueError):
            message.decode_ciphertexts(TOY_PARAMETERS)

    def test_submit_rejects_malformed_payloads(self):
        good = codec.encode_submit(1, "t0", "gate", 2)
        with pytest.raises(ValueError, match="truncated"):
            codec.decode_submit(good[:8])
        with pytest.raises(ValueError, match="trailing"):
            codec.decode_submit(good + b"\x00")
        with pytest.raises(ValueError, match="tenant"):
            codec.decode_submit(codec.encode_submit(1, "", "gate", 2))
        carrying = codec.encode_submit(
            1, "t0", "gate", 2, ciphertexts=[LweCiphertext.trivial(0, 4, PARAM_SET_I)]
        )
        with pytest.raises(ValueError, match="truncated"):
            codec.decode_submit(carrying[:-3])

    def test_result_roundtrip_through_outcome(self):
        request = Request.make(9, "t1", "bootstrap", 4, arrival_s=0.125)
        from repro.serve.request import RequestOutcome

        outcome = RequestOutcome(
            request=request, batch_id=2, device=1, dispatched_s=0.25, completed_s=0.5
        )
        message = codec.decode_result(codec.result_from_outcome(outcome))
        assert message.to_outcome(request) == outcome
        with pytest.raises(ValueError):
            codec.decode_result(b"short")


# -- loopback helpers ---------------------------------------------------------------


async def _recv_events(reader, decoder, count=1, timeout=5.0):
    """Read frames/defects off a raw connection until ``count`` arrived."""
    events = []
    while len(events) < count:
        data = await asyncio.wait_for(reader.read(64 * 1024), timeout)
        if not data:
            defect = decoder.at_eof()
            if defect is not None:
                events.append(defect)
            break
        events.extend(decoder.feed(data))
    return events


def _error_reply(frame):
    assert isinstance(frame, Frame) and frame.msg_type == MessageType.ERROR
    return protocol.decode_error(frame.payload)


class _ThreadedServer:
    """A NetServer on its own thread+loop, for the blocking-client tests."""

    def __init__(self, **options):
        self._options = options
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.address = None
        self.net = None

    def _run(self):
        asyncio.set_event_loop(self._loop)
        self._stop = self._loop.create_future()

        async def main():
            async with NetServer(**self._options) as net:
                self.net = net
                self.address = net.address
                self._ready.set()
                await self._stop

        self._loop.run_until_complete(main())
        self._loop.close()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(5.0), "server did not start"
        return self

    def __exit__(self, *exc_info):
        self._loop.call_soon_threadsafe(lambda: self._stop.done() or self._stop.set_result(None))
        self._thread.join(5.0)


# -- deterministic replay over real sockets -----------------------------------------


class TestLoopbackReplay:
    @pytest.mark.parametrize("death", [False, True], ids=["ok", "death"])
    @pytest.mark.parametrize("deadline", [False, True], ids=["nodl", "dl"])
    @pytest.mark.parametrize("qos", ["fifo", "fair"])
    def test_wire_replay_is_bit_for_bit_with_simulation(
        self, serve_three_ways, qos, deadline, death
    ):
        trace = bursty_trace(1500.0, 0.2, seed=11, tenants=5)
        reference, report = serve_three_ways(
            trace, deadline, death, devices=4, params="I", qos=qos
        )
        assert report.metrics == reference.metrics
        assert report.wire["connections"] == 1
        assert report.wire["frames_received"] == len(trace) + 2  # hello + submits + drain
        # Without admission control nothing is BUSY: every request that did
        # not complete is answered by exactly one typed ERROR.
        unserved = len(trace) - reference.metrics.requests
        assert report.wire["errors_sent"] == unserved
        assert report.wire.get("client_dropped", 0) == unserved

    def test_replay_drain_returns_every_outcome(self):
        trace = steady_trace(rate_rps=600.0, duration_s=0.1, seed=2)

        async def scenario():
            async with NetServer(mode="replay", devices=2, params="I") as net:
                host, port = net.address
                client = await AsyncNetClient.connect(host, port)
                futures = [
                    client.submit_nowait(request)
                    for request in sorted(trace, key=lambda r: r.arrival_s)
                ]
                await client.drain()
                outcomes = await asyncio.gather(*futures)
                await client.close()
                return outcomes

        outcomes = asyncio.run(scenario())
        assert len(outcomes) == len(trace)
        assert {o.request.request_id for o in outcomes} == {
            r.request_id for r in trace
        }

    def test_out_of_order_submit_gets_bad_message_and_replay_keeps_serving(self):
        early, late = (
            Request.make(index, "t0", "bootstrap", items=2, arrival_s=arrival)
            for index, arrival in ((1, 0.010), (2, 0.001))
        )

        async def scenario():
            async with NetServer(mode="replay", devices=1, params="I") as net:
                client = await AsyncNetClient.connect(*net.address)
                first = client.submit_nowait(early)
                with pytest.raises(NetError) as excinfo:
                    await asyncio.wait_for(client.submit_nowait(late), timeout=5.0)
                assert excinfo.value.reply.code == ErrorCode.BAD_MESSAGE
                assert "non-decreasing" in excinfo.value.reply.message
                await client.drain()
                outcome = await first
                await client.close()
            return outcome, net.last_report

        outcome, report = asyncio.run(scenario())
        # The time-travelling request was never served; the rest of the
        # replay is untouched by it (no negative queueing delay).
        assert [o.request.request_id for o in report.outcomes] == [1]
        assert outcome.queue_delay_s >= 0.0 and report.metrics.queue_delay.p50_s >= 0.0

    def test_invalid_submit_leaves_no_owner_entry(self):
        async def scenario():
            async with NetServer(mode="replay", devices=1, params="I") as net:
                reader, writer = await asyncio.open_connection(*net.address)
                payload = codec.encode_submit(
                    7, "t0", "inference", 1, arrival_s=0.001, model="NN-9000"
                )
                writer.write(encode_frame(MessageType.SUBMIT, payload))
                (event,) = await _recv_events(reader, FrameDecoder())
                reply = _error_reply(event)
                assert (reply.code, reply.request_id) == (ErrorCode.BAD_MESSAGE, 7)
                assert net._replay_owners == {}
                writer.close()

        asyncio.run(scenario())


# -- typed error replies, server keeps serving --------------------------------------


class TestLoopbackErrors:
    def _scenario(self, coro):
        return asyncio.run(coro)

    def test_corrupted_checksum_gets_error_and_connection_survives(self):
        async def scenario():
            async with NetServer(mode="live", devices=1, params="I") as net:
                host, port = net.address
                reader, writer = await asyncio.open_connection(host, port)
                decoder = FrameDecoder()
                bad = bytearray(encode_frame(MessageType.PING, protocol.encode_ping(1, 0.0)))
                bad[-1] ^= 0xFF
                writer.write(bytes(bad))
                (event,) = await _recv_events(reader, decoder)
                assert _error_reply(event).code == ErrorCode.BAD_CHECKSUM
                # Same connection still serves: a clean ping gets its pong.
                writer.write(encode_frame(MessageType.PING, protocol.encode_ping(2, 0.0)))
                (event,) = await _recv_events(reader, decoder)
                assert event.msg_type == MessageType.PONG
                writer.close()
                return net.stats.errors_sent

        assert self._scenario(scenario()) == 1

    def test_unsupported_version_gets_error_and_connection_survives(self):
        async def scenario():
            async with NetServer(mode="live", devices=1, params="I") as net:
                host, port = net.address
                reader, writer = await asyncio.open_connection(host, port)
                decoder = FrameDecoder()
                writer.write(
                    encode_frame(MessageType.PING, protocol.encode_ping(1, 0.0), version=9)
                )
                (event,) = await _recv_events(reader, decoder)
                assert _error_reply(event).code == ErrorCode.UNSUPPORTED_VERSION
                writer.write(encode_frame(MessageType.PING, protocol.encode_ping(2, 0.0)))
                (event,) = await _recv_events(reader, decoder)
                assert event.msg_type == MessageType.PONG
                writer.close()

        self._scenario(scenario())

    def test_bad_magic_closes_connection_but_server_keeps_serving(self):
        async def scenario():
            async with NetServer(mode="live", devices=1, params="I") as net:
                host, port = net.address
                reader, writer = await asyncio.open_connection(host, port)
                decoder = FrameDecoder()
                good = encode_frame(MessageType.PING, protocol.encode_ping(1, 0.0))
                writer.write(b"XXXX" + good[4:])
                (event,) = await _recv_events(reader, decoder)
                assert _error_reply(event).code == ErrorCode.BAD_MAGIC
                assert await _recv_events(reader, decoder) == []  # server hung up
                writer.close()
                # ... but the server itself is alive: new connections serve.
                client = await AsyncNetClient.connect(host, port)
                await client.ping()
                await client.close()

        self._scenario(scenario())

    def test_truncated_frame_gets_error_at_eof(self):
        async def scenario():
            async with NetServer(mode="live", devices=1, params="I") as net:
                host, port = net.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(MessageType.PING, protocol.encode_ping(1, 0.0))[:10])
                writer.write_eof()  # half-close: the reply path stays open
                (event,) = await _recv_events(reader, FrameDecoder())
                assert _error_reply(event).code == ErrorCode.TRUNCATED
                writer.close()

        self._scenario(scenario())

    def test_unknown_message_type_gets_typed_error(self):
        async def scenario():
            async with NetServer(mode="live", devices=1, params="I") as net:
                host, port = net.address
                reader, writer = await asyncio.open_connection(host, port)
                decoder = FrameDecoder()
                writer.write(encode_frame(200, b""))
                (event,) = await _recv_events(reader, decoder)
                assert _error_reply(event).code == ErrorCode.UNKNOWN_TYPE
                writer.write(encode_frame(MessageType.PING, protocol.encode_ping(1, 0.0)))
                (event,) = await _recv_events(reader, decoder)
                assert event.msg_type == MessageType.PONG
                writer.close()

        self._scenario(scenario())

    def test_malformed_submit_gets_bad_message_error(self):
        async def scenario():
            async with NetServer(mode="live", devices=1, params="I") as net:
                host, port = net.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(MessageType.SUBMIT, b"\x00\x01"))
                (event,) = await _recv_events(reader, FrameDecoder())
                assert _error_reply(event).code == ErrorCode.BAD_MESSAGE
                writer.close()

        self._scenario(scenario())

    def test_version_negotiation_failure_is_a_typed_error(self):
        async def scenario():
            async with NetServer(mode="live", devices=1, params="I") as net:
                host, port = net.address
                with pytest.raises(NetError) as excinfo:
                    await AsyncNetClient.connect(host, port, versions=(9,))
                assert excinfo.value.reply.code == ErrorCode.UNSUPPORTED_VERSION

        self._scenario(scenario())

    def test_unknown_model_is_rejected_per_request(self):
        # The client library refuses to build such a request locally, so the
        # server-side rejection needs a hand-crafted frame.
        async def scenario():
            async with NetServer(mode="live", devices=1, params="I") as net:
                host, port = net.address
                reader, writer = await asyncio.open_connection(host, port)
                decoder = FrameDecoder()
                payload = codec.encode_submit(7, "t0", "inference", 1, model="NN-9000")
                writer.write(encode_frame(MessageType.SUBMIT, payload))
                (event,) = await _recv_events(reader, decoder)
                reply = _error_reply(event)
                assert reply.code == ErrorCode.SERVER_ERROR
                assert reply.request_id == 7
                # The connection — and the server — keep serving afterwards.
                writer.write(encode_frame(MessageType.PING, protocol.encode_ping(1, 0.0)))
                (event,) = await _recv_events(reader, decoder)
                assert event.msg_type == MessageType.PONG
                writer.close()

        self._scenario(scenario())

    def test_params_mismatched_ciphertexts_are_rejected(self):
        async def scenario():
            async with NetServer(mode="live", devices=1, params="I") as net:
                host, port = net.address
                client = await AsyncNetClient.connect(host, port)
                wrong = lwe_to_bytes([LweCiphertext.trivial(0, 8, TOY_PARAMETERS)])
                with pytest.raises(NetError) as excinfo:
                    await client.submit("t0", "bootstrap", 1, ciphertexts=wrong)
                assert excinfo.value.reply.code == ErrorCode.BAD_MESSAGE
                right = [LweCiphertext.trivial(m, 8, PARAM_SET_I) for m in range(2)]
                outcome = await client.submit("t0", "bootstrap", 2, ciphertexts=right)
                assert outcome.completed_s > 0.0
                await client.close()

        self._scenario(scenario())


# -- live serving -------------------------------------------------------------------


class TestLiveServing:
    def test_sync_client_submits_and_pings(self):
        with _ThreadedServer(mode="live", devices=2, params="I") as served:
            host, port = served.address
            with NetClient(host, port) as client:
                assert client.negotiated_version == PROTOCOL_VERSION
                rtt = client.ping()
                assert rtt > 0.0
                outcome = client.submit("tenant0", "bootstrap", 8)
                assert outcome.request.items == 8
                assert outcome.completed_s >= outcome.dispatched_s
                assert len(client.rtts_s) == 2

    def test_concurrent_connections_multiplex(self):
        async def scenario():
            async with NetServer(mode="live", devices=2, params="I") as net:
                host, port = net.address
                clients = [await AsyncNetClient.connect(host, port) for _ in range(3)]
                jobs = [
                    client.submit(f"tenant{index}", "gate", 4)
                    for index, client in enumerate(clients)
                    for _ in range(5)
                ]
                outcomes = await asyncio.gather(*jobs)
                for client in clients:
                    await client.close()
                return outcomes, net.stats.connections

        outcomes, connections = asyncio.run(scenario())
        assert len(outcomes) == 15 and connections == 3
        assert len({o.request.request_id for o in outcomes}) >= 5

    def test_closed_loop_loadgen_reports_wire_percentiles(self):
        trace = steady_trace(rate_rps=500.0, duration_s=0.08, seed=5, tenants=3)
        report = closed_loop(trace, connections=3, devices=2, params="I")
        assert len(report.outcomes) == len(trace)
        assert report.wire["connections"] == 3
        assert report.wire["rtt_samples"] == len(trace)
        assert 0.0 < report.wire["rtt_p50_ms"] <= report.wire["rtt_p99_ms"]
        assert report.wire["wire_requests_per_s"] > 0.0
        assert "wire:" in report.render()

    def test_graceful_shutdown_publishes_report(self):
        async def scenario():
            net = NetServer(mode="live", devices=1, params="I")
            await net.start()
            host, port = net.address
            client = await AsyncNetClient.connect(host, port)
            await client.submit("t0", "bootstrap", 2)
            await client.close()
            await net.aclose()
            with pytest.raises(ConnectionError):
                await asyncio.open_connection(host, port)
            return net.last_report

        report = asyncio.run(scenario())
        assert report is not None and len(report.outcomes) == 1
        assert report.wire["frames_received"] >= 2  # hello + submit
