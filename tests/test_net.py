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

Between the last two sits the client's state machine on its own:
:class:`AsyncNetClient` driven over an in-memory stream, no socket anywhere.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest
from conftest import ledger
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.traffic import bursty_trace, steady_trace
from repro.flow.retry import RequestTimeoutError
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
from repro.net.server import _WRITE_BUFFER_LIMIT, NetServer
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
        assert decoder.feed(b"") == []  # nothing left buffered

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
        assert protocol.negotiate_version((1,)) == 1
        assert protocol.negotiate_version((2, 1)) == 1
        assert protocol.negotiate_version((3,)) is None

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


class _ScriptedPeer:
    """One TCP connection answered by a script instead of a server.

    The peer completes the HELLO itself, then runs ``script(conn, frames)``
    with the accepted socket and an iterator over the client's frames — the
    place to be slow, silent or out of step in ways ``NetServer`` never is.
    """

    def __init__(self, script):
        self._script = script
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        conn, _peer = self._listener.accept()
        with conn:
            frames = self._frames(conn)
            try:
                next(frames)  # HELLO
                conn.sendall(encode_frame(MessageType.WELCOME, protocol.encode_welcome()))
                self._script(conn, frames)
            except (OSError, StopIteration):
                pass  # the client hung up first

    @staticmethod
    def _frames(conn):
        decoder = FrameDecoder()
        while data := conn.recv(64 * 1024):
            yield from decoder.feed(data)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._listener.close()
        self._thread.join(5.0)
        assert not self._thread.is_alive(), "the scripted peer is still waiting"


# -- the client state machine, without sockets --------------------------------------


class _RecordingWriter:
    """The write half of a connection that goes nowhere but remembers every byte."""

    def __init__(self):
        self.data = bytearray()

    def write(self, data):
        self.data += data

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass

    def frames(self, msg_type):
        """Every frame of ``msg_type`` the client has written so far."""
        return [f for f in FrameDecoder().feed(bytes(self.data)) if f.msg_type == msg_type]


class _Wire:
    """An :class:`AsyncNetClient` whose peer is the test itself."""

    def __init__(self):
        self.reader = asyncio.StreamReader()
        self.writer = _RecordingWriter()
        self.client = AsyncNetClient(self.reader, self.writer)

    async def reply(self, msg_type, payload=b""):
        """Deliver one reply frame a byte at a time, the reader running in between."""
        for byte in encode_frame(msg_type, payload):
            self.reader.feed_data(bytes([byte]))
            await asyncio.sleep(0)
        await asyncio.sleep(0)

    async def welcome(self, credit_window=None):
        hello = asyncio.ensure_future(self.client.hello())
        await self.reply(MessageType.WELCOME, protocol.encode_welcome(1, credit_window))
        return await hello

    async def pong(self, index):
        """Answer the ``index``-th PING the client wrote, echoing it as a server does."""
        nonce, client_s = protocol.decode_ping(self.writer.frames(MessageType.PING)[index].payload)
        await self.reply(MessageType.PONG, protocol.encode_pong(nonce, client_s, 0.0))


async def _settled(*awaitables):
    """Run them to the end, or fail the test: nothing here may wait forever."""
    tasks = [asyncio.ensure_future(awaitable) for awaitable in awaitables]
    _done, pending = await asyncio.wait(tasks, timeout=2.0)
    for task in pending:
        task.cancel()
    assert not pending, f"{len(pending)} of {len(tasks)} calls never got an answer"
    return [task.exception() or task.result() for task in tasks]


def _result_payload(request_id):
    return codec.encode_result(request_id, 0, 0, 0.0, 0.0, 0.1)


class TestClientStateMachine:
    @pytest.mark.parametrize("late", ["RESULT", "BUSY", "ERROR"])
    def test_late_reply_for_a_timed_out_id_is_swallowed(self, late):
        payload = {
            "RESULT": _result_payload(1),
            "BUSY": protocol.encode_busy(1, 0.1, "late shed"),
            "ERROR": protocol.encode_error(ErrorCode.DEADLINE_EXCEEDED, "late", request_id=1),
        }[late]

        async def scenario():
            wire = _Wire()
            client = wire.client
            assert (await wire.welcome(credit_window=1)).credit_window == 1
            with pytest.raises(RequestTimeoutError):
                await client.submit("t0", "bootstrap", timeout_s=0.01)
            # The abandoned request holds the only credit: the next submit parks.
            second = asyncio.ensure_future(client.submit("t0", "bootstrap"))
            await asyncio.sleep(0.01)
            assert len(wire.writer.frames(MessageType.SUBMIT)) == 1 and client.credit_stalls == 1
            # Its late reply frees the credit, is nobody's outcome and no RTT sample ...
            await wire.reply(MessageType[late], payload)
            assert len(wire.writer.frames(MessageType.SUBMIT)) == 2
            assert client.rtts_s == [] and not second.done()
            assert client.busy_replies == (late == "BUSY")
            # ... and the next RESULT reaches its own future.
            await wire.reply(MessageType.RESULT, _result_payload(2))
            (outcome,) = await _settled(second)
            assert outcome.request.request_id == 2 and len(client.rtts_s) == 1
            await client.close()

        asyncio.run(scenario())

    def test_reply_fifo_stays_aligned_after_a_cancelled_ping(self):
        async def scenario():
            wire = _Wire()
            await wire.welcome()
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(wire.client.ping(), 0.01)
            second = asyncio.ensure_future(wire.client.ping())
            await asyncio.sleep(0)
            await wire.pong(0)  # the stale one: consumed, answers nobody
            assert not second.done() and wire.client.ping_rtts_s == []
            await wire.pong(1)
            (pong,) = await _settled(second)
            assert pong.nonce == 2 and len(wire.client.ping_rtts_s) == 1
            await wire.client.close()

        asyncio.run(scenario())

    def test_error_without_an_id_fails_the_hello_or_everyone_waiting(self):
        refusal = protocol.encode_error(ErrorCode.UNSUPPORTED_VERSION, "no common version")
        garbled = protocol.encode_error(ErrorCode.BAD_CHECKSUM, "crc mismatch")

        async def scenario():
            wire = _Wire()
            hello = asyncio.ensure_future(wire.client.hello((9,)))
            await wire.reply(MessageType.ERROR, refusal)
            (error,) = await _settled(hello)
            assert isinstance(error, NetError)
            assert error.reply.code == ErrorCode.UNSUPPORTED_VERSION
            assert wire.client.negotiated_version is None
            await wire.client.close()

            wire = _Wire()
            await wire.welcome()
            submitted = wire.client.submit_nowait(Request.make(1, "t0", "bootstrap"))
            scrape = asyncio.ensure_future(wire.client.stats())
            await asyncio.sleep(0)
            await wire.reply(MessageType.ERROR, garbled)
            errors = await _settled(submitted, scrape)
            assert [type(e) for e in errors] == [NetError, NetError]
            # Frame-local on the server's side, so the connection keeps serving.
            ping = asyncio.ensure_future(wire.client.ping())
            await asyncio.sleep(0)
            await wire.pong(0)
            assert (await _settled(ping))[0].nonce == 1
            await wire.client.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("call", ["stats", "drain"])
    def test_concurrent_control_calls_are_each_answered(self, call):
        reply_type = {"stats": MessageType.STATS_REPLY, "drain": MessageType.DRAINED}[call]
        payloads = {
            "stats": [protocol.encode_stats({"n": 1.0}), protocol.encode_stats({"n": 2.0})],
            "drain": [b"", b""],
        }[call]

        async def scenario():
            wire = _Wire()
            await wire.welcome()
            calls = [asyncio.ensure_future(getattr(wire.client, call)()) for _ in range(2)]
            await asyncio.sleep(0)
            for payload in payloads:
                await wire.reply(reply_type, payload)
            answers = await _settled(*calls)
            if call == "stats":  # in wire order: first caller, first reply
                assert answers == [{"n": 1.0}, {"n": 2.0}]
            await wire.client.close()

        asyncio.run(scenario())

    def test_unparseable_reply_payload_fails_everything_owed_with_a_typed_error(self):
        async def scenario():
            wire = _Wire()
            await wire.welcome()
            submitted = wire.client.submit_nowait(Request.make(1, "t0", "bootstrap"))
            drain = asyncio.ensure_future(wire.client.drain())
            await asyncio.sleep(0)
            await wire.reply(MessageType.RESULT, b"CRC-valid, but no RESULT")
            for error in await _settled(submitted, drain):
                assert isinstance(error, ProtocolError) and error.code == ErrorCode.BAD_MESSAGE
            # The reader survived it: the frame boundary was never in doubt.
            ping = asyncio.ensure_future(wire.client.ping())
            await asyncio.sleep(0)
            await wire.pong(0)
            await _settled(ping)
            await wire.client.close()

        asyncio.run(scenario())

    def test_sending_after_the_peer_closed_fails_fast_and_registers_nothing(self):
        async def scenario():
            wire = _Wire()
            client = wire.client
            await wire.welcome()
            in_flight = client.submit_nowait(Request.make(1, "t0", "bootstrap"))
            wire.reader.feed_eof()
            (error,) = await _settled(in_flight)
            assert isinstance(error, ConnectionError)
            written = len(wire.writer.data)
            with pytest.raises(ConnectionError):
                client.submit_nowait(Request.make(2, "t0", "bootstrap"))
            for call in (client.submit("t0", "bootstrap"), client.ping(), client.stats()):
                (error,) = await _settled(call)
                assert isinstance(error, ConnectionError)
            assert len(wire.writer.data) == written  # nothing went into the void
            await client.close()

        asyncio.run(scenario())

    def test_only_awaited_submits_are_rtt_samples(self):
        async def scenario():
            wire = _Wire()
            client = wire.client
            await wire.welcome()
            streamed = client.submit_nowait(Request.make(1, "t0", "bootstrap"))
            await wire.reply(MessageType.RESULT, _result_payload(1))
            (outcome,) = await _settled(streamed)
            assert outcome.request.request_id == 1 and client.rtts_s == []
            awaited = asyncio.ensure_future(client.submit("t0", "bootstrap"))
            await asyncio.sleep(0)
            await wire.reply(MessageType.RESULT, _result_payload(2))
            (outcome,) = await _settled(awaited)
            assert outcome.request.request_id == 2 and len(client.rtts_s) == 1
            await client.close()

        asyncio.run(scenario())


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
                assert net._owners == {}
                writer.close()

        asyncio.run(scenario())

    def test_reused_request_id_is_refused_and_the_first_submitter_still_answered(self):
        async def scenario():
            async with NetServer(mode="replay", devices=1, params="I") as net:
                first, second = [await AsyncNetClient.connect(*net.address) for _ in range(2)]
                owed = first.submit_nowait(Request.make(1, "t0", "bootstrap", arrival_s=0.001))
                await asyncio.sleep(0.05)  # the first SUBMIT is in flight
                reused = second.submit_nowait(Request.make(1, "t1", "bootstrap", arrival_s=0.002))
                with pytest.raises(NetError) as excinfo:
                    await asyncio.wait_for(reused, timeout=2.0)
                reply = excinfo.value.reply
                assert (reply.code, reply.request_id) == (ErrorCode.BAD_MESSAGE, 1)
                await second.drain()
                outcome = await asyncio.wait_for(owed, timeout=2.0)
                assert outcome.request.tenant == "t0" and second.rtts_s == []
                for client in (first, second):
                    await client.close()

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
                before = asyncio.all_tasks()
                with pytest.raises(NetError) as excinfo:
                    await AsyncNetClient.connect(host, port, versions=(9,))
                assert excinfo.value.reply.code == ErrorCode.UNSUPPORTED_VERSION
                # The refused client is closed, not leaked: no reader task
                # survives it and the server sees the connection go away.
                assert asyncio.all_tasks() - before - net._conn_tasks == set()
                for _ in range(100):
                    if not net._connections:
                        break
                    await asyncio.sleep(0.01)
                assert not net._connections

        self._scenario(scenario())

    def test_sync_client_refused_hello_is_typed_and_leaks_nothing(self, threaded_net_server):
        with threaded_net_server(mode="live", devices=1, params="I") as served:
            with pytest.raises(NetError) as excinfo:
                NetClient(*served.address, versions=(9,))
            assert excinfo.value.reply.code == ErrorCode.UNSUPPORTED_VERSION
            for _ in range(100):
                if not served.net._connections:
                    break
                time.sleep(0.01)
            assert not served.net._connections

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
                assert reply.code == ErrorCode.BAD_MESSAGE
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

    @pytest.mark.parametrize("mode", ["live", "replay"])
    def test_bad_attachment_fails_only_its_own_request(self, mode):
        wrong = lwe_to_bytes([LweCiphertext.trivial(0, 8, TOY_PARAMETERS)])

        async def scenario():
            options = dict(devices=1, params="I", max_batch_delay_s=0.05)
            async with NetServer(mode=mode, **options) as net:
                client = await AsyncNetClient.connect(*net.address)
                # Still pending when the defective SUBMIT behind it is judged.
                valid = client.submit_nowait(Request.make(1, "t0", "bootstrap", arrival_s=0.001))
                with pytest.raises(NetError) as excinfo:
                    await client.submit("t0", "bootstrap", 1, ciphertexts=wrong)
                reply = excinfo.value.reply
                assert (reply.code, reply.request_id) == (ErrorCode.BAD_MESSAGE, 2)
                assert "'TOY'" in reply.message
                # The connection keeps serving, and the request pipelined
                # ahead of the bad one still gets its RESULT.
                assert (await client.ping()).nonce > 0
                await client.drain()
                outcome = await asyncio.wait_for(valid, timeout=5.0)
                assert outcome.request.request_id == 1
                await client.close()

        self._scenario(scenario())

    def test_replay_submit_without_timestamp_is_rejected_per_request(self):
        async def scenario():
            async with NetServer(mode="replay", devices=1, params="I") as net:
                client = await AsyncNetClient.connect(*net.address)
                valid = client.submit_nowait(Request.make(1, "t0", "bootstrap", arrival_s=0.001))
                with pytest.raises(NetError) as excinfo:
                    await client.submit("t0", "bootstrap", 1)  # live-style: no arrival
                reply = excinfo.value.reply
                assert (reply.code, reply.request_id) == (ErrorCode.BAD_MESSAGE, 2)
                assert net._owners.keys() == {1}
                await client.drain()
                assert (await asyncio.wait_for(valid, timeout=5.0)).request.request_id == 1
                await client.close()

        self._scenario(scenario())


# -- live serving -------------------------------------------------------------------


class TestLiveServing:
    def test_sync_client_submits_and_pings(self, threaded_net_server):
        with threaded_net_server(mode="live", devices=2, params="I") as served:
            host, port = served.address
            with NetClient(host, port) as client:
                assert client.negotiated_version == PROTOCOL_VERSION
                rtt = client.ping()
                assert rtt > 0.0
                outcome = client.submit("tenant0", "bootstrap", 8)
                assert outcome.request.items == 8
                assert outcome.completed_s >= outcome.dispatched_s
                assert len(client.rtts_s) == 1  # submit samples; pings are separate

    def test_sync_ping_after_a_timed_out_submit_returns_its_own_rtt(self, threaded_net_server):
        options = dict(mode="live", devices=1, params="I", batch_capacity=64)
        with threaded_net_server(max_batch_delay_s=0.15, **options) as served:
            with NetClient(*served.address) as client:
                with pytest.raises(RequestTimeoutError):
                    client.submit("t0", "bootstrap", timeout_s=0.01)
                started = time.perf_counter()
                rtt = client.ping()
                assert 0.0 < rtt <= time.perf_counter() - started
                # The late RESULT is still owed; it reaches nobody, and the
                # next submit gets its own outcome.
                outcome = client.submit("t0", "bootstrap", timeout_s=5.0)
                assert outcome.request.request_id == 2 and len(client.rtts_s) == 1

    def test_sync_connection_timeout_is_the_builtin_timeout_error(self):
        silent = threading.Event()
        with _ScriptedPeer(lambda conn, frames: silent.wait(5.0)) as peer:
            with NetClient(*peer.address, timeout=0.05) as client:
                with pytest.raises(TimeoutError) as excinfo:
                    client.stats()
                # Exactly the builtin on every Python: not asyncio's class
                # (3.10), not a per-request RequestTimeoutError.
                assert type(excinfo.value) is TimeoutError
                silent.set()

    def test_sync_stale_pong_is_not_the_next_pings_reply(self):
        def script(conn, frames):
            for delay_s in (0.5, 0.15):  # the first PONG comes after the client gave up
                nonce, client_s = protocol.decode_ping(next(frames).payload)
                time.sleep(delay_s)
                pong = protocol.encode_pong(nonce, client_s, 0.0)
                conn.sendall(encode_frame(MessageType.PONG, pong))

        with _ScriptedPeer(script) as peer:
            with NetClient(*peer.address, timeout=0.4) as client:
                with pytest.raises(TimeoutError):
                    client.ping()
                # Sent at 0.4 s; the stale PONG lands at 0.5 s, its own at 0.65 s.
                assert client.ping() > 0.2

    def test_sync_timeout_bounds_the_call_not_each_read(self):
        def script(conn, frames):
            request_id = codec.decode_submit(next(frames).payload).request_id
            for byte in encode_frame(MessageType.RESULT, _result_payload(request_id)):
                conn.sendall(bytes([byte]))  # 60 bytes, 0.6 s: every read is prompt
                time.sleep(0.01)

        with _ScriptedPeer(script) as peer:
            with NetClient(*peer.address) as client:
                started = time.perf_counter()
                with pytest.raises(RequestTimeoutError):
                    client.submit("t0", "bootstrap", timeout_s=0.1)
                assert time.perf_counter() - started < 0.4

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


# -- a client that never reads ------------------------------------------------------


class TestSilentClients:
    @pytest.mark.parametrize("flood", ["submit", "stats"])
    def test_a_client_that_never_reads_stalls_nobody(self, flood, monkeypatch):
        """A raw socket pipelines frames and never reads a reply, while a
        closed-loop client keeps submitting to the same live server.

        A SUBMIT flood is held off by backpressure: its read loop stops
        reading once its writer is full, long before what it is owed nears
        the bound.  A STATS flood amplifies 16-byte frames into 2 KB replies
        and crosses the bound within one read chunk: the reply that crosses
        it aborts the connection, and the rest of the chunk goes unhandled.
        Either way every request of the other client completes, the ledger
        balances, and ``aclose`` returns (after its grace period, for the
        SUBMIT flood) with the silent peer still connected.
        """
        buffered, aborted = [], []
        send = NetServer._send

        def watched(net, connection, msg_type, payload):
            was_open = not connection.closing
            send(net, connection, msg_type, payload)
            if was_open:
                buffered.append(connection.writer.transport.get_write_buffer_size())
                aborted.append(connection.closing)  # by this very reply

        monkeypatch.setattr(NetServer, "_send", watched)
        if flood == "submit":
            payloads = (codec.encode_submit(i, "quiet", "bootstrap", 1) for i in range(1, 8001))
            frames = [encode_frame(MessageType.SUBMIT, payload) for payload in payloads]
        else:
            frames = [encode_frame(MessageType.STATS, b"")] * 1000

        async def scenario():
            loop = asyncio.get_running_loop()
            async with NetServer(mode="live", devices=1, params="I") as net:
                # Small kernel buffers on both ends: unread replies pile up in
                # the server's transport, where the bound is read.
                net._listener.sockets[0].setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                with socket.socket() as silent:
                    silent.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                    silent.setblocking(False)
                    await loop.sock_connect(silent, net.address)
                    sender = loop.create_task(loop.sock_sendall(silent, b"".join(frames)))
                    client = await AsyncNetClient.connect(*net.address)
                    for _ in range(20):
                        await asyncio.wait_for(client.submit("loud", "bootstrap"), 5.0)
                    await client.close()
                    sender.cancel()
                    await asyncio.wait_for(net.aclose(), 5.0)
            return net.last_report

        report = asyncio.run(scenario())
        silent_frames = report.wire["frames_received"] - 21  # the other client's HELLO + SUBMITs
        submitted = 20 + (silent_frames if flood == "submit" else 0)
        assert sum(ledger(report).values()) == report.metrics.requests == submitted
        assert max(buffered) <= _WRITE_BUFFER_LIMIT
        assert silent_frames < len(frames)
        assert any(aborted) == (flood == "stats")


async def _read_slowly_to_eof(sock: socket.socket) -> list:
    """Every frame a raw socket receives until the server closes it, read a
    few kilobytes at a time; a reset connection fails the read."""
    loop = asyncio.get_running_loop()
    decoder, events = FrameDecoder(), []
    while data := await asyncio.wait_for(loop.sock_recv(sock, 4096), 5.0):
        events.extend(decoder.feed(data))
        await asyncio.sleep(0.001)
    assert decoder.at_eof() is None
    return events


class TestSlowReaders:
    """A peer that reads, only slowly, is owed every reply: a close that
    finds replies still in its connection's transport flushes them first."""

    def test_replies_owed_across_aclose_all_arrive(self):
        """3,000 replayed requests are batched when ``aclose`` begins; its
        drain answers them in one burst, most of which is still in the
        transport when the connection is closed."""
        count = 3000
        frames = b"".join(
            encode_frame(
                MessageType.SUBMIT,
                codec.encode_submit(i, "slow", "bootstrap", 1, arrival_s=i * 1e-6),
            )
            for i in range(1, count + 1)
        )

        async def scenario():
            loop = asyncio.get_running_loop()
            # Nothing flushes on its own: every request waits for the drain.
            options = {"max_batch_delay_s": 10.0, "batch_capacity": 2 * count}
            net = NetServer(mode="replay", devices=1, params="I", **options)
            await net.start()
            net._listener.sockets[0].setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            with socket.socket() as slow:
                slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                slow.setblocking(False)
                await loop.sock_connect(slow, net.address)
                await loop.sock_sendall(slow, frames)
                while net.stats.frames_received < count:
                    await asyncio.sleep(0.01)
                assert net.stats.frames_sent == 0  # nothing flushed yet
                closing = loop.create_task(net.aclose())
                while net.stats.frames_sent < count:  # the drain answers inside aclose
                    await asyncio.sleep(0.01)
                unsent = [c.writer.transport.get_write_buffer_size() for c in net._connections]
                events = await _read_slowly_to_eof(slow)
                await asyncio.wait_for(closing, 5.0)
            return unsent, events, net.last_report

        unsent, events, report = asyncio.run(scenario())
        assert len(unsent) == 1 and unsent[0] > 0  # the close found replies still unsent
        assert {event.msg_type for event in events} == {MessageType.RESULT}
        answered = sorted(codec.decode_result(event.payload).request_id for event in events)
        assert answered == list(range(1, count + 1))
        assert report.metrics.requests == len(report.outcomes) == count

    def test_a_fatal_error_behind_a_full_buffer_still_arrives(self, monkeypatch):
        """STATS replies fill the transport, then a bad magic kills the
        stream: the peer reads every reply, then the final ``ERROR``, then a
        clean EOF."""
        stats = 24
        frames = encode_frame(MessageType.STATS, b"") * stats + b"XXXX" + bytes(HEADER.size - 4)
        unsent = []
        send_error = NetServer._send_error

        def watched(net, connection, defect, request_id=0):
            send_error(net, connection, defect, request_id)
            unsent.append(connection.writer.transport.get_write_buffer_size())

        monkeypatch.setattr(NetServer, "_send_error", watched)

        async def scenario():
            loop = asyncio.get_running_loop()
            async with NetServer(mode="live", devices=1, params="I") as net:
                net._listener.sockets[0].setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                with socket.socket() as slow:
                    slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                    slow.setblocking(False)
                    await loop.sock_connect(slow, net.address)
                    await loop.sock_sendall(slow, frames)
                    return await _read_slowly_to_eof(slow)

        events = asyncio.run(scenario())
        assert len(unsent) == 1 and unsent[0] > 0  # the ERROR queued behind unsent replies
        *replies, final = events
        assert [reply.msg_type for reply in replies] == [MessageType.STATS_REPLY] * stats
        assert _error_reply(final).code == ErrorCode.BAD_MAGIC
