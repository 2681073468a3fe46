"""Client libraries for the serving front-end: async-first, with a sync twin.

:class:`AsyncNetClient` is the real client: one connection, a background
reader task, and any number of in-flight submissions multiplexed by request
id.  ``await client.submit(...)`` is the closed-loop call — it returns the
:class:`~repro.serve.request.RequestOutcome` when the server's ``RESULT``
frame lands and records the round-trip time of every such call.
``submit_nowait`` is the streaming variant trace replay needs: it returns a
future immediately so a whole trace can be pushed down the pipe before the
first result comes back.

:class:`NetClient` is the blocking wrapper for scripts and docs: plain
sockets, one outstanding request at a time, no event loop required.

Typed ``ERROR`` replies surface as :class:`NetError` — carrying the decoded
:class:`~repro.net.protocol.ErrorReply` — never as silently dropped
connections.  Overload answers are typed too: a ``BUSY`` frame raises
:class:`~repro.flow.retry.ServerBusyError` with the server's deterministic
retry-after hint, a per-request ``timeout_s`` raises
:class:`~repro.flow.retry.RequestTimeoutError`, and
:meth:`AsyncNetClient.submit_with_retry` folds both into a capped,
seeded-jitter backoff loop guarded by a circuit breaker (see
:mod:`repro.flow.retry`).  When the server's WELCOME advertises a credit
window the async client self-limits: a ``submit`` past the window parks on
a credit instead of earning a BUSY round trip.
"""

from __future__ import annotations

import asyncio
import socket
import time
from typing import Any, NamedTuple

from repro.flow.retry import (
    CircuitBreaker,
    RequestTimeoutError,
    RetryPolicy,
    ServerBusyError,
)
from repro.net import codec, protocol
from repro.net.codec import ResultMessage
from repro.net.protocol import (
    PROTOCOL_VERSION,
    ErrorReply,
    Frame,
    FrameDecoder,
    MessageType,
    Pong,
    ProtocolError,
)
from repro.serve.request import Request, RequestOutcome


class NetError(Exception):
    """A typed ``ERROR`` reply from the server."""

    def __init__(self, reply: ErrorReply):
        super().__init__(f"{reply.code_name}: {reply.message}")
        self.reply = reply


class _Pending(NamedTuple):
    """One SUBMIT awaiting its reply; ``credited`` if that reply frees a credit."""

    request: Request
    sent_at: float
    future: asyncio.Future
    credited: bool


class AsyncNetClient:
    """One connection to a :class:`~repro.net.server.NetServer`.

    Build with :meth:`connect`, which performs the HELLO/WELCOME version
    negotiation before returning.  Every ``submit`` / ``ping`` round trip
    is timed; :attr:`rtts_s` and :attr:`ping_rtts_s` accumulate the
    samples the load generator turns into wire-level percentiles.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder()
        self._write_lock = asyncio.Lock()
        self._next_id = 0
        self._next_nonce = 0
        self._pending: dict[int, _Pending] = {}
        self._pings: dict[int, tuple[float, asyncio.Future]] = {}
        self._hello: asyncio.Future | None = None
        self._drained: asyncio.Future | None = None
        self._stats: asyncio.Future | None = None
        self._reader_task: asyncio.Task | None = None
        self._closed = False
        self.negotiated_version: int | None = None
        #: In-flight window the server's WELCOME advertised (``None`` when
        #: the server runs without credit-based flow control).
        self.credit_window: int | None = None
        self._inflight = 0
        self._credit_free = asyncio.Event()
        self._credit_free.set()
        #: Times a ``submit`` had to park waiting for a credit.
        self.credit_stalls = 0
        #: Last credit count the server piggy-backed on a RESULT frame
        #: (``None`` until one arrives).  The local window never drifts
        #: from the server's — a timed-out request keeps its credit until
        #: the server's late reply lands — so this is the server's view
        #: for introspection, not a correction signal.
        self.server_credits: int | None = None
        #: BUSY replies received (shed work and exhausted windows).
        self.busy_replies = 0
        #: Re-sends performed by :meth:`submit_with_retry`.
        self.retries = 0
        #: Round-trip seconds of every awaited ``submit`` call.
        self.rtts_s: list[float] = []
        #: Round-trip seconds of every ``ping`` call.
        self.ping_rtts_s: list[float] = []
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        versions: tuple[int, ...] = (PROTOCOL_VERSION,),
    ) -> "AsyncNetClient":
        """Open a connection and negotiate a protocol version."""
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer)
        client._reader_task = asyncio.get_running_loop().create_task(client._read_loop())
        loop = asyncio.get_running_loop()
        client._hello = loop.create_future()
        await client._send(MessageType.HELLO, protocol.encode_hello(versions))
        welcome = await client._hello
        client.negotiated_version = welcome.version
        client.credit_window = welcome.credit_window
        return client

    # -- requests ----------------------------------------------------------------

    async def submit(
        self,
        tenant: str,
        kind: str,
        items: int = 1,
        model: str | None = None,
        ciphertexts: Any = None,
        deadline_s: float | None = None,
        timeout_s: float | None = None,
    ) -> RequestOutcome:
        """Submit live work and wait for its outcome (round trip is timed).

        ``deadline_s`` is a relative latency budget the server resolves
        against the arrival it stamps (expired work earns a typed
        ``DEADLINE_EXCEEDED`` error, never a silent drop).  ``timeout_s``
        bounds *this* call client-side — including any wait for a credit —
        past it the call is abandoned with
        :class:`~repro.flow.retry.RequestTimeoutError` while the server may
        still finish the work; the abandoned request keeps its credit until
        the server's (late) reply arrives, so the client's window never
        drifts from the server's.  When the server advertised a credit
        window, a submit past it parks here until a reply frees a credit
        (counted in :attr:`credit_stalls`) instead of earning a BUSY round
        trip.
        """
        self._next_id += 1
        request = Request.make(self._next_id, tenant, kind, items, model=model)
        payload = codec.encode_submit(
            request.request_id,
            tenant,
            request.kind.value,
            items,
            model=model,
            ciphertexts=ciphertexts,
            deadline_s=deadline_s,
        )
        if timeout_s is None:
            return await self._deliver(request, payload)
        try:
            return await asyncio.wait_for(self._deliver(request, payload), timeout_s)
        except asyncio.TimeoutError:
            raise RequestTimeoutError(
                f"request {request.request_id} timed out after {timeout_s}s "
                "waiting for its RESULT"
            ) from None

    async def _deliver(self, request: Request, payload: bytes) -> RequestOutcome:
        """Acquire a credit, send the SUBMIT frame, await the RESULT.

        Cancellation (how :meth:`submit`'s per-request timeout lands here)
        is credit-exact: before the frame hits the wire the registration is
        unwound completely; after it, the pending entry stays and keeps its
        credit until the server's reply arrives — the server still counts
        the request in flight, so releasing early would let the two
        windows drift apart and earn BUSY round trips later.
        """
        await self._acquire_credit()
        try:
            future = self._register(request, credited=True)
        except BaseException:
            self._release_credit(True)
            raise
        data = protocol.encode_frame(MessageType.SUBMIT, payload)
        sent = False
        try:
            async with self._write_lock:
                self._write_raw(data)
                sent = True
                await self._writer.drain()
        except BaseException:
            if not sent:
                # The frame never reached the wire, so no reply will ever
                # release this entry — unwind it here.  (The reader may
                # have already failed and released it while we awaited the
                # lock; release only what we still own.)
                entry = self._pending.pop(request.request_id, None)
                if entry is not None:
                    self._release_credit(entry.credited)
            raise
        return await future

    async def submit_with_retry(
        self,
        tenant: str,
        kind: str,
        items: int = 1,
        model: str | None = None,
        ciphertexts: Any = None,
        deadline_s: float | None = None,
        timeout_s: float | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> RequestOutcome:
        """``submit`` wrapped in capped, seeded-jitter backoff.

        Retries :class:`~repro.flow.retry.ServerBusyError` (honouring the
        server's retry-after hint as a floor) and
        :class:`~repro.flow.retry.RequestTimeoutError`; other failures
        propagate immediately.  An optional ``breaker`` short-circuits the
        loop with :class:`~repro.flow.retry.CircuitOpenError` once the
        server looks down, so a saturated backend is not hammered.
        """
        retry = retry if retry is not None else RetryPolicy()
        loop = asyncio.get_running_loop()
        attempt = 0
        while True:
            attempt += 1
            if breaker is not None:
                breaker.check(loop.time())
            try:
                outcome = await self.submit(
                    tenant,
                    kind,
                    items,
                    model=model,
                    ciphertexts=ciphertexts,
                    deadline_s=deadline_s,
                    timeout_s=timeout_s,
                )
            except (ServerBusyError, RequestTimeoutError) as error:
                if breaker is not None:
                    breaker.record_failure(loop.time())
                if not retry.should_retry(attempt):
                    raise
                hint = error.retry_after_s if isinstance(error, ServerBusyError) else 0.0
                self.retries += 1
                await asyncio.sleep(retry.delay_s(attempt, hint))
                continue
            except BaseException:
                # Non-retryable failure (typed ERROR, connection loss,
                # cancellation): the breaker neither counts it nor may it
                # keep holding the half-open probe slot — an unreleased
                # probe would latch every later check() open forever.
                if breaker is not None:
                    breaker.abort_probe()
                raise
            if breaker is not None:
                breaker.record_success()
            return outcome

    def submit_nowait(self, request: Request) -> asyncio.Future:
        """Send a trace request without waiting; returns the outcome future.

        This is the replay primitive: the whole trace streams down the
        connection in arrival order while results flow back as the server's
        batcher releases them.
        """
        payload = codec.submit_from_request(request, with_arrival=True)
        future = self._register(request)
        data = protocol.encode_frame(MessageType.SUBMIT, payload)
        self._write_raw(data)
        return future

    def _register(self, request: Request, credited: bool = False) -> asyncio.Future:
        if self._closed:
            raise ConnectionError("the client is closed")
        if request.request_id in self._pending:
            raise ValueError(f"request id {request.request_id} is already in flight")
        self._next_id = max(self._next_id, request.request_id)
        future = asyncio.get_running_loop().create_future()
        self._pending[request.request_id] = _Pending(request, time.perf_counter(), future, credited)
        return future

    # -- credits -----------------------------------------------------------------

    async def _acquire_credit(self) -> None:
        """Park until the advertised in-flight window has room (if any)."""
        if self.credit_window is None:
            return
        if self._inflight >= self.credit_window:
            self.credit_stalls += 1
            while self._inflight >= self.credit_window:
                self._credit_free.clear()
                await self._credit_free.wait()
        self._inflight += 1

    def _release_credit(self, credited: bool) -> None:
        if not credited or self.credit_window is None:
            return
        self._inflight -= 1
        self._credit_free.set()

    async def ping(self) -> Pong:
        """Round-trip latency echo; the RTT lands in :attr:`ping_rtts_s`."""
        self._next_nonce += 1
        nonce = self._next_nonce
        sent_at = time.perf_counter()
        future = asyncio.get_running_loop().create_future()
        self._pings[nonce] = (sent_at, future)
        await self._send(MessageType.PING, protocol.encode_ping(nonce, sent_at))
        return await future

    async def drain(self) -> None:
        """Ask the server to flush everything batched; returns on ``DRAINED``."""
        self._drained = asyncio.get_running_loop().create_future()
        await self._send(MessageType.DRAIN, b"")
        await self._drained

    async def stats(self) -> dict[str, float]:
        """Scrape the server's metrics registry over the wire.

        Returns the flat ``{name: value}`` snapshot the server's
        :meth:`~repro.serve.server.Server.metrics` produced when the
        ``STATS`` frame was handled.
        """
        self._stats = asyncio.get_running_loop().create_future()
        await self._send(MessageType.STATS, b"")
        return await self._stats

    async def close(self) -> None:
        """Close the connection and stop the reader task."""
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        self._fail_pending(ConnectionError("connection closed"))

    async def __aenter__(self) -> "AsyncNetClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- transport ---------------------------------------------------------------

    async def _send(self, msg_type: MessageType, payload: bytes) -> None:
        data = protocol.encode_frame(msg_type, payload)
        async with self._write_lock:
            self._write_raw(data)
            await self._writer.drain()

    def _write_raw(self, data: bytes) -> None:
        if self._closed:
            raise ConnectionError("the client is closed")
        self._writer.write(data)
        self.frames_sent += 1
        self.bytes_sent += len(data)

    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self._reader.read(64 * 1024)
                if not data:
                    self._fail_pending(ConnectionError("server closed the connection"))
                    return
                self.bytes_received += len(data)
                for event in self._decoder.feed(data):
                    if isinstance(event, ProtocolError):
                        self._fail_pending(event)
                        if event.fatal:
                            return
                    else:
                        self.frames_received += 1
                        self._handle_frame(event)
        except (ConnectionResetError, BrokenPipeError):
            self._fail_pending(ConnectionError("connection lost"))
        except asyncio.CancelledError:
            raise

    def _handle_frame(self, frame: Frame) -> None:
        msg_type = frame.msg_type
        if msg_type == MessageType.RESULT:
            self._handle_result(codec.decode_result(frame.payload))
        elif msg_type == MessageType.BUSY:
            self._handle_busy(protocol.decode_busy(frame.payload))
        elif msg_type == MessageType.ERROR:
            self._handle_error(protocol.decode_error(frame.payload))
        elif msg_type == MessageType.WELCOME:
            if self._hello is not None and not self._hello.done():
                self._hello.set_result(protocol.decode_welcome(frame.payload))
        elif msg_type == MessageType.PONG:
            pong = protocol.decode_pong(frame.payload)
            entry = self._pings.pop(pong.nonce, None)
            if entry is not None:
                sent_at, future = entry
                self.ping_rtts_s.append(time.perf_counter() - sent_at)
                if not future.done():
                    future.set_result(pong)
        elif msg_type == MessageType.DRAINED:
            if self._drained is not None and not self._drained.done():
                self._drained.set_result(None)
        elif msg_type == MessageType.STATS_REPLY:
            if self._stats is not None and not self._stats.done():
                self._stats.set_result(protocol.decode_stats(frame.payload))

    def _handle_result(self, message: ResultMessage) -> None:
        if message.credits is not None:
            self.server_credits = message.credits
        entry = self._pending.pop(message.request_id, None)
        if entry is None:
            return
        self._release_credit(entry.credited)
        future = entry.future
        if future.cancelled():
            # A timed-out submit abandoned this request but kept its
            # credit held (the server still counted it in flight); this
            # late reply is the release point, never an RTT sample.
            return
        self.rtts_s.append(time.perf_counter() - entry.sent_at)
        if not future.done():
            future.set_result(message.to_outcome(entry.request))

    def _handle_busy(self, busy: protocol.BusyReply) -> None:
        """A BUSY reply: the server shed or refused this request."""
        self.busy_replies += 1
        entry = self._pending.pop(busy.request_id, None)
        if entry is None:
            return
        self._release_credit(entry.credited)
        if not entry.future.done():
            entry.future.set_exception(
                ServerBusyError(busy.reason, retry_after_s=busy.retry_after_s)
            )

    def _handle_error(self, reply: ErrorReply) -> None:
        error = NetError(reply)
        if reply.request_id:
            entry = self._pending.pop(reply.request_id, None)
            if entry is not None:
                self._release_credit(entry.credited)
                if not entry.future.done():
                    entry.future.set_exception(error)
                return
        if self._hello is not None and not self._hello.done():
            self._hello.set_exception(error)
            return
        self._fail_pending(error)

    def _fail_pending(self, error: Exception) -> None:
        for entry in self._pending.values():
            self._release_credit(entry.credited)
            if not entry.future.done():
                entry.future.set_exception(error)
        self._pending.clear()
        for _, future in self._pings.values():
            if not future.done():
                future.set_exception(error)
        self._pings.clear()
        for waiter in (self._hello, self._drained, self._stats):
            if waiter is not None and not waiter.done():
                waiter.set_exception(error)


class NetClient:
    """Blocking client: plain sockets, one outstanding request at a time.

    The simple face of the protocol for scripts and documentation —
    ``connect``, ``submit``, ``ping``, ``close`` — with the same typed
    :class:`NetError` failures as the async client.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        versions: tuple[int, ...] = (PROTOCOL_VERSION,),
    ):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._decoder = FrameDecoder()
        self._frames: list[Frame] = []
        self._next_id = 0
        self._next_nonce = 0
        self._closed = False
        #: Request ids abandoned by a timed-out ``submit``; their late
        #: RESULT/BUSY/ERROR frames are discarded on sight so a stale
        #: reply is never returned as a *newer* request's outcome.
        self._abandoned: set[int] = set()
        #: Round-trip seconds of every ``submit`` and ``ping`` call.
        self.rtts_s: list[float] = []
        self._timeout = timeout
        self._send(MessageType.HELLO, protocol.encode_hello(versions))
        frame = self._expect(MessageType.WELCOME)
        welcome = protocol.decode_welcome(frame.payload)
        self.negotiated_version = welcome.version
        #: In-flight window the server's WELCOME advertised (informational
        #: here: the blocking client never has more than one in flight).
        self.credit_window = welcome.credit_window

    def submit(
        self,
        tenant: str,
        kind: str,
        items: int = 1,
        model: str | None = None,
        ciphertexts: Any = None,
        deadline_s: float | None = None,
        timeout_s: float | None = None,
    ) -> RequestOutcome:
        """Submit live work and block until its outcome arrives.

        ``deadline_s`` is the relative server-side latency budget;
        ``timeout_s`` bounds this call client-side and raises
        :class:`~repro.flow.retry.RequestTimeoutError` when it runs out.
        A BUSY reply (shed or refused work) raises
        :class:`~repro.flow.retry.ServerBusyError` with the server's
        retry-after hint.
        """
        self._next_id += 1
        request = Request.make(self._next_id, tenant, kind, items, model=model)
        payload = codec.encode_submit(
            request.request_id, tenant, request.kind.value, items,
            model=model, ciphertexts=ciphertexts, deadline_s=deadline_s,
        )
        started = time.perf_counter()
        if timeout_s is not None:
            self._sock.settimeout(timeout_s)
        try:
            self._send(MessageType.SUBMIT, payload)
            frame = self._expect(MessageType.RESULT, request_id=request.request_id)
        except socket.timeout:
            # The server may still answer later; remember the id so the
            # stale reply is discarded instead of desynchronizing the
            # one-outstanding-request stream.
            self._abandoned.add(request.request_id)
            raise RequestTimeoutError(
                f"request {request.request_id} timed out after {timeout_s}s "
                "waiting for its RESULT"
            ) from None
        finally:
            if timeout_s is not None:
                self._sock.settimeout(self._timeout)
        self.rtts_s.append(time.perf_counter() - started)
        return codec.decode_result(frame.payload).to_outcome(request)

    def ping(self) -> float:
        """One latency echo; returns the round-trip time in seconds."""
        self._next_nonce += 1
        started = time.perf_counter()
        self._send(MessageType.PING, protocol.encode_ping(self._next_nonce, started))
        self._expect(MessageType.PONG)
        rtt = time.perf_counter() - started
        self.rtts_s.append(rtt)
        return rtt

    def stats(self) -> dict[str, float]:
        """Scrape the server's metrics registry over the wire."""
        self._send(MessageType.STATS, b"")
        frame = self._expect(MessageType.STATS_REPLY)
        return protocol.decode_stats(frame.payload)

    def close(self) -> None:
        """Close the socket."""
        if not self._closed:
            self._closed = True
            self._sock.close()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- transport ---------------------------------------------------------------

    def _send(self, msg_type: MessageType, payload: bytes) -> None:
        self._sock.sendall(protocol.encode_frame(msg_type, payload))

    def _expect(self, msg_type: MessageType, request_id: int | None = None) -> Frame:
        """Read frames until the awaited reply arrives.

        ``request_id`` correlates RESULT frames: a RESULT for any other id
        belongs to a request a timed-out ``submit`` abandoned and is
        discarded, never returned as the *current* call's outcome.  Late
        BUSY/ERROR replies for abandoned ids are likewise dropped instead
        of raising against the wrong request.
        """
        while True:
            frame = self._next_frame()
            if frame.msg_type == MessageType.ERROR:
                reply = protocol.decode_error(frame.payload)
                if reply.request_id and reply.request_id in self._abandoned:
                    self._abandoned.discard(reply.request_id)
                    continue
                raise NetError(reply)
            if frame.msg_type == MessageType.BUSY:
                busy = protocol.decode_busy(frame.payload)
                if busy.request_id in self._abandoned:
                    self._abandoned.discard(busy.request_id)
                    continue
                raise ServerBusyError(busy.reason, retry_after_s=busy.retry_after_s)
            if frame.msg_type == MessageType.RESULT:
                result_id = codec.decode_result(frame.payload).request_id
                if result_id != request_id:
                    self._abandoned.discard(result_id)
                    continue
                return frame
            if frame.msg_type == msg_type:
                return frame
            # Any other frame (e.g. a stray PONG) is skipped.

    def _next_frame(self) -> Frame:
        while True:
            if self._frames:
                return self._frames.pop(0)
            data = self._sock.recv(64 * 1024)
            if not data:
                raise ConnectionError("server closed the connection")
            for event in self._decoder.feed(data):
                if isinstance(event, ProtocolError):
                    raise event
                self._frames.append(event)
