"""The wire client: one protocol state machine, plus a blocking facade over it.

:class:`AsyncNetClient` is the client: one connection, a background reader
task, and any number of in-flight submissions multiplexed by request id.
``await client.submit(...)`` is the closed-loop call — it returns the
:class:`~repro.serve.request.RequestOutcome` when the server's ``RESULT``
frame lands and records the round-trip time of every such call (and of no
other).  ``submit_nowait`` is the streaming variant trace replay needs: it
returns a future immediately so a whole trace can be pushed down the pipe
before the first result comes back.  Replies without a request id (``WELCOME``,
``PONG``, ``DRAINED``, ``STATS_REPLY``) go through one reply table, a FIFO
of waiting futures per reply type: a connection answers its control frames
in order.  However the reader ends, everything still owed a reply fails with
a typed error and later sends fail fast — a call never hangs.

:class:`NetClient` is that client run to completion, call by call, on a
private event loop — the blocking face for scripts and docs, with no
protocol state of its own.

Typed ``ERROR`` replies surface as :class:`NetError` — carrying the decoded
:class:`~repro.net.protocol.ErrorReply` — never as silently dropped
connections.  Overload answers are typed too: a ``BUSY`` frame raises
:class:`~repro.flow.retry.ServerBusyError` with the server's deterministic
retry-after hint, a per-request ``timeout_s`` raises
:class:`~repro.flow.retry.RequestTimeoutError`, and
:meth:`AsyncNetClient.submit_with_retry` folds both into a capped,
seeded-jitter backoff loop guarded by a circuit breaker (see
:mod:`repro.flow.retry`).  When the server's WELCOME advertises a credit
window the client self-limits: a ``submit`` past the window parks on a
credit instead of earning a BUSY round trip.
"""

from __future__ import annotations

import asyncio
import time
from collections import defaultdict, deque
from typing import Any, Coroutine, NamedTuple

from repro.flow.retry import (
    CircuitBreaker,
    RequestTimeoutError,
    RetryPolicy,
    ServerBusyError,
)
from repro.net import codec, protocol
from repro.net.protocol import (
    PROTOCOL_VERSION,
    ErrorCode,
    ErrorReply,
    Frame,
    FrameDecoder,
    MessageType,
    Pong,
    ProtocolError,
    Welcome,
)
from repro.serve.request import Request, RequestOutcome

#: Replies that carry no request id, and how each one's payload decodes.
_CONTROL_REPLIES = {
    MessageType.WELCOME: protocol.decode_welcome,
    MessageType.PONG: protocol.decode_pong,
    MessageType.DRAINED: lambda payload: None,
    MessageType.STATS_REPLY: protocol.decode_stats,
}


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

    The constructor takes the two streams and starts the reader task, so
    it must run inside the event loop that owns them.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder()
        self._write_lock = asyncio.Lock()
        self._next_id = 0
        self._next_nonce = 0
        self._pending: dict[int, _Pending] = {}
        #: The reply table: per control-reply type, the futures waiting for
        #: one, in the order their requests went onto the wire.
        self._replies: defaultdict[int, deque[asyncio.Future]] = defaultdict(deque)
        self._closed = False
        #: Why the reader ended (``None`` while it runs); sends fail fast after.
        self._lost: Exception | None = None
        self.negotiated_version: int | None = None
        #: In-flight window the server's WELCOME advertised (``None`` when
        #: the server runs without credit-based flow control).
        self.credit_window: int | None = None
        self._inflight = 0
        self._credit_free = asyncio.Event()
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
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

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
        try:
            await client.hello(versions)
        except BaseException:
            # A refused HELLO must not leak the reader task and the socket.
            await client.close()
            raise
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
        is credit-exact: before the frame hits the wire nothing is
        registered and the credit is handed back; after it, the pending
        entry stays and keeps its credit until the server's reply arrives
        — the server still counts the request in flight, so releasing
        early would let the two windows drift apart and earn BUSY round
        trips later.
        """
        await self._acquire_credit()
        future = None
        try:
            async with self._write_lock:
                future = self._send_submit(request, payload, credited=True)
                await self._writer.drain()
            return await future
        except BaseException:
            if future is None:
                # The frame never reached the wire, so no reply will ever
                # release the credit taken above.
                self._release_credit(True)
            else:
                # Abandoned on the wire (a no-op once the future is done):
                # its late reply frees the credit but is no RTT sample.
                future.cancel()
            raise

    async def submit_with_retry(
        self,
        *args: Any,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        **submit_options: Any,
    ) -> RequestOutcome:
        """:meth:`submit` (same arguments) wrapped in capped, seeded-jitter backoff.

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
                outcome = await self.submit(*args, **submit_options)
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
        payload = codec.submit_from_request(request)
        return self._send_submit(request, payload, credited=False)

    def _send_submit(self, request: Request, payload: bytes, credited: bool) -> asyncio.Future:
        """Write one SUBMIT frame and register its reply, in one synchronous step.

        Nothing is registered unless the frame was written, so a send that
        fails (closed client, lost connection) leaves no entry behind.
        """
        if request.request_id in self._pending:
            raise ValueError(f"request id {request.request_id} is already in flight")
        self._write_frame(MessageType.SUBMIT, payload)
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

    # -- control calls -----------------------------------------------------------

    async def _call(self, msg_type: MessageType, payload: bytes, reply_type: MessageType) -> Any:
        """Send one control frame and await the reply the server owes for it.

        The waiter joins its FIFO after the write and under the write
        lock, so queue order is wire order and a caller cancelled while
        waiting for the lock leaves nothing behind.  A caller that gives
        up later (timeout, cancellation, a failed ``drain``) leaves its
        waiter queued but cancelled: the reply still arrives, consumes that
        slot and is dropped — which is what keeps the FIFO aligned.
        """
        future = asyncio.get_running_loop().create_future()
        try:
            async with self._write_lock:
                self._write_frame(msg_type, payload)
                self._replies[reply_type].append(future)
                await self._writer.drain()
            return await future
        finally:
            future.cancel()  # a no-op once the reply (or a failure) has landed

    async def hello(self, versions: tuple[int, ...] = (PROTOCOL_VERSION,)) -> Welcome:
        """Negotiate the protocol version (:meth:`connect` does this for you)."""
        offer = protocol.encode_hello(versions)
        welcome = await self._call(MessageType.HELLO, offer, MessageType.WELCOME)
        self.negotiated_version = welcome.version
        self.credit_window = welcome.credit_window
        return welcome

    async def ping(self) -> Pong:
        """Round-trip latency echo; the RTT lands in :attr:`ping_rtts_s`."""
        self._next_nonce += 1
        ping = protocol.encode_ping(self._next_nonce, time.perf_counter())
        pong = await self._call(MessageType.PING, ping, MessageType.PONG)
        # The PONG echoes the send time, so no per-ping state is kept.
        self.ping_rtts_s.append(time.perf_counter() - pong.client_s)
        return pong

    async def drain(self) -> None:
        """Ask the server to flush everything batched; returns on ``DRAINED``."""
        await self._call(MessageType.DRAIN, b"", MessageType.DRAINED)

    async def stats(self) -> dict[str, float]:
        """Scrape the server's metrics registry over the wire.

        Returns the flat ``{name: value}`` snapshot the server's
        :meth:`~repro.serve.server.Server.metrics` produced when the
        ``STATS`` frame was handled.
        """
        return await self._call(MessageType.STATS, b"", MessageType.STATS_REPLY)

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
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass

    async def __aenter__(self) -> "AsyncNetClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- transport ---------------------------------------------------------------

    def _write_frame(self, msg_type: MessageType, payload: bytes) -> None:
        """Queue one frame on the socket — or fail fast, before anything is owed."""
        if self._closed:
            raise ConnectionError("the client is closed")
        if self._lost is not None:
            raise ConnectionError(f"the connection is down: {self._lost}")
        data = protocol.encode_frame(msg_type, payload)
        self._writer.write(data)
        self.frames_sent += 1
        self.bytes_sent += len(data)

    async def _read_loop(self) -> None:
        """Route replies until the stream ends, then fail everything still owed."""
        error: Exception = ConnectionError("connection closed")  # cancelled by close()
        try:
            while True:
                data = await self._reader.read(64 * 1024)
                if not data:
                    error = ConnectionError("server closed the connection")
                    return
                self.bytes_received += len(data)
                for event in self._decoder.feed(data):
                    if isinstance(event, Frame):
                        self.frames_received += 1
                        try:
                            self._handle_frame(event)
                            continue
                        except ValueError as defect:
                            # CRC-valid but unparseable: whose reply it was
                            # is unknowable, so it counts against everyone.
                            event = ProtocolError(
                                ErrorCode.BAD_MESSAGE, f"{event.type_name} reply: {defect}"
                            )
                    if event.fatal:
                        error = event
                        return
                    self._fail_owed(event)
        except (ConnectionResetError, BrokenPipeError):
            error = ConnectionError("connection lost")
        finally:
            self._lost = error
            self._fail_owed(error)

    def _handle_frame(self, frame: Frame) -> None:
        """Resolve the future one reply answers (``ValueError``: payload does not parse)."""
        msg_type = frame.msg_type
        if msg_type == MessageType.RESULT:
            message = codec.decode_result(frame.payload)
            if message.credits is not None:
                self.server_credits = message.credits
            entry = self._settle(message.request_id)
            if entry is not None:  # abandoned work is never an RTT sample
                if entry.credited:  # nor is a submit_nowait reply
                    self.rtts_s.append(time.perf_counter() - entry.sent_at)
                entry.future.set_result(message.to_outcome(entry.request))
        elif msg_type == MessageType.BUSY:
            # The server shed or refused this request.
            busy = protocol.decode_busy(frame.payload)
            self.busy_replies += 1
            entry = self._settle(busy.request_id)
            if entry is not None:
                entry.future.set_exception(
                    ServerBusyError(busy.reason, retry_after_s=busy.retry_after_s)
                )
        elif msg_type == MessageType.ERROR:
            reply = protocol.decode_error(frame.payload)
            if reply.request_id:
                entry = self._settle(reply.request_id)
                if entry is not None:
                    entry.future.set_exception(NetError(reply))
            else:
                # Answers no request in particular (a refused HELLO, a frame
                # the server could not read): everyone waiting hears it.
                self._fail_owed(NetError(reply))
        elif msg_type in _CONTROL_REPLIES:
            value = _CONTROL_REPLIES[msg_type](frame.payload)
            waiters = self._replies[msg_type]
            if waiters:
                future = waiters.popleft()
                if not future.done():
                    future.set_result(value)

    def _settle(self, request_id: int) -> _Pending | None:
        """Take the entry a reply answers off the books and free its credit.

        Returns it only while its future still waits: a cancelled one is a
        timed-out submit that kept its credit held (the server still counted
        it in flight) — this late reply is the release point, nothing more.
        """
        entry = self._pending.pop(request_id, None)
        if entry is None:
            return None
        self._release_credit(entry.credited)
        return None if entry.future.done() else entry

    def _fail_owed(self, error: Exception) -> None:
        """Fail every future still owed a reply — submits and control calls alike."""
        for entry in self._pending.values():
            self._release_credit(entry.credited)
            if not entry.future.done():
                entry.future.set_exception(error)
        self._pending.clear()
        for waiters in self._replies.values():
            for future in waiters:
                if not future.done():
                    future.set_exception(error)
            waiters.clear()


class NetClient:
    """Blocking facade: an :class:`AsyncNetClient` run to completion, call by call.

    The simple face of the protocol for scripts and documentation —
    ``connect``, ``submit``, ``ping``, ``close`` — with the async client's
    typed failures, because it *is* the async client, driven on a private
    event loop.  ``timeout`` bounds every call as a whole (builtin
    ``TimeoutError``).  Not for use inside a running event loop: use
    :class:`AsyncNetClient` there.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        versions: tuple[int, ...] = (PROTOCOL_VERSION,),
    ):
        self._timeout = timeout
        self._loop = asyncio.new_event_loop()
        try:
            self._client = self._run(AsyncNetClient.connect(host, port, versions), timeout)
        except BaseException:
            self._loop.close()
            raise
        self.negotiated_version = self._client.negotiated_version
        #: In-flight window the server's WELCOME advertised (informational
        #: here: the blocking client never has more than one in flight).
        self.credit_window = self._client.credit_window
        #: Round-trip seconds of every ``submit`` call (the async client's list).
        self.rtts_s = self._client.rtts_s

    def _run(self, call: Coroutine, timeout: float | None) -> Any:
        """Drive one client call to completion, bounded as a whole by ``timeout``."""
        try:
            return self._loop.run_until_complete(asyncio.wait_for(call, timeout))
        except asyncio.TimeoutError as error:
            # ``submit``'s own RequestTimeoutError is a TimeoutError too (and
            # since Python 3.11 so is asyncio's): only the bare outer timeout
            # is translated, into the builtin on every Python version.
            if type(error) is not asyncio.TimeoutError:
                raise
            raise TimeoutError(f"no reply from the server within {timeout}s") from None

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
        ``timeout_s`` (default: the connection's ``timeout``) bounds this
        call client-side and raises
        :class:`~repro.flow.retry.RequestTimeoutError` when it runs out.
        A BUSY reply (shed or refused work) raises
        :class:`~repro.flow.retry.ServerBusyError` with the server's
        retry-after hint.
        """
        bound = self._timeout if timeout_s is None else timeout_s
        call = self._client.submit(tenant, kind, items, model, ciphertexts, deadline_s, bound)
        return self._run(call, None)

    def ping(self) -> float:
        """One latency echo; returns the round-trip time in seconds."""
        self._run(self._client.ping(), self._timeout)
        return self._client.ping_rtts_s[-1]

    def stats(self) -> dict[str, float]:
        """Scrape the server's metrics registry over the wire."""
        return self._run(self._client.stats(), self._timeout)

    def close(self) -> None:
        """Close the connection and the private event loop."""
        if not self._loop.is_closed():
            self._loop.run_until_complete(self._client.close())
            self._loop.close()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
