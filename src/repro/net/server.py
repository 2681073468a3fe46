"""The asyncio TCP front-end: :class:`NetServer` turns the serving layer into a server.

One :class:`NetServer` owns one :class:`repro.serve.Server` and exposes it
over real sockets speaking the :mod:`repro.net.protocol` frame format.  Every
``SUBMIT`` is one :meth:`~repro.serve.server.ServingRun.offer` to the
server's run, and every reply is what
:meth:`~repro.serve.server.ServingRun.resolved` hands back: one answer path,
one owner table (server-side request id -> connection and the client's own
id), one credit window.  The mode only picks the run's clock:

* ``mode="live"`` — the wall clock: the server numbers each arrival and
  stamps it with the event loop's time, and the run's timer flushes batches
  on real deadlines.  This is what a deployment looks like: N concurrent
  connections feeding one adaptive batcher.
* ``mode="replay"`` — the simulated clock: ``SUBMIT`` frames carry trace
  timestamps and ids, so the run is the very engine the in-process
  :meth:`~repro.serve.Server.simulate` drives and a recorded trace pushed
  through the socket produces *bit-for-bit* its outcomes — the equality the
  test suite enforces.

``DRAIN`` flushes everything still batched and answers ``DRAINED`` when the
last reply is out.  Replies are written without waiting; a connection's read
loop drains its writer after each chunk it handles, so a client that stops
reading stops being read, and one that leaves more than
:data:`_WRITE_BUFFER_LIMIT` bytes of replies unread is aborted.  Every other
close — a fatal defect, truncation at EOF, :meth:`NetServer.aclose` — is a
graceful one: the replies already written, a final ``ERROR`` included, go
out first.

Error handling is connection-scoped and typed: a corrupted checksum, an
unsupported protocol version, an unknown message type or a malformed payload
each earn an ``ERROR`` reply naming its :class:`~repro.net.protocol.ErrorCode`
— and the server keeps serving.  Only defects that desynchronize the byte
stream (bad magic, an unbelievable length, a frame cut off by EOF) close
that one connection, after a final ``ERROR`` so the client knows why.
"""

from __future__ import annotations

import asyncio
from contextlib import suppress
from dataclasses import asdict, dataclass
from typing import Any

from repro.flow.control import DeadlineExceededError, RequestRejectedError
from repro.net import codec, protocol
from repro.net.protocol import ErrorCode, Frame, FrameDecoder, MessageType, ProtocolError
from repro.serve.request import Request
from repro.serve.server import ServeReport, Server, ServingRun

#: Bytes per read of the per-connection read loop.
_READ_CHUNK = 64 * 1024

#: A connection whose transport holds more unsent reply bytes than this is
#: aborted: its peer has stopped reading.
_WRITE_BUFFER_LIMIT = 16 * _READ_CHUNK

#: Seconds :meth:`NetServer.aclose` lets the connections flush the replies
#: they are still owed before it aborts the ones whose peers are not reading.
_CLOSE_GRACE_S = 1.0


@dataclass
class WireStats:
    """Transport counters one :class:`NetServer` accumulates."""

    connections: int = 0
    frames_received: int = 0
    frames_sent: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    errors_sent: int = 0
    busy_sent: int = 0

    def to_dict(self) -> dict[str, int]:
        """JSON-friendly snapshot (merged into :attr:`ServeReport.wire`).

        ``busy_sent`` only appears once a BUSY reply has actually gone out,
        so overload-free runs keep their historical wire dict unchanged.
        """
        snapshot = asdict(self)
        if not self.busy_sent:
            del snapshot["busy_sent"]
        return snapshot


class _Connection:
    """Per-connection state: decoder, liveness, credits."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.decoder = FrameDecoder()
        self.closing = False
        #: Submissions accepted but not yet answered (credit-based flow
        #: control counts replies out against the WELCOME's window).
        self.inflight = 0


class NetServer:
    """Serve one :class:`repro.serve.Server` over loopback (or any) TCP.

    Usage::

        async with NetServer(Server(devices=4), mode="live") as net:
            host, port = net.address
            ...  # connect clients

    ``start``/``aclose`` are also usable directly.  After close,
    :attr:`last_report` holds the serving report of everything the socket
    carried, with :attr:`ServeReport.wire` filled in from the transport
    counters.
    """

    def __init__(
        self,
        server: Server | None = None,
        mode: str = "live",
        host: str = "127.0.0.1",
        port: int = 0,
        label: str | None = None,
        credit_window: int | None = None,
        **server_options: Any,
    ):
        if mode not in ("live", "replay"):
            raise ValueError(f"unknown NetServer mode {mode!r}; choose 'live' or 'replay'")
        if server is not None and server_options:
            raise ValueError("pass either a Server instance or ServeConfig overrides, not both")
        if credit_window is not None and not 1 <= credit_window <= 0xFFFF:
            raise ValueError("credit window must be in [1, 65535]")
        self.server = server if server is not None else Server(**server_options)
        self._wall_clock = mode == "live"
        #: Per-connection in-flight window advertised in WELCOME (a SUBMIT
        #: past it earns an immediate BUSY).  ``None`` keeps the historical
        #: one-byte WELCOME and no limit.
        self.credit_window = credit_window
        self.label = label if label is not None else f"net-{mode}"
        self._host = host
        self._port = port
        self._listener: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._epoch = 0.0
        #: The serving run behind the socket (``None`` before :meth:`start`
        #: and after :meth:`aclose`).
        self._run: ServingRun | None = None
        #: Server-side request id -> (the connection that submitted it, the
        #: id it used on the wire).  One connection's offer can release
        #: another's outcomes (or shed its queued work); replies must reach
        #: the submitter, not whoever's offer triggered them.  Entries are
        #: forgotten as they are answered.
        self._owners: dict[int, tuple[_Connection, int]] = {}
        self.stats = WireStats()
        #: Serving report of the last completed serve (set by :meth:`aclose`).
        self.last_report: ServeReport | None = None
        #: Snapshot served by the most recent STATS scrape — stashed *before*
        #: the reply frame is counted, so a test can compare the scraped dict
        #: against exactly what the registry held at scrape time.
        self.last_stats: dict[str, float] | None = None
        # The transport's counters join the serving registry as a live view
        # (re-registering replaces an earlier NetServer's view on the same
        # Server), so a STATS scrape sees wire traffic next to serving state.
        self.server.registry.register_view(
            "wire", self.stats.to_dict, "Transport frame/byte counters"
        )

    # -- lifecycle ---------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the listener is bound to (after :meth:`start`)."""
        if self._listener is None:
            raise RuntimeError("the server is not started")
        return self._listener.sockets[0].getsockname()[:2]

    async def start(self) -> tuple[str, int]:
        """Bind, start accepting, and arm the serving core; returns the address."""
        if self._listener is not None:
            raise RuntimeError("the server is already started")
        loop = asyncio.get_running_loop()
        self._epoch = loop.time()
        self._run = ServingRun(self.server, self.label, clock=loop if self._wall_clock else None)
        self._run.on_flush = self._answer_resolved
        self._listener = await asyncio.start_server(self._on_connection, self._host, self._port)
        return self.address

    async def __aenter__(self) -> "NetServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Graceful shutdown: stop accepting, drain, answer, disconnect.

        A connection closes once its peer has read every reply it is owed;
        one still holding unsent replies after :data:`_CLOSE_GRACE_S` is
        aborted.
        """
        if self._listener is None:
            return
        self._listener.close()
        await self._listener.wait_closed()
        self._listener = None
        # Everything still batched is answered before the connections go.
        self._run.drain()
        self._answer_resolved(self._run)
        self.last_report = self._run.finish(wire=self.stats.to_dict())
        self._run = None
        for connection in list(self._connections):
            connection.closing = True
            connection.writer.close()  # once what it was written is out
        if self._conn_tasks:
            _, stuck = await asyncio.wait(list(self._conn_tasks), timeout=_CLOSE_GRACE_S)
            if stuck:
                for connection in list(self._connections):
                    connection.writer.transport.abort()
                await asyncio.gather(*stuck, return_exceptions=True)
        self._connections.clear()

    # -- connection handling -----------------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer)
        self._connections.add(connection)
        self.stats.connections += 1
        task = asyncio.get_running_loop().create_task(self._read_loop(reader, connection))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _read_loop(self, reader: asyncio.StreamReader, connection: _Connection) -> None:
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if connection.closing:  # hung up (or the server closed): nothing more is read
                    break
                if not data:
                    defect = connection.decoder.at_eof()
                    if defect is not None:
                        # The write half usually survives a client's
                        # write-side EOF, so the truncation still gets its
                        # typed reply before the connection goes away.
                        self._send_error(connection, defect)
                    break
                self.stats.bytes_received += len(data)
                for event in connection.decoder.feed(data):
                    if connection.closing:  # aborted by a reply: the rest goes unhandled
                        break
                    if isinstance(event, ProtocolError):
                        self._send_error(connection, event)
                        if event.fatal:
                            return
                    else:
                        self.stats.frames_received += 1
                        self._handle_frame(connection, event)
                await connection.writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            connection.closing = True  # replies still owed to it go nowhere
            connection.writer.close()  # after the ones already written, a final ERROR included
            with suppress(ConnectionResetError, BrokenPipeError):
                await connection.writer.wait_closed()
            self._connections.discard(connection)

    # -- frame dispatch ----------------------------------------------------------

    def _handle_frame(self, connection: _Connection, frame: Frame) -> None:
        handler = self._HANDLERS.get(frame.msg_type)
        if handler is None:
            message = f"{frame.type_name} frames are not valid client->server messages"
            self._send_error(connection, ProtocolError(ErrorCode.UNKNOWN_TYPE, message))
            return
        try:
            handler(self, connection, frame)
        except ProtocolError as defect:
            self._send_error(connection, defect)
        except (ValueError, KeyError) as error:
            # KeyError covers unknown Deep-NN model names from the PBS cost
            # lookup; both are the client's mistake, not the server's.
            self._send_error(connection, ProtocolError(ErrorCode.BAD_MESSAGE, str(error)))

    def _handle_hello(self, connection: _Connection, frame: Frame) -> None:
        offered = protocol.decode_hello(frame.payload)
        version = protocol.negotiate_version(offered)
        if version is None:
            raise ProtocolError(
                ErrorCode.UNSUPPORTED_VERSION,
                f"no common protocol version (client offered {sorted(offered)}, "
                f"server supports {sorted(protocol.SUPPORTED_VERSIONS)})",
            )
        welcome = protocol.encode_welcome(version, credit_window=self.credit_window)
        self._send(connection, MessageType.WELCOME, welcome)

    def _handle_ping(self, connection: _Connection, frame: Frame) -> None:
        nonce, client_s = protocol.decode_ping(frame.payload)
        server_s = asyncio.get_running_loop().time() - self._epoch
        self._send(connection, MessageType.PONG, protocol.encode_pong(nonce, client_s, server_s))

    def _handle_submit(self, connection: _Connection, frame: Frame) -> None:
        message = codec.decode_submit(frame.payload)
        wire_id = message.request_id
        try:
            # Validate the attached LWE batch (if any) before accepting the work.
            message.decode_ciphertexts(self.server.params)
            request = self._request(message)
            if self.credit_window is not None and connection.inflight >= self.credit_window:
                # The connection spent its whole advertised window: a
                # deterministic retry hint instead of queueing past capacity.
                raise RequestRejectedError(
                    f"in-flight window of {self.credit_window} is exhausted",
                    retry_after_s=self._run.retry_after_s(),
                )
            self._run.offer(request)
        except (ValueError, KeyError) as error:
            # A corrupt or params-mismatched attachment, an unknown kind or
            # model, a replayed arrival missing or out of order, a replayed
            # id already in flight: this request's mistake, answered under
            # its id (an id-0 ERROR would fail every other request pending
            # on the connection) — and before it has an owner entry to leak.
            defect = ProtocolError(ErrorCode.BAD_MESSAGE, str(error))
            self._send_error(connection, defect, request_id=wire_id)
        except Exception as refused:  # noqa: BLE001 - admission, window, full queue, crash
            self._send_failure(connection, wire_id, refused)
        else:
            self._owners[request.request_id] = (connection, wire_id)
            connection.inflight += 1
        self._answer_resolved(self._run)

    def _request(self, message: codec.SubmitMessage) -> Request:
        """The request a SUBMIT stands for, on the run's clock: a live arrival
        is numbered by the server and stamped now, a replayed one keeps the
        trace's id, timestamp and absolute deadline."""
        run = self._run
        if run.clock is not None:
            fields = (message.tenant, message.kind, message.items, message.model)
            return self.server._new_request(*fields, message.deadline_s, run.now())
        if message.arrival_s is None:
            raise ValueError("replay-mode SUBMIT frames must carry a trace timestamp")
        if message.request_id in self._owners:
            raise ValueError(f"request id {message.request_id} is already in flight")
        return message.to_request()

    def _handle_drain(self, connection: _Connection, frame: Frame) -> None:
        self._run.drain()
        self._answer_resolved(self._run)
        self._send(connection, MessageType.DRAINED, b"")

    def _handle_stats(self, connection: _Connection, frame: Frame) -> None:
        """Scrape the serving registry (including this transport's view).

        When the server runs under a fault schedule the snapshot carries
        the ``serve_faults_*`` gauges (deaths applied, requests lost /
        retried, throttle seconds...), so a remote scraper sees degraded-
        mode state without a new frame type; fault-free servers emit no
        such gauges and the STATS payload is unchanged.
        """
        snapshot = self.server.metrics()
        self.last_stats = snapshot
        self._send(connection, MessageType.STATS_REPLY, protocol.encode_stats(snapshot))

    _HANDLERS = {
        MessageType.HELLO: _handle_hello,
        MessageType.PING: _handle_ping,
        MessageType.SUBMIT: _handle_submit,
        MessageType.DRAIN: _handle_drain,
        MessageType.STATS: _handle_stats,
    }

    # -- replies -----------------------------------------------------------------

    def _answer_resolved(self, run: ServingRun) -> None:
        """Answer everything the run resolved or dropped since it was last
        asked — after each frame, and (the run's ``on_flush``) after each
        flush its timer fires.

        Outcomes earn their RESULT; a dropped request earns the reply its
        typed error maps to (:meth:`_send_failure`), so a client never
        hangs on work that will not produce a RESULT.  Each reply goes to
        the request's owner, under the id the owner used; after a flush
        crash every request still owed an answer gets that crash.
        """
        outcomes, drops = run.resolved()
        for outcome in outcomes:
            self._send_result(*self._release(outcome.request.request_id), outcome)
        for request, error in drops:
            self._send_failure(*self._release(request.request_id), error)
        while run.error is not None and self._owners:
            self._send_failure(*self._release(next(iter(self._owners))), run.error)

    def _release(self, request_id: int) -> tuple[_Connection, int]:
        """Forget an answered request: its owner and wire id, one credit back."""
        connection, wire_id = self._owners.pop(request_id)
        connection.inflight -= 1
        return connection, wire_id

    def _send_failure(self, connection: _Connection, request_id: int, error: Exception) -> None:
        """The typed reply for a request that ends without a RESULT — one
        vocabulary on both clocks: rejected or shed work earns a BUSY
        carrying the retry hint, expired work a DEADLINE_EXCEEDED error,
        anything else (work lost to a device fault, a full queue, a serving
        crash) a SERVER_ERROR."""
        if isinstance(error, RequestRejectedError):
            self.stats.busy_sent += 1
            self.server.flow.note_busy_reply()
            busy = protocol.encode_busy(request_id, error.retry_after_s, str(error))
            self._send(connection, MessageType.BUSY, busy)
            return
        expired = isinstance(error, DeadlineExceededError)
        code = ErrorCode.DEADLINE_EXCEEDED if expired else ErrorCode.SERVER_ERROR
        self._send_error(connection, ProtocolError(code, str(error)), request_id=request_id)

    def _send_result(self, connection: _Connection, request_id: int, outcome) -> None:
        credits = None
        if self.credit_window is not None:
            # Released before this reply, so it advertises the capacity it frees.
            credits = max(self.credit_window - connection.inflight, 0)
        payload = codec.encode_result(
            request_id,
            outcome.batch_id,
            outcome.device,
            outcome.request.arrival_s,
            outcome.dispatched_s,
            outcome.completed_s,
            credits=credits,
        )
        self._send(connection, MessageType.RESULT, payload)
        tracer = self.server.tracer
        if tracer is not None:
            # Keyed on the *server-side* request id (live-mode clients
            # number their own); the simulated clock stamps the completion
            # so deterministic traces keep deterministic spans, the wall
            # clock stamps now, as the rest of its span does.
            run = self._run
            reply_s = outcome.completed_s if run.clock is None else run.now()
            tracer.on_reply(outcome.request.request_id, reply_s)

    def _send_error(
        self, connection: _Connection, defect: ProtocolError, request_id: int = 0
    ) -> None:
        payload = protocol.encode_error(defect.code, defect.message, request_id)
        self.stats.errors_sent += 1
        self._send(connection, MessageType.ERROR, payload)

    def _send(self, connection: _Connection, msg_type: MessageType, payload: bytes) -> None:
        if connection.closing:
            return
        data = protocol.encode_frame(msg_type, payload)
        writer = connection.writer
        writer.write(data)
        self.stats.frames_sent += 1
        self.stats.bytes_sent += len(data)
        if writer.transport.get_write_buffer_size() > _WRITE_BUFFER_LIMIT:
            # Its peer is not reading: a close would wait on it forever.
            connection.closing = True
            writer.transport.abort()
