"""The asyncio TCP front-end: :class:`NetServer` turns the serving layer into a server.

One :class:`NetServer` owns one :class:`repro.serve.Server` and exposes it
over real sockets speaking the :mod:`repro.net.protocol` frame format.  Two
modes:

* ``mode="live"`` — the online path: every ``SUBMIT`` goes through
  :meth:`repro.serve.Server.submit_async`, so arrivals are stamped on the
  wall clock, batches flush on real deadlines, and each connection receives
  its ``RESULT`` frames as its batches complete.  This is what a deployment
  looks like: N concurrent connections feeding one adaptive batcher.
* ``mode="replay"`` — the deterministic path: ``SUBMIT`` frames carry trace
  timestamps and each is one :meth:`~repro.serve.server.ServingRun.offer`
  to a run on the simulated clock — the very engine the in-process
  :meth:`~repro.serve.Server.simulate` drives, so a recorded trace pushed
  through the socket produces *bit-for-bit* its outcomes — the equality the
  test suite enforces.  ``DRAIN`` flushes everything still batched and
  answers ``DRAINED`` when the last ``RESULT`` is out.

Error handling is connection-scoped and typed: a corrupted checksum, an
unsupported protocol version, an unknown message type or a malformed payload
each earn an ``ERROR`` reply naming its :class:`~repro.net.protocol.ErrorCode`
— and the server keeps serving.  Only defects that desynchronize the byte
stream (bad magic, an unbelievable length, a frame cut off by EOF) close
that one connection, after a final ``ERROR`` so the client knows why.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from typing import Any

from repro.flow.control import DeadlineExceededError, RequestRejectedError
from repro.net import codec, protocol
from repro.net.protocol import ErrorCode, Frame, FrameDecoder, MessageType, ProtocolError
from repro.serve.server import ServeReport, Server, ServingRun

#: Bytes per read of the per-connection read loop.
_READ_CHUNK = 64 * 1024


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
        snapshot = {
            "connections": self.connections,
            "frames_received": self.frames_received,
            "frames_sent": self.frames_sent,
            "bytes_received": self.bytes_received,
            "bytes_sent": self.bytes_sent,
            "errors_sent": self.errors_sent,
        }
        if self.busy_sent:
            snapshot["busy_sent"] = self.busy_sent
        return snapshot


class _Connection:
    """Per-connection state: decoder, write lock, liveness, credits."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.decoder = FrameDecoder()
        self.lock = asyncio.Lock()
        self.closing = False
        #: Live-mode submissions accepted but not yet answered (credit-based
        #: flow control counts replies out against the WELCOME's window).
        self.inflight = 0


class NetServer:
    """Serve one :class:`repro.serve.Server` over loopback (or any) TCP.

    Usage::

        async with NetServer(Server(devices=4), mode="live") as net:
            host, port = net.address
            ...  # connect clients

    ``start``/``aclose`` are also usable directly.  After close,
    :attr:`last_report` holds the serving report of everything the socket
    carried — the async report in live mode, the deterministic replay
    report in replay mode — with :attr:`ServeReport.wire` filled in from
    the transport counters.
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
        self.mode = mode
        #: Per-connection in-flight window advertised in WELCOME; enforced
        #: on the live path (a SUBMIT past it earns an immediate BUSY).
        #: ``None`` keeps the historical one-byte WELCOME and no limit.
        self.credit_window = credit_window
        self.label = label if label is not None else f"net-{mode}"
        self._host = host
        self._port = port
        self._listener: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._submit_tasks: set[asyncio.Task] = set()
        self._epoch = 0.0
        #: The serving run behind the socket, in either mode (``None``
        #: before :meth:`start` and after :meth:`aclose`).
        self._run: ServingRun | None = None
        #: Replay request id -> the connection that submitted it.  A later
        #: connection's offer can release another connection's outcomes
        #: (or shed its queued work); replies must reach the submitter,
        #: not whoever's offer triggered them.  Entries are forgotten as
        #: they are answered.
        self._replay_owners: dict[int, _Connection] = {}
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
        if self.mode == "live":
            await self.server.__aenter__()
            self._run = self.server.active_run
        else:
            self._run = self.server.begin_run(self.label)
        self._listener = await asyncio.start_server(self._on_connection, self._host, self._port)
        return self.address

    async def __aenter__(self) -> "NetServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Graceful shutdown: stop accepting, drain, answer, disconnect."""
        if self._listener is None:
            return
        self._listener.close()
        await self._listener.wait_closed()
        self._listener = None
        if self.mode == "live":
            # Closing the async context drains the batcher, which resolves
            # every pending submission future; the per-submit tasks then
            # write their RESULT frames before we cut the connections.
            await self.server.aclose()
            if self._submit_tasks:
                await asyncio.gather(*list(self._submit_tasks), return_exceptions=True)
            base = self.server.last_async_report
            if base is not None:
                wire = {**base.wire, **self.stats.to_dict()}
                self.last_report = replace(base, label=self.label, wire=wire)
        else:
            self.last_report = self._run.finish(wire=self.stats.to_dict())
        self._run = None
        for connection in list(self._connections):
            connection.closing = True
            connection.writer.close()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
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
                if not data:
                    defect = connection.decoder.at_eof()
                    if defect is not None:
                        # The write half usually survives a client's
                        # write-side EOF, so the truncation still gets its
                        # typed reply before the connection goes away.
                        await self._send_error(connection, defect)
                    break
                self.stats.bytes_received += len(data)
                for event in connection.decoder.feed(data):
                    if isinstance(event, ProtocolError):
                        await self._send_error(connection, event)
                        if event.fatal:
                            return
                    else:
                        self.stats.frames_received += 1
                        await self._handle_frame(connection, event)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(connection)
            connection.writer.close()
            try:
                await connection.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- frame dispatch ----------------------------------------------------------

    async def _handle_frame(self, connection: _Connection, frame: Frame) -> None:
        try:
            msg_type = MessageType(frame.msg_type)
        except ValueError:
            await self._send_error(
                connection,
                ProtocolError(
                    ErrorCode.UNKNOWN_TYPE,
                    f"unknown message type {frame.msg_type}",
                ),
            )
            return
        try:
            if msg_type is MessageType.HELLO:
                await self._handle_hello(connection, frame)
            elif msg_type is MessageType.PING:
                await self._handle_ping(connection, frame)
            elif msg_type is MessageType.SUBMIT:
                await self._handle_submit(connection, frame)
            elif msg_type is MessageType.DRAIN:
                await self._handle_drain(connection)
            elif msg_type is MessageType.STATS:
                await self._handle_stats(connection)
            else:
                await self._send_error(
                    connection,
                    ProtocolError(
                        ErrorCode.UNKNOWN_TYPE,
                        f"{msg_type.name} frames are not valid client->server messages",
                    ),
                )
        except (ValueError, KeyError) as error:
            # KeyError covers unknown Deep-NN model names from the PBS cost
            # lookup; both are the client's mistake, not the server's.
            await self._send_error(connection, ProtocolError(ErrorCode.BAD_MESSAGE, str(error)))

    async def _handle_hello(self, connection: _Connection, frame: Frame) -> None:
        offered = protocol.decode_hello(frame.payload)
        version = protocol.negotiate_version(offered)
        if version is None:
            await self._send_error(
                connection,
                ProtocolError(
                    ErrorCode.UNSUPPORTED_VERSION,
                    f"no common protocol version (client offered {sorted(offered)}, "
                    f"server supports {sorted(protocol.SUPPORTED_VERSIONS)})",
                ),
            )
            return
        await self._send(
            connection,
            MessageType.WELCOME,
            protocol.encode_welcome(version, credit_window=self.credit_window),
        )

    async def _handle_ping(self, connection: _Connection, frame: Frame) -> None:
        nonce, client_s = protocol.decode_ping(frame.payload)
        server_s = asyncio.get_running_loop().time() - self._epoch
        await self._send(
            connection, MessageType.PONG, protocol.encode_pong(nonce, client_s, server_s)
        )

    async def _handle_submit(self, connection: _Connection, frame: Frame) -> None:
        message = codec.decode_submit(frame.payload)
        try:
            # Validate the attached LWE batch (if any) before accepting the work.
            message.decode_ciphertexts(self.server.params)
            if self.mode == "replay":
                if message.arrival_s is None:
                    raise ValueError("replay-mode SUBMIT frames must carry a trace timestamp")
                self._run.offer(message.to_request())
                self._replay_owners[message.request_id] = connection
        except RequestRejectedError as rejected:
            await self._send_failure(connection, message.request_id, rejected)
        except (ValueError, KeyError) as error:
            # A corrupt or params-mismatched attachment, an unknown kind or
            # model, an arrival missing or out of order: this request's
            # mistake, answered under its id (an id-0 ERROR would fail every
            # other request pending on the connection) — and before it has
            # an owner entry to leak.
            defect = ProtocolError(ErrorCode.BAD_MESSAGE, str(error))
            await self._send_error(connection, defect, request_id=message.request_id)
            return
        if self.mode == "replay":
            await self._answer_resolved(connection)
        else:
            if (
                self.credit_window is not None
                and connection.inflight >= self.credit_window
            ):
                # The connection spent its whole advertised window; answer
                # immediately with a deterministic retry hint instead of
                # queueing past capacity.
                await self._send_busy(
                    connection,
                    message.request_id,
                    self._run.retry_after_s(),
                    f"in-flight window of {self.credit_window} is exhausted",
                )
                return
            connection.inflight += 1
            task = asyncio.get_running_loop().create_task(self._submit_live(connection, message))
            self._submit_tasks.add(task)
            task.add_done_callback(self._submit_tasks.discard)

    async def _submit_live(self, connection: _Connection, message: codec.SubmitMessage) -> None:
        try:
            outcome = await self.server.submit_async(
                message.tenant,
                message.kind,
                message.items,
                model=message.model,
                deadline_s=message.deadline_s,
            )
        except Exception as error:  # noqa: BLE001 - surfaced as a typed reply
            connection.inflight -= 1
            await self._send_failure(connection, message.request_id, error)
            return
        # Decrement before computing the piggy-backed credit count so the
        # RESULT advertises the capacity this very reply just freed.
        connection.inflight -= 1
        credits = None
        if self.credit_window is not None:
            credits = max(self.credit_window - connection.inflight, 0)
        await self._send_result(connection, message.request_id, outcome, credits=credits)

    async def _handle_drain(self, connection: _Connection) -> None:
        if self.mode == "replay":
            self._run.drain()
            await self._answer_resolved(connection)
        await self._send(connection, MessageType.DRAINED, b"")

    async def _handle_stats(self, connection: _Connection) -> None:
        """Scrape the serving registry (including this transport's view).

        When the server runs under a fault schedule the snapshot carries
        the ``serve_faults_*`` gauges (deaths applied, requests lost /
        retried, throttle seconds...), so a remote scraper sees degraded-
        mode state without a new frame type; fault-free servers emit no
        such gauges and the STATS payload is unchanged.
        """
        snapshot = self.server.metrics()
        self.last_stats = snapshot
        await self._send(connection, MessageType.STATS_REPLY, protocol.encode_stats(snapshot))

    # -- replies -----------------------------------------------------------------

    async def _answer_resolved(self, connection: _Connection) -> None:
        """Answer everything the replay step just resolved or dropped.

        Outcomes earn their RESULT; a dropped request earns the reply its
        typed error maps to (:meth:`_send_failure`), so a client never
        hangs on work that will not produce a RESULT.  Each reply goes to
        the request's owner in ``_replay_owners``; an id nobody submitted
        here (there are none today) falls back to ``connection`` rather
        than crash the read loop.
        """
        outcomes, drops = self._run.resolved()
        for outcome in outcomes:
            request_id = outcome.request.request_id
            owner = self._replay_owners.pop(request_id, connection)
            await self._send_result(owner, request_id, outcome)
        for request, error in drops:
            owner = self._replay_owners.pop(request.request_id, connection)
            await self._send_failure(owner, request.request_id, error)

    async def _send_failure(
        self, connection: _Connection, request_id: int, error: Exception
    ) -> None:
        """The typed reply for a request that ends without a RESULT — one
        vocabulary across both modes: rejected or shed work earns a BUSY
        carrying the retry hint, expired work a DEADLINE_EXCEEDED error,
        anything else (work lost to a device fault, a serving crash) a
        SERVER_ERROR."""
        if isinstance(error, RequestRejectedError):
            await self._send_busy(connection, request_id, error.retry_after_s, str(error))
            return
        expired = isinstance(error, DeadlineExceededError)
        code = ErrorCode.DEADLINE_EXCEEDED if expired else ErrorCode.SERVER_ERROR
        await self._send_error(connection, ProtocolError(code, str(error)), request_id=request_id)

    async def _send_busy(
        self, connection: _Connection, request_id: int, retry_after_s: float, reason: str
    ) -> None:
        self.stats.busy_sent += 1
        self.server.flow.note_busy_reply()
        await self._send(
            connection,
            MessageType.BUSY,
            protocol.encode_busy(request_id, retry_after_s, reason),
        )

    async def _send_result(
        self,
        connection: _Connection,
        request_id: int,
        outcome,
        credits: int | None = None,
    ) -> None:
        payload = codec.encode_result(
            request_id,
            outcome.batch_id,
            outcome.device,
            outcome.request.arrival_s,
            outcome.dispatched_s,
            outcome.completed_s,
            credits=credits,
        )
        await self._send(connection, MessageType.RESULT, payload)
        tracer = self.server.tracer
        if tracer is not None:
            # Keyed on the *server-side* request id (live-mode clients
            # number their own); replay stamps the simulated completion so
            # deterministic traces keep deterministic spans, live stamps
            # the wall clock the rest of the async span already uses.
            reply_s = outcome.completed_s if self.mode == "replay" else self._run.now()
            tracer.on_reply(outcome.request.request_id, reply_s)

    async def _send_error(
        self, connection: _Connection, defect: ProtocolError, request_id: int = 0
    ) -> None:
        payload = protocol.encode_error(defect.code, defect.message, request_id)
        self.stats.errors_sent += 1
        await self._send(connection, MessageType.ERROR, payload)

    async def _send(self, connection: _Connection, msg_type: MessageType, payload: bytes) -> None:
        if connection.closing:
            return
        data = protocol.encode_frame(msg_type, payload)
        try:
            async with connection.lock:
                connection.writer.write(data)
                await connection.writer.drain()
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            connection.closing = True
            return
        self.stats.frames_sent += 1
        self.stats.bytes_sent += len(data)
