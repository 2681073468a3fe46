"""The wire protocol: versioned, length-prefixed, checksummed binary frames.

Every message between a client and the serving front-end travels in one
*frame*::

    0        4      5      6        8          12         16
    +--------+------+------+--------+----------+----------+=========+
    | magic  | ver  | type | flags  | length   | crc32    | payload |
    | "RFHE" | u8   | u8   | u16=0  | u32      | u32      | bytes   |
    +--------+------+------+--------+----------+----------+=========+

``length`` counts payload bytes only; ``crc32`` is the zlib CRC-32 of the
payload, so a flipped bit anywhere in the body is caught before the payload
is parsed.  The header is fixed-size and network byte order throughout.

Everything in this module is a pure function over ``bytes`` — framing,
message payloads and the incremental :class:`FrameDecoder` are all testable
without ever opening a socket; :mod:`repro.net.server` and
:mod:`repro.net.client` only add transport.  A decoded frame or control
payload is a named tuple, and the decoder walks each chunk it is fed from an
offset: per frame the wire pays a tuple and one payload copy.

Message types
-------------

* ``HELLO`` / ``WELCOME`` — version negotiation: the client lists every
  protocol version it speaks, the server answers with the one it picked
  (or an ``ERROR`` with :attr:`ErrorCode.UNSUPPORTED_VERSION`).
* ``SUBMIT`` / ``RESULT`` — one serving request and its outcome (payload
  codecs live in :mod:`repro.net.codec`, which reuses the bytes-level LWE
  codecs of :mod:`repro.tfhe.serialization`).
* ``ERROR`` — a typed failure reply; carries the request id it answers
  when one exists, zero otherwise.
* ``PING`` / ``PONG`` — latency echo: the pong returns the ping's nonce
  and client timestamp untouched plus the server's own clock.
* ``DRAIN`` / ``DRAINED`` — flush everything still batched (trace replay
  uses it to terminate deterministically; ``DRAINED`` confirms all results
  are out).
* ``STATS`` / ``STATS_REPLY`` — scrape the server's unified metrics
  registry over the wire: the reply carries the flat
  ``{name: value}`` snapshot of
  :meth:`repro.serve.Server.metrics` as canonical JSON (sorted keys,
  compact separators), byte-reproducible for identical counter states.
* ``BUSY`` — the overload reply: the server is past capacity (admission
  rejected the submission, or the connection exhausted its credit
  window) and will not queue the request; carries the refused request id,
  a deterministic retry-after hint and a human-readable reason.  A BUSY
  is frame-local — the connection keeps serving.
"""

from __future__ import annotations

import enum
import json
import math
import struct
import zlib
from typing import NamedTuple

#: Leading bytes of every frame.
MAGIC = b"RFHE"

#: The protocol version this tree speaks.
PROTOCOL_VERSION = 1

#: Versions the server accepts (today a singleton; the HELLO/WELCOME
#: exchange exists so a future version 2 can coexist with 1).
SUPPORTED_VERSIONS = frozenset({PROTOCOL_VERSION})

#: Hard cap on payload size: a declared length past this is treated as a
#: corrupt header (desynchronized stream), not an allocation request.
MAX_PAYLOAD_BYTES = 16 * 1024 * 1024

#: Frame header: magic, version, message type, reserved flags, payload
#: length, payload CRC-32.
HEADER = struct.Struct("!4sBBHII")
_U16 = struct.Struct("!H")


class MessageType(enum.IntEnum):
    """Wire identifiers of every message the protocol speaks."""

    HELLO = 1
    WELCOME = 2
    SUBMIT = 3
    RESULT = 4
    ERROR = 5
    PING = 6
    PONG = 7
    DRAIN = 8
    DRAINED = 9
    STATS = 10
    STATS_REPLY = 11
    BUSY = 12


class ErrorCode(enum.IntEnum):
    """Typed failure classes an ``ERROR`` frame carries."""

    BAD_MAGIC = 1
    BAD_CHECKSUM = 2
    TRUNCATED = 3
    UNSUPPORTED_VERSION = 4
    UNKNOWN_TYPE = 5
    BAD_MESSAGE = 6
    FRAME_TOO_LARGE = 7
    SERVER_ERROR = 8
    DEADLINE_EXCEEDED = 9


class ProtocolError(Exception):
    """A transport-level defect in the byte stream.

    ``fatal`` distinguishes defects that desynchronize the stream (wrong
    magic, an unbelievable length — nothing after them can be trusted) from
    frame-local ones (a checksum miss, an unsupported version — the frame
    boundary is still known, so the connection keeps going).
    """

    def __init__(self, code: ErrorCode, message: str, fatal: bool = False):
        super().__init__(message)
        self.code = code
        self.message = message
        self.fatal = fatal


class Frame(NamedTuple):
    """One decoded frame: its protocol version, message type and payload."""

    version: int
    msg_type: int
    payload: bytes

    @property
    def type_name(self) -> str:
        """Readable message-type name (``type-N`` for unknown types)."""
        try:
            return MessageType(self.msg_type).name
        except ValueError:
            return f"type-{self.msg_type}"


def encode_frame(
    msg_type: int, payload: bytes = b"", version: int = PROTOCOL_VERSION
) -> bytes:
    """Encode one frame (header + payload) ready for the wire."""
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ValueError(
            f"payload of {len(payload)} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte frame cap"
        )
    header = HEADER.pack(MAGIC, version, int(msg_type), 0, len(payload), zlib.crc32(payload))
    return header + payload


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    Feed it whatever chunks the transport delivers; it yields
    :class:`Frame` objects and :class:`ProtocolError` *values* (returned,
    not raised — the server answers each with a typed ``ERROR`` reply).
    After a fatal error the decoder refuses further input: the stream has
    lost frame alignment and every later byte would be misparsed.

    One :meth:`feed` parses every complete frame in the buffer from a
    running offset, copies each payload once and trims the buffer once.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.dead = False

    def feed(self, data: bytes) -> list[Frame | ProtocolError]:
        """Consume one chunk; return every frame or defect it completes."""
        events: list[Frame | ProtocolError] = []
        if self.dead:
            return events
        buffer = self._buffer
        buffer += data
        view = memoryview(buffer)
        end = len(buffer)
        offset = 0
        while end - offset >= HEADER.size:
            magic, version, msg_type, _flags, length, crc = HEADER.unpack_from(view, offset)
            if magic != MAGIC:
                self.dead = True
                message = f"bad frame magic {bytes(magic)!r}; stream is desynchronized"
                events.append(ProtocolError(ErrorCode.BAD_MAGIC, message, fatal=True))
                break
            if length > MAX_PAYLOAD_BYTES:
                self.dead = True
                cap = MAX_PAYLOAD_BYTES
                message = f"declared payload of {length} bytes exceeds the {cap}-byte cap"
                events.append(ProtocolError(ErrorCode.FRAME_TOO_LARGE, message, fatal=True))
                break
            start = offset + HEADER.size
            if end - start < length:
                break
            offset = start + length
            payload = view[start:offset].tobytes()
            if version not in SUPPORTED_VERSIONS:
                supported = sorted(SUPPORTED_VERSIONS)
                message = f"protocol version {version} is not supported (supported: {supported})"
                events.append(ProtocolError(ErrorCode.UNSUPPORTED_VERSION, message))
            elif (actual := zlib.crc32(payload)) != crc:
                message = f"payload checksum {actual:#010x} does not match the header's {crc:#010x}"
                events.append(ProtocolError(ErrorCode.BAD_CHECKSUM, message))
            else:
                events.append(Frame(version, msg_type, payload))
        view.release()  # a bytearray cannot shrink while a view holds it
        del buffer[:offset]
        return events

    def at_eof(self) -> ProtocolError | None:
        """Call when the stream ends: a partial frame left over is truncation."""
        if not self.dead and self._buffer:
            return ProtocolError(
                ErrorCode.TRUNCATED,
                f"stream ended with {len(self._buffer)} bytes of an unfinished frame",
            )
        return None


# -- DRAIN / DRAINED / STATS: no payload ------------------------------------------


def decode_empty(payload: bytes, name: str) -> None:
    """Check the payload of a ``name`` message, which carries none."""
    if payload:
        raise ValueError(f"{name} payload must be empty, got {len(payload)} bytes")


# -- STATS / STATS_REPLY ----------------------------------------------------------


def encode_stats(snapshot: dict) -> bytes:
    """STATS_REPLY payload: a flat metrics snapshot as canonical JSON.

    Sorted keys and compact separators make the encoding a pure function
    of the snapshot, so identical counter states produce identical bytes
    (and identical CRCs) — the property the scrape-equality test pins.
    """
    return json.dumps(
        snapshot, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def decode_stats(payload: bytes) -> dict:
    """Decode a ``STATS_REPLY`` payload back into the snapshot dict."""
    try:
        snapshot = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        raise ValueError(f"STATS_REPLY payload is not valid JSON: {error}") from None
    if not isinstance(snapshot, dict):
        raise ValueError(
            f"STATS_REPLY payload must be a JSON object, got {type(snapshot).__name__}"
        )
    return snapshot


# -- string packing (shared by the payload codecs) -------------------------------


def pack_str(text: str) -> bytes:
    """Length-prefixed UTF-8: u16 byte count + bytes."""
    encoded = text.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ValueError("string field exceeds 65535 encoded bytes")
    return _U16.pack(len(encoded)) + encoded


def unpack_str(payload: bytes, offset: int) -> tuple[str, int]:
    """Decode one :func:`pack_str` field; returns ``(text, next_offset)``."""
    if len(payload) < offset + 2:
        raise ValueError("string field is truncated before its length prefix")
    (length,) = _U16.unpack_from(payload, offset)
    offset += 2
    end = offset + length
    if len(payload) < end:
        raise ValueError("string field is truncated inside its bytes")
    return payload[offset:end].decode("utf-8"), end


# -- HELLO / WELCOME --------------------------------------------------------------


def encode_hello(versions: frozenset[int] | tuple[int, ...] = (PROTOCOL_VERSION,)) -> bytes:
    """HELLO payload: every protocol version the client speaks."""
    ordered = sorted(set(int(version) for version in versions))
    if not ordered:
        raise ValueError("a HELLO must offer at least one version")
    return struct.pack("!B" + "B" * len(ordered), len(ordered), *ordered)


def decode_hello(payload: bytes) -> tuple[int, ...]:
    """Versions offered by a HELLO payload."""
    if len(payload) < 1:
        raise ValueError("HELLO payload is empty")
    count = payload[0]
    if not count:
        raise ValueError("a HELLO must offer at least one version")
    if len(payload) != 1 + count:
        raise ValueError(f"HELLO declares {count} versions but carries {len(payload) - 1}")
    return tuple(payload[1 : 1 + count])


class Welcome(NamedTuple):
    """Decoded ``WELCOME`` payload.

    ``credit_window`` is the per-connection in-flight request window the
    server grants (credit-based flow control), or ``None`` when the server
    does not limit in-flight work — the historical one-byte WELCOME.
    """

    version: int
    credit_window: int | None = None


def encode_welcome(
    version: int = PROTOCOL_VERSION, credit_window: int | None = None
) -> bytes:
    """WELCOME payload: the version the server picked, plus the optional
    per-connection credit window.

    Without a window the payload stays the historical single version byte
    — byte-identical frames for servers that do not flow-control.
    """
    if credit_window is None:
        return struct.pack("!B", version)
    if not 1 <= credit_window <= 0xFFFF:
        raise ValueError("credit window must be in [1, 65535]")
    return struct.pack("!BH", version, credit_window)


def decode_welcome(payload: bytes) -> Welcome:
    """Decode a ``WELCOME`` payload (with or without a credit window)."""
    if len(payload) == 1:
        return Welcome(version=payload[0])
    if len(payload) == 3:
        version, credit_window = struct.unpack("!BH", payload)
        if credit_window == 0:
            raise ValueError("WELCOME credit window cannot be zero")
        return Welcome(version=version, credit_window=credit_window)
    raise ValueError(
        "WELCOME payload must be one version byte or version + u16 credit window"
    )


def negotiate_version(offered: tuple[int, ...]) -> int | None:
    """Highest mutually supported version, or ``None`` when there is none."""
    common = set(offered) & SUPPORTED_VERSIONS
    return max(common) if common else None


# -- ERROR ------------------------------------------------------------------------


class ErrorReply(NamedTuple):
    """Decoded ``ERROR`` payload."""

    code: int
    request_id: int
    message: str

    @property
    def code_name(self) -> str:
        """Readable error-code name (``code-N`` for unknown codes)."""
        try:
            return ErrorCode(self.code).name
        except ValueError:
            return f"code-{self.code}"


def encode_error(code: int, message: str, request_id: int = 0) -> bytes:
    """ERROR payload: typed code, answered request id (0 = none), text."""
    return struct.pack("!HQ", int(code), request_id) + pack_str(message)


def decode_error(payload: bytes) -> ErrorReply:
    """Decode an ``ERROR`` payload."""
    if len(payload) < 10:
        raise ValueError("ERROR payload is truncated before its fixed fields end")
    code, request_id = struct.unpack_from("!HQ", payload, 0)
    message, offset = unpack_str(payload, 10)
    if offset != len(payload):
        raise ValueError(f"ERROR payload has {len(payload) - offset} trailing bytes")
    return ErrorReply(code=code, request_id=request_id, message=message)


# -- BUSY -------------------------------------------------------------------------


class BusyReply(NamedTuple):
    """Decoded ``BUSY`` payload: the server refused to queue a request.

    ``retry_after_s`` is the server's deterministic backoff hint — a pure
    function of its queue state, so a replayed overload run produces
    bit-for-bit identical hints.
    """

    request_id: int
    retry_after_s: float
    reason: str


_BUSY = struct.Struct("!Qd")


def encode_busy(request_id: int, retry_after_s: float, reason: str) -> bytes:
    """BUSY payload: refused request id, retry-after hint, reason text."""
    if not 0.0 <= retry_after_s < math.inf:
        raise ValueError(f"retry-after hint {retry_after_s} is negative or not finite")
    return _BUSY.pack(request_id, retry_after_s) + pack_str(reason)


def decode_busy(payload: bytes) -> BusyReply:
    """Decode a ``BUSY`` payload."""
    if len(payload) < _BUSY.size:
        raise ValueError("BUSY payload is truncated before its fixed fields end")
    request_id, retry_after_s = _BUSY.unpack_from(payload, 0)
    if not 0.0 <= retry_after_s < math.inf:  # honouring it could mean waiting forever
        raise ValueError(f"BUSY retry-after hint {retry_after_s} is negative or not finite")
    reason, offset = unpack_str(payload, _BUSY.size)
    if offset != len(payload):
        raise ValueError(f"BUSY payload has {len(payload) - offset} trailing bytes")
    return BusyReply(request_id, retry_after_s, reason)


# -- PING / PONG ------------------------------------------------------------------


class Pong(NamedTuple):
    """Decoded ``PONG`` payload: the echo plus the server's clock."""

    nonce: int
    client_s: float
    server_s: float


_PING = struct.Struct("!Qd")
_PONG = struct.Struct("!Qdd")


def encode_ping(nonce: int, client_s: float) -> bytes:
    """PING payload: an opaque nonce and the client's send timestamp."""
    return _PING.pack(nonce, client_s)


def decode_ping(payload: bytes) -> tuple[int, float]:
    """Decode a ``PING`` payload into ``(nonce, client_s)``."""
    if len(payload) != _PING.size:
        raise ValueError(f"PING payload must be {_PING.size} bytes, got {len(payload)}")
    return _PING.unpack(payload)


def encode_pong(nonce: int, client_s: float, server_s: float) -> bytes:
    """PONG payload: the ping echoed back plus the server's own clock."""
    return _PONG.pack(nonce, client_s, server_s)


def decode_pong(payload: bytes) -> Pong:
    """Decode a ``PONG`` payload."""
    if len(payload) != _PONG.size:
        raise ValueError(f"PONG payload must be {_PONG.size} bytes, got {len(payload)}")
    return Pong(*_PONG.unpack(payload))
