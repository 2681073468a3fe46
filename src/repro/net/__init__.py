"""repro.net — the wire-protocol front-end that turns the serving layer into a server.

Layering, bottom up:

* :mod:`repro.net.protocol` — versioned, length-prefixed, CRC-checked binary
  frames plus the control payloads (HELLO/WELCOME, ERROR, PING/PONG,
  DRAIN/DRAINED); pure bytes, no sockets.
* :mod:`repro.net.codec` — the SUBMIT/RESULT payload codecs, reusing the
  bytes-level LWE codecs of :mod:`repro.tfhe.serialization` for encrypted
  payloads.
* :mod:`repro.net.server` — the asyncio TCP front-end wrapping
  :class:`repro.serve.Server` (live wall-clock mode and deterministic trace
  replay).
* :mod:`repro.net.client` — one client (asyncio) with per-message
  round-trip capture, and a blocking facade that runs it call by call.
* :mod:`repro.net.loadgen` — closed-loop load generation over loopback
  sockets, feeding :mod:`repro.apps.traffic` traces to a real server.

Overload protection (see :mod:`repro.flow`) is wired through every layer:
WELCOME can advertise a per-connection credit window, RESULT piggy-backs
replenished credits, a saturated server answers BUSY with a deterministic
retry-after hint, and the client turns those into typed
:class:`~repro.flow.retry.ServerBusyError` /
:class:`~repro.flow.retry.RequestTimeoutError` raises.
"""

from repro.flow.retry import RequestTimeoutError, ServerBusyError
from repro.net.client import AsyncNetClient, NetClient, NetError
from repro.net.codec import (
    ResultMessage,
    SubmitMessage,
    decode_result,
    decode_submit,
    encode_result,
    encode_submit,
    result_from_outcome,
    submit_from_request,
)
from repro.net.loadgen import (
    closed_loop,
    closed_loop_async,
    replay_trace,
    replay_trace_async,
)
from repro.net.protocol import (
    MAGIC,
    MAX_PAYLOAD_BYTES,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    BusyReply,
    ErrorCode,
    ErrorReply,
    Frame,
    FrameDecoder,
    MessageType,
    Pong,
    ProtocolError,
    Welcome,
    decode_stats,
    encode_frame,
    encode_stats,
    negotiate_version,
)
from repro.net.server import NetServer, WireStats

__all__ = [
    "MAGIC",
    "MAX_PAYLOAD_BYTES",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "AsyncNetClient",
    "BusyReply",
    "ErrorCode",
    "ErrorReply",
    "Frame",
    "FrameDecoder",
    "MessageType",
    "NetClient",
    "NetError",
    "NetServer",
    "Pong",
    "ProtocolError",
    "RequestTimeoutError",
    "ResultMessage",
    "ServerBusyError",
    "SubmitMessage",
    "Welcome",
    "WireStats",
    "closed_loop",
    "closed_loop_async",
    "decode_result",
    "decode_stats",
    "decode_submit",
    "encode_frame",
    "encode_result",
    "encode_stats",
    "encode_submit",
    "negotiate_version",
    "replay_trace",
    "replay_trace_async",
    "result_from_outcome",
    "submit_from_request",
]
