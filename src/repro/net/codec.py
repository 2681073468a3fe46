"""Payload codecs: serving requests, outcomes and ciphertext batches.

:mod:`repro.net.protocol` moves opaque payload bytes; this module gives the
two application messages their shape:

* ``SUBMIT`` — a compact workload descriptor (tenant, request kind, item
  count, optional Deep-NN model, optional trace timestamp) plus an optional
  LWE ciphertext batch encoded with the bytes-level codecs of
  :mod:`repro.tfhe.serialization` — real encrypted payloads ride the same
  frame as the descriptor the simulation consumes;
* ``RESULT`` — where and when the request executed (batch, device,
  dispatch/completion timestamps), enough for the client to rebuild the
  exact :class:`~repro.serve.request.RequestOutcome` the in-process server
  would have returned.

Both directions are pure ``bytes`` functions, so the codec is testable
without sockets and reusable by any transport; decoded messages are named
tuples, built positionally, at the price of a tuple per frame.
"""

from __future__ import annotations

import struct
import sys
from typing import NamedTuple

from repro.net.protocol import pack_str, unpack_str
from repro.params import TFHEParameters
from repro.serve.request import Request, RequestOutcome
from repro.tfhe.lwe import LweCiphertext
from repro.tfhe.serialization import lwe_from_bytes, lwe_to_bytes

#: SUBMIT flag bits.
HAS_ARRIVAL = 1 << 0
HAS_MODEL = 1 << 1
HAS_CIPHERTEXTS = 1 << 2
HAS_DEADLINE = 1 << 3

_SUBMIT_FIXED = struct.Struct("!QBId")
_DEADLINE = struct.Struct("!d")
_RESULT = struct.Struct("!QQIddd")
_CREDITS = struct.Struct("!H")
_RESULT_CREDITS = struct.Struct(_RESULT.format + "H")


class SubmitMessage(NamedTuple):
    """Decoded ``SUBMIT`` payload.

    ``arrival_s`` is the trace timestamp when the client replays a recorded
    trace (deterministic mode) and ``None`` for live traffic, where the
    server stamps arrivals on its own clock.  ``ciphertexts`` holds the raw
    LWE batch bytes when the submission carries real encrypted payloads.

    ``deadline_s`` is *absolute* serving-clock time when ``arrival_s`` is
    carried (replay: the trace's exact deadline field survives the wire
    bit-for-bit) and a *relative* latency budget for live traffic (the
    server resolves it against the arrival it stamps).
    """

    request_id: int
    tenant: str
    kind: str
    items: int
    arrival_s: float | None = None
    model: str | None = None
    ciphertexts: bytes | None = None
    deadline_s: float | None = None

    def to_request(self) -> Request:
        """The serving-layer request this submission describes.

        Replayed submissions rebuild the original trace request bit-for-bit
        (same id, same timestamp, same absolute deadline); live submissions
        leave ``arrival_s`` (and deadline resolution) to the server.
        """
        return Request.make(
            self.request_id,
            self.tenant,
            self.kind,
            self.items,
            arrival_s=self.arrival_s if self.arrival_s is not None else 0.0,
            model=self.model,
            deadline_s=self.deadline_s,
        )

    def decode_ciphertexts(self, params: TFHEParameters) -> list[LweCiphertext]:
        """Decode the attached LWE batch (empty when none was attached)."""
        if self.ciphertexts is None:
            return []
        return lwe_from_bytes(self.ciphertexts, params)


def encode_submit(
    request_id: int,
    tenant: str,
    kind: str,
    items: int,
    arrival_s: float | None = None,
    model: str | None = None,
    ciphertexts: "list[LweCiphertext] | bytes | None" = None,
    deadline_s: float | None = None,
) -> bytes:
    """Encode one ``SUBMIT`` payload.

    ``ciphertexts`` accepts either ready-made bytes (from
    :func:`~repro.tfhe.serialization.lwe_to_bytes`) or a list of
    :class:`~repro.tfhe.lwe.LweCiphertext` to encode in place.
    ``deadline_s`` is absolute when ``arrival_s`` is given, a relative
    budget otherwise (see :class:`SubmitMessage`).
    """
    flags = 0
    if arrival_s is not None:
        flags |= HAS_ARRIVAL
    if model is not None:
        flags |= HAS_MODEL
    if deadline_s is not None:
        flags |= HAS_DEADLINE
    blob = b""
    if ciphertexts is not None:
        blob = ciphertexts if isinstance(ciphertexts, bytes) else lwe_to_bytes(ciphertexts)
        flags |= HAS_CIPHERTEXTS
    payload = _SUBMIT_FIXED.pack(
        request_id, flags, items, arrival_s if arrival_s is not None else 0.0
    )
    if deadline_s is not None:
        payload += _DEADLINE.pack(deadline_s)
    payload += pack_str(tenant) + pack_str(kind)
    if model is not None:
        payload += pack_str(model)
    if blob:
        payload += struct.pack("!I", len(blob)) + blob
    return payload


def decode_submit(payload: bytes) -> SubmitMessage:
    """Decode a ``SUBMIT`` payload (raises :class:`ValueError` when malformed)."""
    if len(payload) < _SUBMIT_FIXED.size:
        raise ValueError("SUBMIT payload is truncated before its fixed fields end")
    request_id, flags, items, arrival_s = _SUBMIT_FIXED.unpack_from(payload, 0)
    offset = _SUBMIT_FIXED.size
    deadline_s = None
    if flags & HAS_DEADLINE:
        if len(payload) < offset + _DEADLINE.size:
            raise ValueError("SUBMIT payload is truncated inside its deadline field")
        (deadline_s,) = _DEADLINE.unpack_from(payload, offset)
        offset += _DEADLINE.size
    tenant, offset = unpack_str(payload, offset)
    kind, offset = unpack_str(payload, offset)
    model = None
    if flags & HAS_MODEL:
        model, offset = unpack_str(payload, offset)
    ciphertexts = None
    if flags & HAS_CIPHERTEXTS:
        if len(payload) < offset + 4:
            raise ValueError("SUBMIT payload is truncated before its ciphertext length")
        (blob_length,) = struct.unpack_from("!I", payload, offset)
        offset += 4
        if len(payload) < offset + blob_length:
            raise ValueError("SUBMIT payload is truncated inside its ciphertext batch")
        ciphertexts = payload[offset : offset + blob_length]
        offset += blob_length
    if offset != len(payload):
        raise ValueError(f"SUBMIT payload has {len(payload) - offset} trailing bytes")
    if not tenant:
        raise ValueError("SUBMIT tenant name cannot be empty")
    tenant = sys.intern(tenant)  # one string per tenant, not one per request a run keeps
    arrival = arrival_s if flags & HAS_ARRIVAL else None
    return SubmitMessage(request_id, tenant, kind, items, arrival, model, ciphertexts, deadline_s)


def submit_from_request(request: Request) -> bytes:
    """Encode a serving-layer :class:`Request` as a ``SUBMIT`` payload.

    The arrival and the absolute ``deadline_s`` ride along verbatim, so a
    replayed trace rebuilds the request bit-for-bit.
    """
    return encode_submit(
        request.request_id,
        request.tenant,
        request.kind.value,
        request.items,
        arrival_s=request.arrival_s,
        model=request.model,
        deadline_s=request.deadline_s,
    )


class ResultMessage(NamedTuple):
    """Decoded ``RESULT`` payload.

    ``credits`` piggy-backs the connection's replenished credit count when
    the server runs credit-based flow control (the in-flight window the
    WELCOME advertised); ``None`` on the historical fixed-size payload.
    """

    request_id: int
    batch_id: int
    device: int
    arrival_s: float
    dispatched_s: float
    completed_s: float
    credits: int | None = None

    def to_outcome(self, request: Request) -> RequestOutcome:
        """Rebuild the outcome for the request the client submitted.

        ``arrival_s`` is authoritative from the server (in live mode the
        server stamps it), so the request is realigned to it before the
        outcome is assembled.
        """
        if request.arrival_s != self.arrival_s:
            request = Request(
                request_id=request.request_id,
                tenant=request.tenant,
                kind=request.kind,
                items=request.items,
                pbs_per_item=request.pbs_per_item,
                arrival_s=self.arrival_s,
                model=request.model,
                deadline_s=request.deadline_s,
            )
        return RequestOutcome(
            request, self.batch_id, self.device, self.dispatched_s, self.completed_s
        )


def encode_result(
    request_id: int,
    batch_id: int,
    device: int,
    arrival_s: float,
    dispatched_s: float,
    completed_s: float,
    credits: int | None = None,
) -> bytes:
    """Encode one ``RESULT`` payload.

    ``credits`` appends the flow-control credit replenishment; ``None``
    keeps the historical fixed-size payload byte-identical.
    """
    payload = _RESULT.pack(
        request_id, batch_id, device, arrival_s, dispatched_s, completed_s
    )
    if credits is not None:
        if not 0 <= credits <= 0xFFFF:
            raise ValueError("RESULT credits must fit a u16")
        payload += _CREDITS.pack(credits)
    return payload


def result_from_outcome(outcome: RequestOutcome, credits: int | None = None) -> bytes:
    """Encode a serving-layer :class:`RequestOutcome` as a ``RESULT`` payload."""
    return encode_result(
        outcome.request.request_id,
        outcome.batch_id,
        outcome.device,
        outcome.request.arrival_s,
        outcome.dispatched_s,
        outcome.completed_s,
        credits=credits,
    )


def decode_result(payload: bytes) -> ResultMessage:
    """Decode a ``RESULT`` payload (with or without trailing credits)."""
    if len(payload) not in (_RESULT.size, _RESULT.size + _CREDITS.size):
        raise ValueError(
            f"RESULT payload must be {_RESULT.size} bytes "
            f"(or +{_CREDITS.size} with credits), got {len(payload)}"
        )
    if len(payload) == _RESULT.size:
        return ResultMessage(*_RESULT.unpack(payload))
    return ResultMessage(*_RESULT_CREDITS.unpack(payload))
