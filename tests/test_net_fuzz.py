"""Corpus-seeded fuzzing of the wire decoders.

The corpus is real frames: every distinct frame either end writes while
``netload --smoke`` replays its trace (HELLO, WELCOME, SUBMIT, RESULT, DRAIN,
DRAINED), plus hand-built ones for what that run never sends — SUBMIT with an
``LWE1`` attachment and a deadline, WELCOME and RESULT carrying credits, BUSY,
ERROR, PING/PONG and STATS.  Frames are drawn group first, one group per
captured type and one per hand-built frame, so the replay's many SUBMITs and
RESULTs crowd out neither the other types nor the hand-built SUBMIT and
RESULT.  They are mutated by
truncation, length-field lies (up to and past ``MAX_PAYLOAD_BYTES``), bit
flips and spliced garbage.  Two properties:

* framing, in circlestark's ``test_fast_fri`` manner: the stream fed as one
  chunk, in random chunk sizes and one byte at a time (the slow reference)
  yields the same events, compared field by field, and the same ``at_eof()``;
* payloads: every ``decode_*`` on a CRC-valid but mutated payload returns or
  raises :class:`ValueError`, and nothing else — and what it returns, its
  encoder would have written.

The example count comes from the Hypothesis profile:
``HYPOTHESIS_PROFILE=fuzz`` (registered in ``conftest.py``) runs ten times
the tier-1 count.  Shrunk failures are kept below as plain tests, beside one
that holds the decoder to allocating no more than it has been fed.
"""

from __future__ import annotations

import functools
import math
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.traffic import TRAFFIC_PATTERNS
from repro.net import codec, protocol
from repro.net.loadgen import replay_trace
from repro.net.protocol import HEADER, MAGIC, MAX_PAYLOAD_BYTES, FrameDecoder, MessageType
from repro.params import PARAM_SET_I
from repro.serve.server import Server
from repro.tfhe.lwe import LweCiphertext

_LWE = [LweCiphertext.trivial(m, 16, PARAM_SET_I) for m in range(3)]

#: ``(message type, payload)`` of the frames the smoke replay never sends.
HAND_BUILT = [
    (
        MessageType.SUBMIT,
        codec.encode_submit(7, "t0", "bootstrap", 3, ciphertexts=_LWE, deadline_s=0.5),
    ),
    (MessageType.WELCOME, protocol.encode_welcome(1, credit_window=32)),
    (MessageType.RESULT, codec.encode_result(8, 3, 0, 0.125, 0.25, 0.5, credits=31)),
    (MessageType.BUSY, protocol.encode_busy(9, 0.004, "in-flight window of 32 is exhausted")),
    (MessageType.ERROR, protocol.encode_error(protocol.ErrorCode.BAD_MESSAGE, "bad", 7)),
    (MessageType.ERROR, protocol.encode_error(protocol.ErrorCode.BAD_CHECKSUM, "crc mismatch")),
    (MessageType.PING, protocol.encode_ping(3, 0.25)),
    (MessageType.PONG, protocol.encode_pong(3, 0.25, 0.5)),
    (MessageType.STATS, b""),
    (MessageType.STATS_REPLY, protocol.encode_stats({"serve_requests": 3.0, "wire_frames": 9.0})),
]


@functools.cache
def smoke_capture() -> list[tuple[MessageType, bytes]]:
    """Every distinct ``(message type, payload)`` either end encodes while
    the ``netload --smoke`` trace replays over loopback, in first-seen order."""
    captured: dict[tuple[MessageType, bytes], None] = {}
    encode = protocol.encode_frame

    def recording(msg_type, payload=b"", *args):
        captured[MessageType(msg_type), bytes(payload)] = None
        return encode(msg_type, payload, *args)

    trace = TRAFFIC_PATTERNS["steady"](800.0, 0.1, seed=0, tenants=3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "encode_frame", recording)
        replay_trace(trace, server=Server(devices=4, params="I"))
    return list(captured)


def frame_groups() -> list[list[tuple[MessageType, bytes]]]:
    """The corpus in draw groups: the captured frames of one message type
    each, then every hand-built frame alone."""
    by_type: dict[MessageType, list[tuple[MessageType, bytes]]] = {}
    for frame in smoke_capture():
        by_type.setdefault(frame[0], []).append(frame)
    return [*by_type.values(), *([frame] for frame in HAND_BUILT)]


#: One corpus frame: a group, then one frame of it.  Deferred, so the
#: loopback replay runs on the first draw, not at import.
FRAMES = st.deferred(lambda: st.sampled_from(frame_groups()).flatmap(st.sampled_from))

#: Where the length field sits in a frame header.
_LENGTH = struct.Struct("!I")
_LENGTH_OFFSET = 8

#: Declared payload lengths a lying header may carry.
_LIES = st.one_of(
    st.integers(0, 128),
    st.sampled_from([MAX_PAYLOAD_BYTES - 1, MAX_PAYLOAD_BYTES, MAX_PAYLOAD_BYTES + 1, 2**32 - 1]),
    st.integers(0, 2**32 - 1),
)


@st.composite
def _mutated(draw, data: bytes, headers: list[int]) -> bytes:
    """``data`` after up to four truncations, length lies, bit flips or splices."""
    mutated = bytearray(data)
    for _ in range(draw(st.integers(0, 4))):
        mutation = draw(st.sampled_from(["truncate", "lie", "flip", "splice"]))
        if mutation == "truncate":
            del mutated[draw(st.integers(0, len(mutated))) :]
        elif mutation == "lie":
            starts = [start for start in headers if start + HEADER.size <= len(mutated)]
            if starts:
                start = draw(st.sampled_from(starts)) + _LENGTH_OFFSET
                mutated[start : start + _LENGTH.size] = _LENGTH.pack(draw(_LIES))
        elif mutation == "flip" and mutated:
            mutated[draw(st.integers(0, len(mutated) - 1))] ^= 1 << draw(st.integers(0, 7))
        elif mutation == "splice":  # garbage inserted, or written over as many bytes
            at = draw(st.integers(0, len(mutated)))
            garbage = draw(st.binary(min_size=1, max_size=24))
            mutated[at : at + draw(st.sampled_from([0, len(garbage)]))] = garbage
    return bytes(mutated)


@st.composite
def streams(draw) -> bytes:
    """A few corpus frames back to back, then mutated."""
    frames = [
        protocol.encode_frame(msg_type, payload)
        for msg_type, payload in draw(st.lists(FRAMES, min_size=1, max_size=4))
    ]
    headers = [sum(map(len, frames[:index])) for index in range(len(frames))]
    return draw(_mutated(b"".join(frames), headers))


@st.composite
def payloads(draw) -> bytes:
    """One corpus payload, mutated: what a decoder sees once the CRC has passed."""
    _msg_type, payload = draw(FRAMES)
    return draw(_mutated(payload, []))


def _transcript(stream: bytes, chunk_sizes: list[int]) -> list[tuple]:
    """Every event of ``stream`` fed in chunks cycling through ``chunk_sizes``,
    then ``at_eof()``, each reduced to the fields a peer acts on."""
    decoder = FrameDecoder()
    events = []
    offset = index = 0
    while offset < len(stream):
        size = chunk_sizes[index % len(chunk_sizes)]
        events += decoder.feed(stream[offset : offset + size])
        offset += size
        index += 1
    events.append(decoder.at_eof())
    return [_fields(event) for event in events]


def _fields(event) -> tuple:
    if event is None:
        return (None,)
    if isinstance(event, protocol.Frame):
        return ("frame", event.version, event.msg_type, event.payload)
    return ("defect", event.code, event.fatal, event.message)


@given(stream=streams(), chunk_sizes=st.lists(st.integers(1, 97), min_size=1, max_size=6))
@settings(deadline=None)
def test_every_chunking_of_a_stream_decodes_to_the_same_transcript(stream, chunk_sizes):
    slow = _transcript(stream, [1])
    assert _transcript(stream, [max(len(stream), 1)]) == slow
    assert _transcript(stream, chunk_sizes) == slow


#: Every payload decoder of the protocol, each with the encoder that writes
#: what it reads (``None``: the SUBMIT attachment, decoded, not re-encoded).
CODECS = (
    (protocol.decode_hello, protocol.encode_hello),
    (protocol.decode_welcome, lambda w: protocol.encode_welcome(w.version, w.credit_window)),
    (protocol.decode_error, lambda e: protocol.encode_error(e.code, e.message, e.request_id)),
    (protocol.decode_busy, lambda b: protocol.encode_busy(b.request_id, b.retry_after_s, b.reason)),
    (protocol.decode_ping, lambda ping: protocol.encode_ping(*ping)),
    (protocol.decode_pong, lambda p: protocol.encode_pong(p.nonce, p.client_s, p.server_s)),
    (protocol.decode_stats, protocol.encode_stats),
    (codec.decode_submit, lambda message: codec.encode_submit(*message)),
    (codec.decode_result, lambda message: codec.encode_result(*message)),
    (lambda payload: codec.decode_submit(payload).decode_ciphertexts(PARAM_SET_I), None),
)


@given(payload=payloads())
@settings(deadline=None)
def test_every_decoder_returns_or_raises_value_error_on_a_mutated_payload(payload):
    """What a decoder returns lies in its encoder's domain, too: a value no
    peer could have written (a negative retry hint, say) is a defect, not a
    message."""
    for decode, encode in CODECS:
        try:
            decoded = decode(payload)
        except ValueError:
            continue
        if encode is not None:
            encode(decoded)


def test_the_smoke_capture_seeds_the_corpus_and_hand_built_frames_fill_the_gaps():
    captured = {msg_type.name for msg_type, _payload in smoke_capture()}
    assert captured == {"HELLO", "WELCOME", "SUBMIT", "RESULT", "DRAIN", "DRAINED"}
    assert len(smoke_capture()) > 100  # one SUBMIT and one RESULT per smoke request
    hand_built = {msg_type.name for msg_type, _payload in HAND_BUILT}
    assert captured | hand_built == {msg_type.name for msg_type in MessageType}
    models = {
        codec.decode_submit(payload).model
        for msg_type, payload in smoke_capture()
        if msg_type == MessageType.SUBMIT
    }
    assert "NN-20" in models  # an inference SUBMIT, with its model field


def test_each_hand_built_frame_is_drawn_as_often_as_a_whole_captured_type():
    # The 21-frame corpus this replaced drew the LWE1 SUBMIT with p = 1/21.
    groups = frame_groups()
    assert [[frame] for frame in HAND_BUILT] == groups[-len(HAND_BUILT) :]
    assert len(groups) <= 21


@pytest.mark.parametrize("declared", [MAX_PAYLOAD_BYTES, MAX_PAYLOAD_BYTES + 1])
def test_a_header_declaring_the_cap_allocates_no_more_than_the_decoder_holds(declared):
    header = HEADER.pack(MAGIC, protocol.PROTOCOL_VERSION, MessageType.SUBMIT, 0, declared, 0)
    decoder, fed, events = FrameDecoder(), 0, []
    tracemalloc.start()
    try:
        for chunk in (header, b"\x00" * 5, b"\x00" * 11):
            events += decoder.feed(chunk)
            fed += len(chunk)
            assert len(decoder._buffer) <= fed
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # At the cap the decoder waits for the payload; past it the stream is dead.
    assert [_fields(event)[:2] for event in events] == (
        [] if declared == MAX_PAYLOAD_BYTES else [("defect", protocol.ErrorCode.FRAME_TOO_LARGE)]
    )


# -- what the fuzzer found, kept as plain tests ---------------------------------------


def test_an_empty_hello_is_malformed():
    # Shrunk: b"\x00" decoded to a HELLO offering no version at all, which
    # encode_hello refuses to write.
    with pytest.raises(ValueError, match="at least one version"):
        protocol.decode_hello(b"\x00")


def test_a_busy_hint_no_peer_could_write_is_malformed():
    # Shrunk: a splice over the retry hint left it negative.  Its unfuzzed
    # siblings: an infinite hint would park submit_with_retry forever, and
    # a NaN one would retry at once.
    shrunk = b"\x00\x00\x00\x00\x00\x00\x00\x03\x80\x00?\xd0\x00\x00\x00\x00\x00\x00"
    hints = (-1.0, math.inf, math.nan)
    for payload in (shrunk, *(struct.pack("!Qd", 1, hint) + b"\x00\x00" for hint in hints)):
        with pytest.raises(ValueError, match="negative or not finite"):
            protocol.decode_busy(payload)
    for hint in hints:
        with pytest.raises(ValueError, match="negative or not finite"):
            protocol.encode_busy(1, hint, "no")


def test_deeply_nested_stats_json_is_malformed():
    # Found by reading while writing the fuzzer, not by it: json.loads raises
    # RecursionError, which the client's reader would not have caught.
    with pytest.raises(ValueError, match="not valid JSON"):
        protocol.decode_stats(b"[" * 100_000)
