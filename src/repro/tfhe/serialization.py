"""Serialization of LWE ciphertexts: the one ``LWE1`` byte layout.

A practical TFHE deployment moves ciphertexts between a client and an
evaluation server (or an accelerator's host).  This module is the encoding
they travel in — network frames, shared memory, message queues — and the one
parser that owns every check on it.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.params import TFHEParameters
from repro.tfhe.batch.types import LweBatch
from repro.tfhe.lwe import LweCiphertext


def _check_params_match(stored_name: str, params: TFHEParameters) -> None:
    if stored_name != params.name:
        raise ValueError(
            f"file was written with parameter set {stored_name!r} but "
            f"{params.name!r} was supplied"
        )


#: Leading magic of the LWE batch encoding (versioned: the wire format must
#: stay byte-stable).
LWE_WIRE_MAGIC = b"LWE1"

#: Fixed header of the bytes-level encoding: magic, parameter-set name
#: length, ciphertext count, LWE dimension.
_LWE_WIRE_HEADER = struct.Struct("!4sHII")


def lwe_to_bytes(ciphertexts: "list[LweCiphertext] | LweBatch") -> bytes:
    """Encode a batch of LWE ciphertexts as one contiguous byte string.

    The layout is deliberately raw (no compression; after the header and the
    parameter-set name, every mask row as little-endian ``int64``, then
    every body) so the encoding is byte-deterministic and the size is
    exactly ``header + count * (dimension + 1) * 8`` — the quantity the
    serving tier's interconnect model already reasons about.  It is how an
    :class:`~repro.tfhe.batch.LweBatch` already holds its data, so a batch
    encodes without restacking and to the same bytes as its
    ``to_ciphertexts()`` list.
    """
    if isinstance(ciphertexts, LweBatch):
        batch = ciphertexts
    elif not ciphertexts:
        raise ValueError("cannot encode an empty ciphertext batch")
    else:
        batch = LweBatch.from_ciphertexts(ciphertexts)
    name = batch.params.name.encode("utf-8")
    header = _LWE_WIRE_HEADER.pack(LWE_WIRE_MAGIC, len(name), len(batch), batch.dimension)
    masks = batch.masks.astype("<i8", copy=False)
    bodies = batch.bodies.astype("<i8", copy=False)
    return header + name + masks.tobytes() + bodies.tobytes()


def _parse_lwe_bytes(data: bytes, params: TFHEParameters) -> tuple[np.ndarray, np.ndarray]:
    """``(masks, bodies)`` views of shape ``(count, dim)`` / ``(count,)`` over ``data``.

    Owns every check on the encoding: wrong magic, a parameter-set mismatch
    and truncated or oversized payloads raise :class:`ValueError` — what the
    network codec relies on to turn corrupt frames into typed protocol errors.
    """
    view = memoryview(data)
    if len(view) < _LWE_WIRE_HEADER.size:
        raise ValueError("LWE byte batch is truncated before its header ends")
    magic, name_length, count, dimension = _LWE_WIRE_HEADER.unpack_from(view, 0)
    if magic != LWE_WIRE_MAGIC:
        raise ValueError(f"bad LWE batch magic {bytes(magic)!r}")
    offset = _LWE_WIRE_HEADER.size
    if len(view) < offset + name_length:
        raise ValueError("LWE byte batch is truncated inside its parameter name")
    stored_name = bytes(view[offset : offset + name_length]).decode("utf-8")
    _check_params_match(stored_name, params)
    offset += name_length
    expected = offset + count * (dimension + 1) * 8
    if len(view) != expected:
        raise ValueError(
            f"LWE byte batch has {len(view)} bytes but the header implies {expected}"
        )
    masks = np.frombuffer(
        view, dtype="<i8", count=count * dimension, offset=offset
    ).reshape(count, dimension)
    bodies = np.frombuffer(view, dtype="<i8", count=count, offset=offset + count * dimension * 8)
    return masks, bodies


def lwe_from_bytes(data: bytes, params: TFHEParameters) -> list[LweCiphertext]:
    """Decode the bytes of :func:`lwe_to_bytes` into scalar ciphertexts."""
    masks, bodies = _parse_lwe_bytes(data, params)
    return [
        LweCiphertext(masks[index], int(bodies[index]), params) for index in range(len(bodies))
    ]


def lwe_batch_from_bytes(data: bytes, params: TFHEParameters) -> LweBatch:
    """Decode the bytes of :func:`lwe_to_bytes` into one stacked batch (only tests call it yet)."""
    masks, bodies = _parse_lwe_bytes(data, params)
    return LweBatch(masks, bodies, params)

