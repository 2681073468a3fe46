"""Serialization of ciphertexts and keys.

A practical TFHE deployment moves ciphertexts and evaluation keys between a
client and an evaluation server (or an accelerator's host).  This module
provides a compact ``.npz``-based format for the library's objects, and
size accounting that matches the paper's Table I discussion (KB-level
ciphertexts, 10s–100s MB bootstrapping keys).

Only public material (ciphertexts, bootstrapping / keyswitching keys) gets a
``save``/``load`` pair; secret keys are serialized through a separate
explicit function so it is always obvious when secret material touches disk.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from repro.params import TFHEParameters
from repro.tfhe.batch.types import LweBatch
from repro.tfhe.ggsw import FourierGgswCiphertext
from repro.tfhe.keys import BootstrappingKey, KeySwitchingKey, LweSecretKey
from repro.tfhe.lwe import LweCiphertext


def _check_params_match(stored_name: str, params: TFHEParameters) -> None:
    if stored_name != params.name:
        raise ValueError(
            f"file was written with parameter set {stored_name!r} but "
            f"{params.name!r} was supplied"
        )


# -- LWE ciphertexts -------------------------------------------------------------


def save_lwe_ciphertexts(path: str | Path, ciphertexts: list[LweCiphertext]) -> None:
    """Save a batch of LWE ciphertexts sharing one parameter set."""
    if not ciphertexts:
        raise ValueError("cannot save an empty ciphertext batch")
    params = ciphertexts[0].params
    dimensions = {ct.dimension for ct in ciphertexts}
    if len(dimensions) != 1:
        raise ValueError(f"ciphertexts have mixed dimensions: {sorted(dimensions)}")
    masks = np.stack([ct.mask for ct in ciphertexts])
    bodies = np.array([ct.body for ct in ciphertexts], dtype=np.int64)
    np.savez_compressed(Path(path), masks=masks, bodies=bodies, parameter_set=params.name)


def load_lwe_ciphertexts(path: str | Path, params: TFHEParameters) -> list[LweCiphertext]:
    """Load a batch of LWE ciphertexts saved by :func:`save_lwe_ciphertexts`."""
    with np.load(Path(path), allow_pickle=False) as data:
        _check_params_match(str(data["parameter_set"]), params)
        masks = data["masks"]
        bodies = data["bodies"]
    return [
        LweCiphertext(masks[index], int(bodies[index]), params)
        for index in range(masks.shape[0])
    ]


# -- LWE ciphertexts, bytes level ------------------------------------------------

#: Leading magic of the in-memory LWE batch encoding (versioned separately
#: from the ``.npz`` files: the wire format must stay byte-stable).
LWE_WIRE_MAGIC = b"LWE1"

#: Fixed header of the bytes-level encoding: magic, parameter-set name
#: length, ciphertext count, LWE dimension.
_LWE_WIRE_HEADER = struct.Struct("!4sHII")


def lwe_to_bytes(ciphertexts: "list[LweCiphertext] | LweBatch") -> bytes:
    """Encode a batch of LWE ciphertexts as one contiguous byte string.

    The bytes-level sibling of :func:`save_lwe_ciphertexts` for transports
    that are not files — network frames, shared memory, message queues.  The
    layout is deliberately raw (no compression; after the header and the
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
    """Decode the bytes of :func:`lwe_to_bytes` into one stacked batch."""
    masks, bodies = _parse_lwe_bytes(data, params)
    return LweBatch(masks, bodies, params)


# -- evaluation keys ---------------------------------------------------------------


def save_bootstrapping_key(path: str | Path, key: BootstrappingKey) -> None:
    """Save a Fourier-domain bootstrapping key."""
    spectra = np.stack([ggsw.spectra for ggsw in key.ggsw_list])
    np.savez_compressed(Path(path), spectra=spectra, parameter_set=key.params.name)


def load_bootstrapping_key(path: str | Path, params: TFHEParameters) -> BootstrappingKey:
    """Load a bootstrapping key saved by :func:`save_bootstrapping_key`."""
    with np.load(Path(path), allow_pickle=False) as data:
        _check_params_match(str(data["parameter_set"]), params)
        spectra = data["spectra"]
    ggsw_list = [FourierGgswCiphertext(spectra[index], params) for index in range(spectra.shape[0])]
    return BootstrappingKey(ggsw_list, params)


def save_keyswitching_key(path: str | Path, key: KeySwitchingKey) -> None:
    """Save a keyswitching key."""
    np.savez_compressed(Path(path), ciphertexts=key.ciphertexts, parameter_set=key.params.name)


def load_keyswitching_key(path: str | Path, params: TFHEParameters) -> KeySwitchingKey:
    """Load a keyswitching key saved by :func:`save_keyswitching_key`."""
    with np.load(Path(path), allow_pickle=False) as data:
        _check_params_match(str(data["parameter_set"]), params)
        ciphertexts = data["ciphertexts"]
    return KeySwitchingKey(ciphertexts, params)


# -- secret keys (explicit) -----------------------------------------------------------


def save_lwe_secret_key(path: str | Path, key: LweSecretKey) -> None:
    """Save an LWE secret key.  Handle the resulting file as a secret."""
    np.savez_compressed(Path(path), bits=key.bits, parameter_set=key.params.name)


def load_lwe_secret_key(path: str | Path, params: TFHEParameters) -> LweSecretKey:
    """Load an LWE secret key saved by :func:`save_lwe_secret_key`."""
    with np.load(Path(path), allow_pickle=False) as data:
        _check_params_match(str(data["parameter_set"]), params)
        bits = data["bits"]
    return LweSecretKey(bits, params)


# -- size accounting -------------------------------------------------------------------


def serialized_sizes(params: TFHEParameters) -> dict[str, int]:
    """Nominal serialized sizes (bytes) of the main objects for a parameter set.

    These are the uncompressed, in-memory sizes — the quantities the paper's
    Table I and the Strix memory system reason about.
    """
    return {
        "lwe_ciphertext": params.lwe_ciphertext_bytes,
        "glwe_ciphertext": params.glwe_ciphertext_bytes,
        "ggsw_ciphertext": params.ggsw_ciphertext_bytes,
        "bootstrapping_key": params.bootstrapping_key_fourier_bytes,
        "keyswitching_key": params.keyswitching_key_bytes,
    }
