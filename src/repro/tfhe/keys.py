"""Secret keys and evaluation (bootstrapping / keyswitching) keys.

The four entities of Section II-D: LWE ciphertexts and GLWE test-vectors are
defined in :mod:`repro.tfhe.lwe` / :mod:`repro.tfhe.glwe`; this module holds
the secret keys and builds the two large evaluation keys:

* the **bootstrapping key** — one GGSW encryption (under the GLWE key) of
  each bit of the LWE secret key, stored in the Fourier domain;
* the **keyswitching key** — LWE encryptions (under the original LWE key) of
  the scaled bits of the GLWE key flattened into an LWE key of dimension
  ``k * N``.

Both are fully determined by their seed, and the draw order is part of that
contract: per GGSW row, bit after bit, one uniform ``(k, N)`` mask and then
``N`` Gaussian samples (``GgswCiphertext.encrypt``); per keyswitching entry,
in table order, one uniform ``n``-mask and then one Gaussian sample
(``LweCiphertext.encrypt``); no Gaussian at all for a deviation ``<= 0``.
Nothing is drawn in bulk, only the arithmetic between draws is stacked: every
recorded key, and every ciphertext encrypted after one, is drawn this way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.params import TFHEParameters
from repro.tfhe import polynomial, torus
from repro.tfhe.ggsw import FourierGgswCiphertext
from repro.tfhe.lwe import LweCiphertext

#: Most bytes of ``int64`` key rows built at a time: 16 GGSWs, or 261
#: keyswitching entries, at set I.
_BLOCK_BYTES = 1 << 20


@dataclass
class LweSecretKey:
    """Binary LWE secret key of dimension ``n``."""

    bits: np.ndarray
    params: TFHEParameters

    def __post_init__(self) -> None:
        self.bits = np.asarray(self.bits, dtype=np.int64)
        if not np.all((self.bits == 0) | (self.bits == 1)):
            raise ValueError("LWE secret key must be binary")

    @property
    def dimension(self) -> int:
        """Key dimension."""
        return int(self.bits.shape[0])

    @classmethod
    def generate(cls, params: TFHEParameters, rng: np.random.Generator) -> "LweSecretKey":
        """Sample a fresh binary key of dimension ``n``."""
        return cls(rng.integers(0, 2, size=params.n, dtype=np.int64), params)

    def encrypt(
        self, value: int, rng: np.random.Generator, noise_std: float | None = None
    ) -> LweCiphertext:
        """Encrypt a torus value under this key."""
        return LweCiphertext.encrypt(value, self.bits, self.params, rng, noise_std)


@dataclass
class GlweSecretKey:
    """GLWE secret key: ``k`` binary polynomials of degree ``N``."""

    polynomials: np.ndarray
    params: TFHEParameters

    def __post_init__(self) -> None:
        self.polynomials = np.asarray(self.polynomials, dtype=np.int64)
        expected = (self.params.k, self.params.N)
        if self.polynomials.shape != expected:
            raise ValueError(f"GLWE key must have shape {expected}, got {self.polynomials.shape}")
        if not np.all((self.polynomials == 0) | (self.polynomials == 1)):
            raise ValueError("GLWE secret key must be binary")

    @classmethod
    def generate(cls, params: TFHEParameters, rng: np.random.Generator) -> "GlweSecretKey":
        """Sample fresh binary key polynomials."""
        return cls(rng.integers(0, 2, size=(params.k, params.N), dtype=np.int64), params)

    def extracted_lwe_key(self) -> np.ndarray:
        """Flatten the key into the LWE key of dimension ``k*N``.

        Sample extraction of a GLWE ciphertext produces an LWE ciphertext
        valid under this flattened key.
        """
        return self.polynomials.reshape(-1)


def _shared_params(lwe_key: LweSecretKey, glwe_key: GlweSecretKey) -> TFHEParameters:
    """The one parameter set an evaluation key's two secret keys must share."""
    if lwe_key.params != glwe_key.params:
        names = f"{lwe_key.params.name!r} (LWE key) and {glwe_key.params.name!r} (GLWE key)"
        raise ValueError(f"evaluation keys need secret keys of one parameter set, got {names}")
    return lwe_key.params


@dataclass
class BootstrappingKey:
    """Fourier-domain bootstrapping key: one GGSW per LWE secret bit."""

    ggsw_list: list[FourierGgswCiphertext]
    params: TFHEParameters

    def __len__(self) -> int:
        return len(self.ggsw_list)

    def __getitem__(self, index: int) -> FourierGgswCiphertext:
        return self.ggsw_list[index]

    @classmethod
    def generate(
        cls,
        lwe_key: LweSecretKey,
        glwe_key: GlweSecretKey,
        rng: np.random.Generator,
        noise_std: float | None = None,
    ) -> "BootstrappingKey":
        """Encrypt every LWE secret bit as a GGSW under the GLWE key."""
        params = _shared_params(lwe_key, glwe_key)
        k, n_poly, lb, q = params.k, params.N, params.lb, params.q
        std = params.glwe_noise_std if noise_std is None else noise_std
        transform = polynomial.get_transform(n_poly)
        key_spectra = transform.forward(glwe_key.polynomials)
        # Row i*lb + level adds bit * q / B^(level+1) to coefficient 0 of polynomial i.
        scales = q >> (np.arange(1, lb + 1) * params.log2_base_pbs)
        gadget = np.kron(np.eye(k + 1, dtype=np.int64), scales[:, None])
        block = max(1, _BLOCK_BYTES // (8 * gadget.size * n_poly))
        ggsw_list = []
        for lo in range(0, lwe_key.dimension, block):
            bits = lwe_key.bits[lo : lo + block]
            rows = np.empty((len(bits), (k + 1) * lb, k + 1, n_poly), dtype=np.int64)
            for row in rows.reshape(-1, k + 1, n_poly):
                row[:k] = torus.uniform((k, n_poly), q, rng)
                row[k] = torus.gaussian_noise(n_poly, std, q, rng)
            centered = transform.forward(torus.to_signed(rows[:, :, :k], q))
            products = np.round(transform.inverse(centered * key_spectra)).astype(np.int64)
            rows[:, :, k] += torus.reduce(products, q, out=products).sum(axis=2)
            rows[..., 0] += bits[:, None, None] * gadget
            spectra = transform.forward(torus.to_signed(rows, q))
            ggsw_list.extend(FourierGgswCiphertext(ggsw, params) for ggsw in spectra)
        return cls(ggsw_list, params)

    @property
    def size_bytes(self) -> int:
        """Size of the key in the Fourier-domain storage format."""
        return self.params.bootstrapping_key_fourier_bytes


@dataclass
class KeySwitchingKey:
    """Keyswitching key from the extracted GLWE key back to the LWE key.

    ``ciphertexts`` has shape ``(k*N, lk, n+1)``: for input coefficient ``j``
    and level ``l`` it stores an LWE encryption (mask ++ body) of
    ``s'_j * q / Bk^(l+1)`` under the output key.  Its entries are canonical
    in ``[0, q)`` and stored in the modulus's word (:func:`repro.tfhe.torus.word`,
    ``uint32`` for every defined set), so the table takes the bytes the model
    prices (``params.keyswitching_key_bytes``).  A table of any integer type
    is converted, and one with an entry outside ``[0, q)`` is refused.
    """

    ciphertexts: np.ndarray
    params: TFHEParameters

    def __post_init__(self) -> None:
        params = self.params
        expected = (params.k * params.N, params.lk, params.n + 1)
        table = np.asarray(self.ciphertexts)
        if table.shape != expected:
            raise ValueError(f"keyswitching key must have shape {expected}, got {table.shape}")
        # Checked before the cast, which would wrap a negative or too large entry.
        if table.min() < 0 or table.max() >= params.q:
            j, level, c = np.argwhere((table < 0) | (table >= params.q))[0]
            raise ValueError(
                f"keyswitching key entry (j={j}, level={level}, c={c}) is "
                f"{table[j, level, c]}, outside [0, {params.q})"
            )
        self.ciphertexts = table.astype(torus.word(params.q_bits), copy=False)

    @classmethod
    def generate(
        cls,
        glwe_key: GlweSecretKey,
        lwe_key: LweSecretKey,
        rng: np.random.Generator,
        noise_std: float | None = None,
    ) -> "KeySwitchingKey":
        """Build the keyswitching key from ``glwe_key`` (input) to ``lwe_key``."""
        params = _shared_params(lwe_key, glwe_key)
        n, q = params.n, params.q
        std = params.lwe_noise_std if noise_std is None else noise_std
        input_key = glwe_key.extracted_lwe_key()
        table = np.empty((input_key.shape[0] * params.lk, n + 1), dtype=torus.word(params.q_bits))
        for entry in table:
            entry[:n] = torus.uniform(n, q, rng)
            entry[n] = torus.gaussian_noise((), std, q, rng)
        scales = q >> (np.arange(1, params.lk + 1) * params.log2_base_ks)
        messages = (input_key[:, None] * scales).reshape(-1)
        block = max(1, _BLOCK_BYTES // (8 * (n + 1)))
        for lo in range(0, len(table), block):  # widens one block's masks, never the table
            rows = table[lo : lo + block]
            rows[:, n] = (rows[:, :n] @ lwe_key.bits + messages[lo : lo + block] + rows[:, n]) % q
        return cls(table.reshape(-1, params.lk, n + 1), params)

    @property
    def size_bytes(self) -> int:
        """Size of the key as the model prices it: ``q_bits / 8`` bytes per coefficient.

        At ``q_bits == 32`` (every defined set) that is the table's own ``nbytes``.
        """
        return self.params.keyswitching_key_bytes
