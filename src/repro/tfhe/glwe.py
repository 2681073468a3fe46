"""GLWE ciphertexts (the "test vector" carrier of PBS).

A GLWE ciphertext is a vector of ``k + 1`` polynomials
``(A_1(X), ..., A_k(X), B(X))`` in ``Z_q[X]/(X^N + 1)`` with
``B = sum_i A_i * S_i + M + E`` for binary secret polynomials ``S_i``.
During PBS the accumulator holding the rotated test vector is a GLWE
ciphertext; the blind rotation repeatedly rotates it and refreshes it with
external products against the bootstrapping key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.params import TFHEParameters
from repro.tfhe import polynomial, torus
from repro.tfhe.lwe import LweCiphertext


@dataclass
class GlweCiphertext:
    """A GLWE ciphertext: ``k`` mask polynomials plus one body polynomial.

    Attributes
    ----------
    mask:
        Array of shape ``(k, N)`` holding the mask polynomials.
    body:
        Array of shape ``(N,)`` holding the body polynomial.
    params:
        The parameter set the ciphertext was produced under.
    """

    mask: np.ndarray
    body: np.ndarray
    params: TFHEParameters

    def __post_init__(self) -> None:
        q = self.params.q
        self.mask = torus.reduce(np.asarray(self.mask, dtype=np.int64), q)
        self.body = torus.reduce(np.asarray(self.body, dtype=np.int64), q)
        if self.mask.ndim != 2 or self.mask.shape[1] != self.params.N:
            raise ValueError(
                f"mask must have shape (k, N)=(*, {self.params.N}), got {self.mask.shape}"
            )
        if self.body.shape != (self.params.N,):
            raise ValueError(f"body must have shape ({self.params.N},), got {self.body.shape}")

    @property
    def k(self) -> int:
        """GLWE mask length."""
        return int(self.mask.shape[0])

    # -- constructors ---------------------------------------------------------

    @classmethod
    def trivial(cls, message: np.ndarray, params: TFHEParameters) -> "GlweCiphertext":
        """Noiseless, keyless GLWE encryption of a message polynomial."""
        mask = np.zeros((params.k, params.N), dtype=np.int64)
        return cls(mask, np.asarray(message, dtype=np.int64), params)

    @classmethod
    def encrypt(
        cls,
        message: np.ndarray,
        key: np.ndarray,
        params: TFHEParameters,
        rng: np.random.Generator,
        noise_std: float | None = None,
    ) -> "GlweCiphertext":
        """Encrypt a message polynomial under binary secret polynomials.

        ``key`` has shape ``(k, N)``.
        """
        key = np.asarray(key, dtype=np.int64)
        std = params.glwe_noise_std if noise_std is None else noise_std
        mask = torus.uniform((params.k, params.N), params.q, rng)
        noise = torus.gaussian_noise(params.N, std, params.q, rng)
        body = np.asarray(message, dtype=np.int64) + noise
        for i in range(params.k):
            body = body + polynomial.integer_multiply(mask[i], key[i], params.q)
        return cls(mask, body, params)

    # -- decryption -------------------------------------------------------------

    def phase(self, key: np.ndarray) -> np.ndarray:
        """Return the noisy phase polynomial ``B - sum_i A_i * S_i``."""
        key = np.asarray(key, dtype=np.int64)
        result = self.body.astype(np.int64)
        for i in range(self.k):
            result = result - polynomial.integer_multiply(self.mask[i], key[i], self.params.q)
        return torus.reduce(result, self.params.q)

    # -- homomorphic operations ---------------------------------------------------

    def __add__(self, other: "GlweCiphertext") -> "GlweCiphertext":
        self._check_compatible(other)
        return GlweCiphertext(self.mask + other.mask, self.body + other.body, self.params)

    def __sub__(self, other: "GlweCiphertext") -> "GlweCiphertext":
        self._check_compatible(other)
        return GlweCiphertext(self.mask - other.mask, self.body - other.body, self.params)

    def rotate(self, exponent: int) -> "GlweCiphertext":
        """Multiply every polynomial by ``X^exponent`` (negacyclic rotation)."""
        q = self.params.q
        mask = np.stack(
            [polynomial.monomial_multiply(self.mask[i], exponent, q) for i in range(self.k)]
        )
        body = polynomial.monomial_multiply(self.body, exponent, q)
        return GlweCiphertext(mask, body, self.params)

    def sample_extract(self, index: int = 0) -> LweCiphertext:
        """Extract the LWE ciphertext of coefficient ``index`` of the message.

        The resulting LWE ciphertext has dimension ``k * N`` and is encrypted
        under the flattened GLWE secret key (see
        :meth:`repro.tfhe.keys.GlweSecretKey.extracted_lwe_key`).
        """
        n_poly = self.params.N
        if not 0 <= index < n_poly:
            raise ValueError(f"index {index} out of range [0, {n_poly})")
        q = self.params.q
        mask = np.zeros(self.k * n_poly, dtype=np.int64)
        for i in range(self.k):
            poly = self.mask[i]
            extracted = np.empty(n_poly, dtype=np.int64)
            # a'_{i*N + j} = A_i[index - j]  with negacyclic sign when j > index.
            for j in range(n_poly):
                src = index - j
                if src >= 0:
                    extracted[j] = poly[src]
                else:
                    extracted[j] = -poly[src + n_poly]
            mask[i * n_poly : (i + 1) * n_poly] = extracted
        body = int(self.body[index])
        return LweCiphertext(torus.reduce(mask, q), body, self.params)

    def copy(self) -> "GlweCiphertext":
        """Deep copy of the ciphertext."""
        return GlweCiphertext(self.mask.copy(), self.body.copy(), self.params)

    def _check_compatible(self, other: "GlweCiphertext") -> None:
        if self.k != other.k or self.params.N != other.params.N:
            raise ValueError("cannot combine GLWE ciphertexts of different shapes")
