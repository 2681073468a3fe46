"""GGSW ciphertexts, the external product and the CMux gate.

The bootstrapping key is a vector of GGSW ciphertexts, one per LWE secret
bit.  A GGSW ciphertext encrypting a small integer ``m`` is a matrix of
``(k+1) * lb`` GLWE rows; the *external product* multiplies a GLWE ciphertext
by the GGSW's hidden message by decomposing the GLWE, transforming the digit
polynomials to the Fourier domain, multiplying against the GGSW rows and
accumulating — exactly the per-iteration datapath of the Strix PBS cluster
(Decomposer → FFT → VMA → IFFT → Accumulator).

:class:`FourierGgswCiphertext` stores the rows pre-transformed, which is how
every practical TFHE implementation (and the Strix global scratchpad) holds
the bootstrapping key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.params import TFHEParameters
from repro.tfhe import polynomial, torus
from repro.tfhe.decomposition import decompose_polynomial_list
from repro.tfhe.glwe import GlweCiphertext


@dataclass
class GgswCiphertext:
    """A GGSW ciphertext: ``(k+1)*lb`` GLWE rows of ``k+1`` polynomials each.

    Attributes
    ----------
    rows:
        Array of shape ``((k+1)*lb, k+1, N)``.  Row ``(i*lb + l)`` is a GLWE
        encryption of zero with ``m * q / B^(l+1)`` added to polynomial ``i``.
    params:
        Parameter set of the ciphertext.
    """

    rows: np.ndarray
    params: TFHEParameters

    def __post_init__(self) -> None:
        expected = ((self.params.k + 1) * self.params.lb, self.params.k + 1, self.params.N)
        self.rows = torus.reduce(np.asarray(self.rows, dtype=np.int64), self.params.q)
        if self.rows.shape != expected:
            raise ValueError(f"GGSW rows must have shape {expected}, got {self.rows.shape}")

    @classmethod
    def encrypt(
        cls,
        message: int,
        key: np.ndarray,
        params: TFHEParameters,
        rng: np.random.Generator,
        noise_std: float | None = None,
    ) -> "GgswCiphertext":
        """Encrypt a small integer message (typically a secret key bit)."""
        k, n_poly, lb = params.k, params.N, params.lb
        q = params.q
        rows = np.zeros(((k + 1) * lb, k + 1, n_poly), dtype=np.int64)
        for i in range(k + 1):
            for level in range(lb):
                zero_ct = GlweCiphertext.encrypt(
                    np.zeros(n_poly, dtype=np.int64), key, params, rng, noise_std
                )
                row = np.concatenate([zero_ct.mask, zero_ct.body[None, :]], axis=0)
                scale = q >> ((level + 1) * params.log2_base_pbs)
                row[i, 0] = (row[i, 0] + message * scale) % q
                rows[i * lb + level] = row
        return cls(rows, params)

    def to_fourier(self) -> "FourierGgswCiphertext":
        """Pre-transform every row polynomial to the folded Fourier domain."""
        transform = polynomial.get_transform(self.params.N)
        centered = torus.to_signed(self.rows, self.params.q)
        spectra = transform.forward(centered)
        return FourierGgswCiphertext(spectra, self.params)


@dataclass
class FourierGgswCiphertext:
    """A GGSW ciphertext with rows stored in the folded Fourier domain.

    ``spectra`` has shape ``((k+1)*lb, k+1, N/2)`` of complex values.
    """

    spectra: np.ndarray
    params: TFHEParameters

    def __post_init__(self) -> None:
        expected = (
            (self.params.k + 1) * self.params.lb,
            self.params.k + 1,
            self.params.N // 2,
        )
        self.spectra = np.asarray(self.spectra, dtype=np.complex128)
        if self.spectra.shape != expected:
            raise ValueError(
                f"Fourier GGSW spectra must have shape {expected}, got {self.spectra.shape}"
            )

    def external_product(self, glwe: GlweCiphertext) -> GlweCiphertext:
        """Compute ``GGSW(m) ⊡ GLWE(mu) = GLWE(m * mu)``.

        This follows the exact dataflow of one blind rotation iteration in
        the Strix PBS cluster: decompose the accumulator, transform the digit
        polynomials, multiply-accumulate against the key spectra, transform
        back and accumulate in the time domain.
        """
        params = self.params
        transform = polynomial.get_transform(params.N)

        stacked = np.concatenate([glwe.mask, glwe.body[None, :]], axis=0)
        digit_polys = decompose_polynomial_list(
            stacked, params.lb, params.log2_base_pbs, params.q_bits
        )
        digit_spectra = transform.forward(digit_polys)

        # (rows, N/2) x (rows, k+1, N/2) summed over rows -> (k+1, N/2)
        accumulated = np.einsum("rf,rcf->cf", digit_spectra, self.spectra)
        result_polys = transform.inverse(accumulated)
        result = torus.reduce(np.round(result_polys).astype(np.int64), params.q)
        return GlweCiphertext(result[: params.k], result[params.k], params)

    def cmux(self, ct_false: GlweCiphertext, ct_true: GlweCiphertext) -> GlweCiphertext:
        """Homomorphic multiplexer controlled by the hidden GGSW bit.

        Returns (an encryption of) ``ct_true`` when the GGSW encrypts 1 and
        ``ct_false`` when it encrypts 0.
        """
        return ct_false + self.external_product(ct_true - ct_false)


def external_product(
    ggsw: GgswCiphertext | FourierGgswCiphertext, glwe: GlweCiphertext
) -> GlweCiphertext:
    """External product accepting either a plain or Fourier-domain GGSW."""
    if isinstance(ggsw, GgswCiphertext):
        ggsw = ggsw.to_fourier()
    return ggsw.external_product(glwe)


def cmux(
    ggsw: GgswCiphertext | FourierGgswCiphertext,
    ct_false: GlweCiphertext,
    ct_true: GlweCiphertext,
) -> GlweCiphertext:
    """CMux accepting either a plain or Fourier-domain GGSW selector."""
    if isinstance(ggsw, GgswCiphertext):
        ggsw = ggsw.to_fourier()
    return ggsw.cmux(ct_false, ct_true)
