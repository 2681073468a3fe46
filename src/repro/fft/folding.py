"""Folded (half-size) negacyclic transform — the paper's FFT folding scheme.

Section V-A of the paper transforms an ``N``-point polynomial with an
``N/2``-point FFT by *folding*: the second half of the real polynomial is
placed in the imaginary slot of the first half.  Mathematically this uses the
ring isomorphism

.. math::

    \\mathbb{R}[X]/(X^N + 1) \\;\\cong\\; \\mathbb{C}[X]/(X^{N/2} - i),
    \\qquad
    a \\mapsto \\sum_{u<N/2} (a_u + i\\,a_{u+N/2})\\,X^u .

Multiplication in the target ring is carried out by evaluating the folded
complex polynomial at the ``N/2`` roots of ``X^{N/2} = i`` — a twisted
``N/2``-point FFT.  This is exactly the optimization credited to Klemsa [48]
and is what halves the FFT unit size in Strix.
"""

from __future__ import annotations

import numpy as np


class FoldedNegacyclicTransform:
    """Half-size negacyclic transform for polynomials of degree ``N``.

    The Fourier-domain representation has ``N/2`` complex points, matching the
    storage format assumed by the Strix memory model for bootstrapping keys.

    :meth:`forward` and :meth:`inverse` take ``out=`` and ``folded=``: with
    ``folded=True`` the coefficient side of the transform is the *folded*
    complex array of :meth:`fold` (coefficient ``u`` in the real slot,
    ``u + N/2`` in the imaginary slot) rather than ``N`` reals, and ``out``
    may be the input itself — twist and FFT then run in place, which is how
    the blind-rotation loop streams digits through one buffer.  Both
    power-of-two scale factors of the textbook formulas are folded away (an
    unscaled inverse DFT instead of ``ifft(...) * half``, a precomputed
    ``untwist / half`` instead of ``/ half * untwist``); scaling a double by
    a power of two is exact, so every result is bit-identical to the
    unfused formulas (``tests/test_fft_transforms.py`` pins them).

    Each DFT is one call of numpy's pocketfft gufunc
    (``numpy.fft._pocketfft_umath.ifft`` / ``.fft`` with scale factor
    ``1.0``), the C loop ``np.fft.ifft(norm="forward")`` and ``np.fft.fft``
    end in; calling it directly skips their Python wrapper, which is a
    measurable share of a batch-1 blind rotation.  The gufuncs have no
    public name, so ``tests/test_fft_transforms.py`` pins their contract
    against the ``np.fft`` functions bit for bit.
    """

    def __init__(self, degree: int):
        if degree < 4 or degree & (degree - 1):
            raise ValueError(f"degree must be a power of two >= 4, got {degree}")
        self.degree = degree
        self.half = degree // 2
        indices = np.arange(self.half)
        # Twist by e^{i*pi*u/N}: maps evaluation at the roots of X^{N/2} = i
        # onto a plain (inverse-oriented) DFT of length N/2.
        self._twist = np.exp(1j * np.pi * indices / degree)
        self._untwist_scaled = np.conj(self._twist) / self.half
        # Imported here, not at module level: numpy loads numpy.fft on first
        # use, and a process that never builds a transform (a serving process)
        # then never maps pocketfft.
        from numpy.fft import _pocketfft_umath as pocketfft

        self._fft, self._ifft = pocketfft.fft, pocketfft.ifft

    # -- folding -------------------------------------------------------------

    def fold(self, coefficients: np.ndarray) -> np.ndarray:
        """Fold a length-``N`` real polynomial into ``N/2`` complex values."""
        coeffs = np.asarray(coefficients)
        if coeffs.shape[-1] != self.degree:
            raise ValueError(
                f"expected last axis of length {self.degree}, got {coeffs.shape[-1]}"
            )
        folded = np.empty(coeffs.shape[:-1] + (self.half,), dtype=np.complex128)
        folded.real = coeffs[..., : self.half]
        folded.imag = coeffs[..., self.half :]
        return folded

    def unfold(self, folded: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Invert :meth:`fold`, returning a length-``N`` real array."""
        values = self._folded(folded)
        out = checked_out(out, values.shape[:-1] + (self.degree,), np.float64)
        out[..., : self.half] = values.real
        out[..., self.half :] = values.imag
        return out

    def _folded(self, values: np.ndarray) -> np.ndarray:
        """``values`` as a complex array whose last axis has ``N/2`` points."""
        values = np.asarray(values, dtype=np.complex128)
        if values.shape[-1] != self.half:
            raise ValueError(
                f"expected last axis of length {self.half}, got {values.shape[-1]}"
            )
        return values

    # -- transforms ----------------------------------------------------------

    def forward(
        self,
        coefficients: np.ndarray,
        out: np.ndarray | None = None,
        *,
        folded: bool = False,
    ) -> np.ndarray:
        """Forward folded transform: ``N`` real coefficients → ``N/2`` points.

        Works along the last axis, so batches of polynomials are supported.
        With ``folded=True`` the input is the already folded complex array.
        ``out`` is a ``complex128`` array of the spectrum's shape; it may be
        the folded input itself (in place).  The input is otherwise left
        untouched.
        """
        values = self._folded(coefficients) if folded else self.fold(coefficients)
        if out is None and not folded:
            out = values  # fold()'s fresh array: nobody else holds it
        out = checked_out(out, values.shape, np.complex128)
        # Evaluation at mu_j = exp(i*pi*(4j+1)/N):
        #   X_j = sum_u x_u * mu_j^u
        #       = sum_u (x_u * e^{i*pi*u/N}) * e^{2*pi*i*j*u/(N/2)}
        # which is the unscaled inverse-oriented DFT of the twisted sequence.
        np.multiply(values, self._twist, out=out)
        return self._ifft(out, 1.0, out=out)

    def inverse(
        self,
        spectrum: np.ndarray,
        out: np.ndarray | None = None,
        *,
        folded: bool = False,
    ) -> np.ndarray:
        """Inverse folded transform: ``N/2`` points → ``N`` real coefficients.

        Returns ``float64`` coefficients of shape ``(..., N)``, or with
        ``folded=True`` the folded ``complex128`` array of shape
        ``(..., N/2)`` (what :meth:`unfold` would take).  ``out`` is an array
        of the returned shape and dtype.  ``spectrum`` is never modified
        unless it is itself passed as ``out`` (``folded=True`` only), in
        which case it is overwritten with the result.
        """
        values = self._folded(spectrum)
        work = checked_out(out if folded else None, values.shape, np.complex128)
        self._fft(values, 1.0, out=work)
        np.multiply(work, self._untwist_scaled, out=work)
        return work if folded else self.unfold(work, out=out)

    # -- convenience ----------------------------------------------------------

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic product of two integer polynomials using the folded FFT."""
        product = self.inverse(self.forward(a) * self.forward(b))
        return np.round(product).astype(np.int64)


def checked_out(
    out: np.ndarray | None, shape: tuple[int, ...], dtype: type, name: str = "out"
) -> np.ndarray:
    """``out`` if it has exactly ``shape`` and ``dtype``, a fresh array if it is ``None``."""
    if out is None:
        return np.empty(shape, dtype=dtype)
    if not isinstance(out, np.ndarray) or out.shape != shape or out.dtype != dtype:
        got = f"{out.dtype.name} {out.shape}" if isinstance(out, np.ndarray) else type(out).__name__
        raise ValueError(
            f"{name} must be a {np.dtype(dtype).name} array of shape {shape}, got {got}"
        )
    return out
