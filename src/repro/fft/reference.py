"""Exact reference implementations of negacyclic polynomial arithmetic.

These are deliberately written with Python integers so they are exact for any
coefficient width.  They are quadratic in the polynomial degree and are only
intended as ground truth for the unit and property tests of the fast
transforms in :mod:`repro.fft.negacyclic` and :mod:`repro.fft.folding`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def naive_negacyclic_convolution(
    a: Sequence[int], b: Sequence[int], modulus: int | None = None
) -> np.ndarray:
    """Slow reference: multiply two polynomials modulo ``X^N + 1`` exactly.

    Parameters
    ----------
    a, b:
        Coefficient sequences of equal length ``N``.
    modulus:
        Optional modulus applied to the result coefficients.

    Returns
    -------
    numpy.ndarray
        Array of ``N`` Python integers (``dtype=object``) holding the
        negacyclic convolution ``a * b mod (X^N + 1)``.
    """
    n = len(a)
    if len(b) != n:
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    result = [0] * n
    for i, ai in enumerate(a):
        ai = int(ai)
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            bj = int(bj)
            if bj == 0:
                continue
            idx = i + j
            if idx < n:
                result[idx] += ai * bj
            else:
                result[idx - n] -= ai * bj
    if modulus is not None:
        result = [c % modulus for c in result]
    return np.array(result, dtype=object)


def naive_negacyclic_rotation(a: Sequence[int], amount: int) -> np.ndarray:
    """Slow reference: multiply a polynomial by ``X^amount`` modulo ``X^N + 1`` exactly.

    A positive ``amount`` rotates coefficients towards higher degrees, with
    coefficients that wrap around past ``X^{N-1}`` re-entering negated.
    """
    n = len(a)
    amount = amount % (2 * n)
    result = [0] * n
    for i, coeff in enumerate(a):
        idx = i + amount
        sign = 1
        if idx >= 2 * n:
            idx -= 2 * n
        if idx >= n:
            idx -= n
            sign = -1
        result[idx] = sign * int(coeff)
    return np.array(result, dtype=object)


def naive_dft(values: Sequence[complex]) -> np.ndarray:
    """Slow reference: direct ``O(N^2)`` discrete Fourier transform (forward, no scaling)."""
    x = np.asarray(values, dtype=np.complex128)
    n = len(x)
    indices = np.arange(n)
    matrix = np.exp(-2j * np.pi * np.outer(indices, indices) / n)
    return matrix @ x


def naive_idft(values: Sequence[complex]) -> np.ndarray:
    """Slow reference: direct ``O(N^2)`` inverse discrete Fourier transform (scaled by 1/N)."""
    x = np.asarray(values, dtype=np.complex128)
    n = len(x)
    indices = np.arange(n)
    matrix = np.exp(2j * np.pi * np.outer(indices, indices) / n)
    return (matrix @ x) / n
