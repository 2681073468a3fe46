"""Negacyclic torus polynomial arithmetic.

GLWE ciphertexts and GGSW rows are vectors of polynomials in the ring
``Z_q[X] / (X^N + 1)``.  This module provides the operations blind rotation
needs on such polynomials: addition/subtraction, negacyclic monomial
rotation (multiplication by ``X^r``), and multiplication by an integer
polynomial with small coefficients (the decomposed digits), executed through
the FFT transforms of :mod:`repro.fft`.
"""

from __future__ import annotations

import numpy as np

from repro.fft.folding import FoldedNegacyclicTransform
from repro.fft.registry import get_folded_transform
from repro.tfhe import torus


def get_transform(degree: int) -> FoldedNegacyclicTransform:
    """Return (and cache) the folded negacyclic transform for ``degree``.

    Delegates to the shared per-degree registry (:mod:`repro.fft.registry`),
    so blind rotation, the vectorized batch kernels and the arch-tier FFT
    unit all reuse one set of twiddle tables per degree — and the registry's
    hit/miss counters see every lookup.
    """
    return get_folded_transform(degree)


def add(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Coefficient-wise addition modulo ``q``."""
    return torus.reduce(np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64), q)


def monomial_multiply(a: np.ndarray, exponent: int, q: int) -> np.ndarray:
    """Multiply a polynomial by ``X^exponent`` modulo ``X^N + 1``.

    ``exponent`` may be any integer (negative exponents rotate the other
    way); the result respects the negacyclic sign rule ``X^N = -1``.
    """
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[-1]
    exponent = exponent % (2 * n)
    if exponent == 0:
        return torus.reduce(a.copy(), q)
    negate_all = exponent >= n
    shift = exponent - n if negate_all else exponent
    rotated = np.empty_like(a)
    if shift:
        rotated[..., shift:] = a[..., : n - shift]
        rotated[..., :shift] = -a[..., n - shift :]
    else:
        rotated[...] = a
    if negate_all:
        rotated = -rotated
    return torus.reduce(rotated, q)


def integer_multiply(torus_poly: np.ndarray, integer_poly: np.ndarray, q: int) -> np.ndarray:
    """Multiply a torus polynomial by a small-coefficient integer polynomial.

    The torus operand is centered to ``[-q/2, q/2)`` before the transform to
    keep the floating-point products well inside a double's exact range, then
    the product is reduced back modulo ``q``.
    """
    torus_poly = np.asarray(torus_poly, dtype=np.int64)
    transform = get_transform(torus_poly.shape[-1])
    centered = torus.to_signed(torus_poly, q)
    product = transform.multiply(centered, np.asarray(integer_poly, dtype=np.int64))
    return torus.reduce(product, q)
