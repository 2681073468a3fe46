"""Signed gadget decomposition.

Both the external product (blind rotation) and keyswitching decompose torus
values into a small number of signed digits in a power-of-two base, keeping
only the most significant ``levels * log2(base)`` bits (Equation 3 of the
paper).  Strix implements this step in the streaming Decomposer unit; here we
provide the bit-exact reference used by the functional TFHE implementation.

The decomposition of ``a`` into digits ``d_1 .. d_l`` (``d_i`` roughly in
``[-B/2, B/2]``) satisfies

.. math::

    \\Bigl| a - \\sum_{i=1}^{l} d_i \\frac{q}{B^i} \\Bigr| \\le \\frac{q}{2 B^l}

in wrap-around distance, which is exactly the bound the paper states.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.fft.folding import checked_out


def decompose(
    values: np.ndarray,
    levels: int,
    log2_base: int,
    q_bits: int = 32,
) -> np.ndarray:
    """Decompose torus values into signed digits.

    Parameters
    ----------
    values:
        Array of canonical torus values (any shape).
    levels:
        Number of digits to produce.
    log2_base:
        log2 of the decomposition base ``B``.
    q_bits:
        Width of the torus modulus.

    Returns
    -------
    numpy.ndarray
        Array with one extra leading axis of length ``levels``; entry ``i``
        holds the digit that multiplies ``q / B^(i+1)``.  Digits lie in
        ``[-B/2, B/2]``.
    """
    shifted, base, half_base = _carry_folded_gamma(values, levels, log2_base, q_bits)
    shifts = (np.arange(levels - 1, -1, -1, dtype=np.int64) * log2_base).reshape(
        (levels,) + (1,) * shifted.ndim
    )
    return ((shifted[None] >> shifts) & (base - 1)) - half_base


def decompose_rows(
    values: np.ndarray,
    levels: int,
    log2_base: int,
    q_bits: int = 32,
) -> np.ndarray:
    """Signed digits with the level axis *inside*: shape ``(..., levels, N)``.

    Bit-identical digits to :func:`decompose`, but laid out so that the
    digit polynomials of one input polynomial are adjacent — the row order
    the external product feeds to the FFT.  Emitting this layout directly
    saves the transpose copy that reordering :func:`decompose`'s
    level-major output would cost on every external product.  (The
    vectorized kernels go one step further: :func:`decompose_folded`.)
    """
    shifted, base, half_base = _carry_folded_gamma(values, levels, log2_base, q_bits)
    shifts = (np.arange(levels - 1, -1, -1, dtype=np.int64) * log2_base)[:, None]
    return ((shifted[..., None, :] >> shifts) & (base - 1)) - half_base


def decompose_folded(
    values: np.ndarray,
    levels: int,
    log2_base: int,
    q_bits: int = 32,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Test entry point, the one-shot :func:`plan_decompose_folded`: digits in the folded layout.

    The digits of :func:`decompose_rows`, but stored the way the folded FFT
    (:meth:`repro.fft.folding.FoldedNegacyclicTransform.fold`) wants them:
    for ``values`` of shape ``(..., N)`` the result is ``complex128`` of
    shape ``(..., levels, N/2)`` holding digit coefficient ``u`` in the real
    slot and ``u + N/2`` in the imaginary slot of point ``u`` — no integer
    digit array, float conversion or ``a + 1j*b`` pass in between.

    Only the low ``q_bits`` bits of each value are read (every digit is a
    masked bit field below bit ``q_bits`` and the rounding carry out of the
    top digit is discarded), so any representative modulo ``q`` decomposes
    like the canonical one.  The arithmetic runs in the *word* of ``values``:
    ``uint32`` stays ``uint32`` (the blind-rotation workspace, whose
    wrap-around is the reduction), anything else is read as ``int64``.
    ``values`` is left untouched; ``out`` and ``scratch`` (the word, shape
    ``(..., levels, N)``) let a caller reuse its buffers and are allocated
    when omitted.
    """
    return plan_decompose_folded(values, levels, log2_base, q_bits, out, scratch)()


def plan_decompose_folded(
    values: np.ndarray,
    levels: int,
    log2_base: int,
    q_bits: int = 32,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> Callable[[], np.ndarray]:
    """:func:`decompose_folded` bound to its buffers, for a loop that refills ``values``.

    Everything that does not depend on the contents of ``values`` happens
    here, once: the buffers are checked, the addend, shifts and mask become
    scalars of the word, the level rows, coefficient halves and complex slots
    become views.  Each call of the returned function then decomposes whatever
    ``values`` holds at that moment into ``out`` and returns ``out``.
    """
    addend, dropped_bits = _carry_addend(levels, log2_base, q_bits)
    values = np.asarray(values)
    if values.dtype != np.uint32:
        values = np.asarray(values, dtype=np.int64)
    word = values.dtype.type
    if q_bits > 8 * values.itemsize:
        raise ValueError(f"a {q_bits}-bit modulus does not fit {values.dtype.name} values")
    degree = values.shape[-1]
    half = degree // 2
    scratch = checked_out(scratch, values.shape[:-1] + (levels, degree), word, "scratch")
    out = checked_out(out, values.shape[:-1] + (levels, half), np.complex128)
    slots = out.view(np.float64).reshape(out.shape + (2,))
    real, imaginary = slots[..., 0], slots[..., 1]
    low, high = scratch[..., :half], scratch[..., half:]
    # Level 0 holds the sum and is shifted last (in place), so no level
    # reads a row that an earlier one has already overwritten.
    summed = scratch[..., 0, :]
    shifted = [
        (word(dropped_bits + (levels - 1 - level) * log2_base), scratch[..., level, :])
        for level in range(levels - 1, -1, -1)
    ]
    addend, mask = word(addend), word((1 << log2_base) - 1)
    # A float offset selects the float64 loop (the word may be unsigned, where
    # ``field - B/2`` would wrap); a digit field of ``log2_base`` bits converts exactly.
    half_base = float((1 << log2_base) >> 1)

    def apply() -> np.ndarray:
        np.add(values, addend, out=summed)
        for shift, row in shifted:
            np.right_shift(summed, shift, out=row)
        np.bitwise_and(scratch, mask, out=scratch)
        np.subtract(low, half_base, out=real)
        np.subtract(high, half_base, out=imaginary)
        return out

    return apply


def _carry_folded_gamma(
    values: np.ndarray, levels: int, log2_base: int, q_bits: int
) -> tuple[np.ndarray, int, int]:
    """Rounded ``gamma`` with every balancing carry pre-applied.

    Each signed digit then comes out of one shift/mask/offset, bit-identical
    to propagating the carries level by level but without the sequential
    loop (this is the hot inner step of the scalar external product and of
    keyswitching).  The sum stays below ``2 * B^levels``, far inside int64.
    """
    addend, dropped_bits = _carry_addend(levels, log2_base, q_bits)
    base = 1 << log2_base
    gamma = (np.asarray(values, dtype=np.int64) + addend) >> dropped_bits
    return gamma, base, base >> 1


def _carry_addend(levels: int, log2_base: int, q_bits: int) -> tuple[int, int]:
    """``(addend, dropped_bits)`` of the carry-folded rounding.

    ``(value + addend) >> dropped_bits`` rounds to the closest multiple of
    ``q / B^levels`` (an integer gamma in ``[0, B^levels)``) and adds
    ``B/2 * (1 + B + .. + B^(levels-1))``, which applies all the
    digit-balancing carries at once.  The carry offset rides in the addend
    pre-shifted by ``dropped_bits`` — a multiple of the shift, so the shift
    moves it out exactly.
    """
    kept_bits = levels * log2_base
    if kept_bits > q_bits:
        raise ValueError(
            f"decomposition keeps {kept_bits} bits which exceeds the {q_bits}-bit modulus"
        )
    base = 1 << log2_base
    dropped_bits = q_bits - kept_bits
    offset = (base >> 1) * (((1 << kept_bits) - 1) // (base - 1))
    rounding = 1 << (dropped_bits - 1) if dropped_bits else 0
    return (offset << dropped_bits) + rounding, dropped_bits


def recompose(
    digits: np.ndarray,
    log2_base: int,
    q_bits: int = 32,
) -> np.ndarray:
    """Test reference: rebuild the rounded torus values from their signed digits.

    Inverse (up to the rounding error bound) of :func:`decompose`; used by
    the property tests.
    """
    digits = np.asarray(digits, dtype=np.int64)
    levels = digits.shape[0]
    q = 1 << q_bits
    result = np.zeros(digits.shape[1:], dtype=np.int64)
    for level in range(levels):
        scale = 1 << (q_bits - (level + 1) * log2_base)
        result = result + digits[level] * scale
    return np.mod(result, q)


def decompose_polynomial_list(
    polys: np.ndarray,
    levels: int,
    log2_base: int,
    q_bits: int = 32,
) -> np.ndarray:
    """Decompose a batch of polynomials into digit polynomials.

    Given an array of shape ``(m, N)`` the result has shape
    ``(m * levels, N)`` ordered as ``(poly_0 level_1 .. level_l, poly_1
    level_1 ..)``, which is the row ordering expected by the external product
    against a GGSW matrix.
    """
    polys = np.asarray(polys, dtype=np.int64)
    if polys.ndim != 2:
        raise ValueError(f"expected a 2-D array of polynomials, got shape {polys.shape}")
    # decompose_rows emits (m, levels, N) directly, so flattening the row
    # axis is a contiguous (copy-free) reshape.
    return decompose_rows(polys, levels, log2_base, q_bits).reshape(-1, polys.shape[1])


def decomposition_error_bound(levels: int, log2_base: int, q_bits: int = 32) -> int:
    """Test reference: worst-case wrap-around reconstruction error, ``q / (2 * B^levels)``."""
    return 1 << max(q_bits - levels * log2_base - 1, 0)
