"""Vectorized batch kernels: the PBS chain over stacked arrays.

Each function here is the batch-axis twin of one scalar kernel — modulus
switch (:func:`repro.tfhe.blind_rotate.modulus_switch`), negacyclic monomial
rotation (:func:`repro.tfhe.polynomial.monomial_multiply`), the external
product (:meth:`repro.tfhe.ggsw.FourierGgswCiphertext.external_product`),
blind rotation, sample extraction, keyswitching and the full programmable /
gate bootstrap.  A batch of ``B`` LWE ciphertexts moves through the chain as
``(B, ...)`` stacks, so every numpy call amortizes its dispatch overhead over
the whole batch instead of paying it per ciphertext.

**Bit-for-bit honesty.** The contract — enforced by the seeded property
suite in ``tests/test_batch_kernels.py`` and by the deterministic
``kernel/*`` records in ``BENCH_sim.json`` — is that element ``i`` of every
batched result equals the scalar kernel applied to element ``i``, exactly,
not approximately.  Integer steps are exact by construction (the rotation is
a signed permutation, the digits are masked bit fields, reductions commute
with the additions between them).  Blind rotation runs in place in one
per-call workspace whose integer arrays are 32-bit torus words, keyswitching
contracts in ``float64``, and both stay equal to the scalar path's allocating
``int64`` steps for six reasons:

* *Power-of-two scale folding is exact.*  The transform's unscaled inverse
  DFT (numpy's pocketfft ``ifft`` gufunc at scale ``1.0``, the C loop that
  ``np.fft.ifft(norm="forward")`` runs) and precomputed ``untwist / half``
  replace ``ifft(...) * half`` and ``fft(...) / half * untwist``; multiplying
  a double by a power of two only changes its exponent, so both orders round
  identically.  Scalar and batched kernels call the same ``forward`` /
  ``inverse`` (``tests/test_fft_transforms.py`` pins them to the unfused
  formulas).
* *Slot assignment is* ``a + 1j*b``.  Writing digit ``u`` into the real slot
  and digit ``u + N/2`` into the imaginary slot of a complex buffer (what
  :func:`~repro.tfhe.decomposition.decompose_folded` and the transform's
  ``fold`` both do) yields the value the complex arithmetic would, up to
  the sign of a zero — and a signed zero cannot survive the final ``round``.
* ``einsum`` *is kept.*  The Fourier-domain multiply-accumulate is the same
  numpy primitive as the scalar ``"rf,rcf->cf"`` contraction with a batch
  subscript (and ``out=``), which reduces over the row axis in the same
  order.  An explicit ``multiply`` / ``+=`` chain over the rows was measured
  **not** bit-equal to it (about half the entries differ in the last bit);
  one ``einsum("brf,rf->bf", out=)`` per output polynomial was equal, and
  a little faster, but not by enough to pay for a second spelling.
* *Sub-batches share nothing writable.*  Blind rotation runs one contiguous
  sub-batch per available core, each on its own thread in its own slice of
  the workspace; elements never interact and the key and the twiddles are
  only read, so element ``i`` comes out the same bits whatever the cut.
* *32-bit wrap-around is the reduction.*  Every defined set has
  ``q = 2**32`` (and any ``q_bits <= 32`` divides it), so ``uint32``
  arithmetic — add, subtract, negate, the truncating copy of a rounded
  ``int64`` product — computes modulo a multiple of ``q``: the canonical
  representative at ``q_bits == 32``, one the final reduction maps to it
  otherwise.  The decomposer reads only the low ``q_bits`` bits anyway.  The
  word is :func:`repro.tfhe.torus.word` of ``params.q_bits`` (wider moduli
  fall back to ``int64``, whose wrap is ``2**64``); no caller chooses it.  The
  one public array that carries it is the keyswitching key's table, whose
  entries are canonical in ``[0, q)``; results are canonical ``int64`` as
  everywhere else.
* *The keyswitch GEMM cannot round.*  Digits (at most ``B_ks / 2``) and
  table entries (below ``q``) convert to ``float64`` exactly, and the rows
  are contracted in chunks short enough that even the sum of the products'
  absolute values stays below ``2**53``.  Every partial sum any BLAS kernel
  can form — whatever its blocking, summation order or use of fused
  multiply-add — is then an exactly representable integer, so the result is
  the integer sum, which is what the ``int64`` ``einsum`` computed.

The one control-flow divergence — the scalar loop *skips* blind-rotation
iterations whose switched mask element is zero — is harmless: a zero
exponent makes the CMux difference exactly zero, which decomposes to
all-zero digits and an exactly-zero external product, leaving the
accumulator untouched.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.fft.folding import FoldedNegacyclicTransform
from repro.params import TFHEParameters
from repro.tfhe import torus
from repro.tfhe.batch.types import GlweBatch, LweBatch
from repro.tfhe.decomposition import decompose, plan_decompose_folded
from repro.tfhe.keys import BootstrappingKey, KeySwitchingKey
from repro.tfhe.polynomial import get_transform


@dataclass
class BatchBootstrapResult:
    """Outcome of a batched programmable bootstrap.

    Mirrors :class:`repro.tfhe.bootstrap.BootstrapResult`: ``ciphertexts``
    is the refreshed batch (dimension ``n`` when keyswitching was applied,
    ``k*N`` otherwise) and ``extracted`` the batch straight after sample
    extraction, kept for analysis and the property tests.
    """

    ciphertexts: LweBatch
    extracted: LweBatch


# -- linear steps ---------------------------------------------------------------


def batch_modulus_switch(
    batch: LweBatch, params: TFHEParameters
) -> tuple[np.ndarray, np.ndarray]:
    """Switch a batch of LWE ciphertexts from modulus ``q`` to ``2N``.

    Returns ``(masks_2n, bodies_2n)`` of shapes ``(B, dim)`` and ``(B,)``.
    """
    two_n = 2 * params.N
    masks = torus.switch_modulus(batch.masks, params.q, two_n)
    bodies = torus.switch_modulus(batch.bodies, params.q, two_n)
    return masks.astype(np.int64), bodies.astype(np.int64)


def _rotation_windows(windows: np.ndarray) -> np.ndarray:
    """Every ``X^e * a`` of ``windows = [a, -a, a]`` (last axis ``3N``), as a read-only view.

    ``X^e * a`` for ``e`` in ``[0, 2N)`` is the contiguous slice ``[s, s + N)``
    with ``s = -e mod 2N``: stepping left past coefficient 0 re-enters at the
    top negated (``X^N = -1``), and past ``-a`` comes ``a`` again
    (``X^2N = 1``).  The view has shape ``(..., 2N + 1, N)`` — one row per
    slice start — and costs nothing until it is indexed; one fancy index
    ``view[arange(B), :, starts]`` then rotates a whole batch, each element
    by its own exponent.
    """
    n = windows.shape[-1] // 3
    step = windows.strides[-1]
    return np.lib.stride_tricks.as_strided(
        windows,
        shape=windows.shape[:-1] + (2 * n + 1, n),
        strides=windows.strides[:-1] + (step, step),
        writeable=False,
    )


def _window_starts(exponents: np.ndarray, n: int) -> np.ndarray:
    """Start of each element's ``X^exponent`` slice (any integer exponents)."""
    return np.mod(-np.asarray(exponents, dtype=np.int64), 2 * n)


def batch_monomial_multiply(
    polys: np.ndarray, exponents: np.ndarray, q: int
) -> np.ndarray:
    """Multiply each batch element's polynomials by its own ``X^exponent``.

    ``polys`` has shape ``(B, ..., N)`` (any number of middle axes, e.g. the
    ``k+1`` polynomials of a GLWE stack share their element's exponent);
    ``exponents`` has shape ``(B,)`` and may hold any integers.  The result
    respects the negacyclic sign rule ``X^N = -1`` exactly like the scalar
    :func:`repro.tfhe.polynomial.monomial_multiply`.
    """
    polys = np.asarray(polys, dtype=np.int64)
    n = polys.shape[-1]
    starts = _window_starts(exponents, n)
    if starts.shape != polys.shape[:1]:
        raise ValueError(
            f"expected one exponent per batch element, shape {polys.shape[:1]}, "
            f"got {starts.shape}"
        )
    windows = np.empty(polys.shape[:-1] + (3 * n,), dtype=np.int64)
    windows[..., :n] = polys
    np.negative(polys, out=windows[..., n : 2 * n])
    windows[..., 2 * n :] = polys
    rotated = np.empty(polys.shape, dtype=np.int64)
    for element, start in enumerate(starts.tolist()):
        rotated[element] = windows[element, ..., start : start + n]
    return torus.reduce(rotated, q, out=rotated)


# -- blind rotation ---------------------------------------------------------------


def batch_blind_rotate(
    test_vector: np.ndarray,
    batch: LweBatch,
    bootstrapping_key: BootstrappingKey,
    params: TFHEParameters,
) -> GlweBatch:
    """Homomorphically rotate ``test_vector`` by each ciphertext's phase.

    ``B`` encrypted phases and one test vector of shape ``(N,)`` shared by
    all, or ``(B, N)`` with row ``i`` for ciphertext ``i`` (one call then
    evaluates a different LUT per row): the batch twin of
    :func:`repro.tfhe.blind_rotate.blind_rotate`.  Each of the ``n``
    iterations is one batched CMux — Rotator, Decomposer, folded FFT, VMA,
    IFFT, Accumulator — streamed through one workspace that is allocated
    here, reused by every iteration with ``out=`` and dropped on return
    (about 7 MB at set I x 64, under 100 KB at SMALL x 1; the one array an
    iteration does allocate is the Rotator's gather, ``4 * (k+1) * N`` bytes
    per ciphertext).

    The paper's outer batching level (Section IV-C): the batch axis is cut into
    contiguous sub-batches — never more than the process has cores, none of
    several below ``MIN_SUB_BATCH_DIGITS`` of work — each running its ``n``
    iterations in its slice of that workspace, the first on the calling thread,
    the others on threads that end with the call; one sub-batch starts none.
    """
    if batch.params != params:
        raise ValueError(
            f"batch parameter set {batch.params.name!r} does not match {params.name!r}"
        )
    if len(bootstrapping_key) != batch.dimension:
        raise ValueError(
            f"bootstrapping key has {len(bootstrapping_key)} entries but the "
            f"ciphertexts have dimension {batch.dimension}"
        )
    batch_size, n_poly, half = len(batch), params.N, params.N // 2
    test_vector = np.asarray(test_vector, dtype=np.int64)
    if test_vector.shape not in ((n_poly,), (batch_size, n_poly)):
        raise ValueError(
            f"test vector must have shape ({n_poly},) or ({batch_size}, {n_poly}), "
            f"got {test_vector.shape}"
        )
    masks_2n, bodies_2n = batch_modulus_switch(batch, params)
    polys, levels = params.k + 1, params.lb

    # The integer side of the loop runs in the unsigned word of the modulus:
    # ``q`` divides ``2**32``, so the word's wrap-around *is* the reduction
    # mod ``q`` (``np.negative`` is negation mod ``q``, a sum needs no mask)
    # and no iteration reduces anything.  The accumulator lives in the first
    # third of the rotation windows; the GlweBatch built from it reduces once
    # (a no-op at ``q_bits == 32``), and modular arithmetic makes the result
    # bit-identical to the scalar step-by-step reductions.
    word = torus.word(params.q_bits)
    windows = np.empty((batch_size, polys, 3 * n_poly), dtype=word)
    accumulator = windows[..., :n_poly]
    accumulator[:, : params.k] = 0
    accumulator[:, params.k] = batch_monomial_multiply(
        np.broadcast_to(test_vector, (batch_size, n_poly)), -bodies_2n, params.q
    )
    difference = np.empty((batch_size, polys, n_poly), dtype=word)
    digits = np.empty((batch_size, polys, levels, n_poly), dtype=word)
    # Digits, their spectra and the twisted values in between share one
    # folded buffer; so do the key products and their inverse transform, whose
    # real / imaginary slots are rounded into ``rounded`` — 64 bits wide,
    # because a product coefficient reaches 2**53 before it wraps into the word.
    spectra = np.empty((batch_size, polys * levels, half), dtype=np.complex128)
    product = np.empty((batch_size, polys, half), dtype=np.complex128)
    rounded = np.empty((batch_size, polys, n_poly), dtype=np.int64)
    workspace = (windows, difference, digits, spectra, product, rounded, masks_2n)
    shared = (workspace, get_transform(n_poly), bootstrapping_key, params)
    first, *rest = _sub_batches(batch_size, polys * levels * n_poly)
    if not rest:  # batch 1, one core, a small set: not even an executor (~30 us) is built
        _cmux_iterations(first, *shared)
    else:
        with ThreadPoolExecutor(len(rest)) as pool:  # gone, threads and all, on exit
            pending = [pool.submit(_cmux_iterations, part, *shared) for part in rest]
            _cmux_iterations(first, *shared)
        for sub_batch in pending:
            sub_batch.result()  # raises what it raised, now that every thread has stopped
    canonical = accumulator.astype(np.int64)  # a copy: nothing returned aliases the workspace
    return GlweBatch(canonical[:, : params.k], canonical[:, params.k], params)


#: Fewest digit coefficients (``(k+1) * lb * N`` per ciphertext) in a sub-batch of
#: a split call: with less, the interpreter lock makes two threads slower than
#: one (table in ``docs/performance.md``).  Too large only forgoes a gain.
MIN_SUB_BATCH_DIGITS = 1 << 16


def _available_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _sub_batches(batch_size: int, digits_per_element: int) -> list[slice]:
    """``[0, batch_size)`` cut in order: at most one part per core, none of several too small."""
    fewest_elements = -(-MIN_SUB_BATCH_DIGITS // digits_per_element)
    parts = max(1, min(_available_cores(), batch_size // fewest_elements))
    bounds = [batch_size * part // parts for part in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _cmux_iterations(
    part: slice,
    workspace: tuple[np.ndarray, ...],
    transform: FoldedNegacyclicTransform,
    bootstrapping_key: BootstrappingKey,
    params: TFHEParameters,
) -> None:
    """All ``n`` CMux iterations of sub-batch ``part``, inside its slices of the workspace.

    Everything an iteration does not change — views, index arrays, the
    decomposer's plan, the key spectra — is bound before the loop (17 numpy
    calls per iteration remain at any ``lb``); the transform's ``forward`` /
    ``inverse`` stay per-iteration attribute lookups, so whoever wraps them
    for the length of a call sees every iteration.
    """
    windows, difference, digits, spectra, product, rounded, masks_2n = (
        a[part] for a in workspace
    )
    n_poly, half, polys, levels = params.N, params.N // 2, params.k + 1, params.lb
    accumulator = windows[..., :n_poly]
    negated, repeated = windows[..., n_poly : 2 * n_poly], windows[..., 2 * n_poly :]
    rotations, elements = _rotation_windows(windows), np.arange(len(windows))
    starts = list(_window_starts(masks_2n, n_poly).T)
    decompose_difference = plan_decompose_folded(
        difference,
        levels,
        params.log2_base_pbs,
        params.q_bits,
        out=spectra.reshape(-1, polys, levels, half),
        scratch=digits,
    )
    product_slots = product.view(np.float64).reshape(-1, polys, half, 2)
    real, imaginary = product_slots[..., 0], product_slots[..., 1]
    rounded_low, rounded_high = rounded[..., :half], rounded[..., half:]
    key_spectra = [entry.spectra for entry in bootstrapping_key]
    # An iteration whose exponents are all zero is skipped, exactly like the
    # scalar loop; a zero exponent next to non-zero ones needs no skip — its
    # difference, digits and product are exactly zero.
    for index in np.flatnonzero(masks_2n.any(axis=0)).tolist():
        np.negative(accumulator, out=negated)
        np.copyto(repeated, accumulator)
        # The Rotator: X^e * acc for the whole sub-batch is one gather.
        np.subtract(rotations[elements, :, starts[index]], accumulator, out=difference)
        decompose_difference()  # consumes difference; the copyto below refills it
        transform.forward(spectra, out=spectra, folded=True)
        np.einsum("brf,rcf->bcf", spectra, key_spectra[index], out=product)
        transform.inverse(product, out=product, folded=True)
        np.rint(real, out=rounded_low, casting="unsafe")
        np.rint(imaginary, out=rounded_high, casting="unsafe")
        np.copyto(difference, rounded, casting="unsafe")  # keeps the low bits: mod 2**32
        np.add(accumulator, difference, out=accumulator)


def batch_sample_extract(glwe_batch: GlweBatch) -> LweBatch:
    """Extract the constant-coefficient LWE ciphertext of every element.

    The batch twin of :meth:`repro.tfhe.glwe.GlweCiphertext.sample_extract`
    at index 0: mask coefficient ``i*N + j`` is ``A_i[-j]`` with the
    negacyclic sign for ``j > 0``.
    """
    masks = glwe_batch.masks  # (B, k, N)
    extracted = np.concatenate([masks[..., :1], -masks[..., :0:-1]], axis=-1)
    batch_size = len(glwe_batch)
    params = glwe_batch.params
    return LweBatch(
        extracted.reshape(batch_size, params.k * params.N),
        glwe_batch.bodies[:, 0],
        params,
    )


def batch_keyswitch(
    batch: LweBatch,
    keyswitching_key: KeySwitchingKey,
    params: TFHEParameters,
) -> LweBatch:
    """Switch a batch of extracted ciphertexts back to the ``n``-dim key.

    The batch twin of :func:`repro.tfhe.keyswitch.keyswitch`; the digits are
    pure ``int64`` and the contraction is an integer sum that no partial
    result of :func:`_contract_exactly` can round, so equality with the
    scalar path is exact by construction.
    """
    input_dim = params.k * params.N
    if batch.dimension != input_dim:
        raise ValueError(
            f"expected extracted ciphertexts of dimension {input_dim}, "
            f"got {batch.dimension}"
        )
    digits = decompose(batch.masks, params.lk, params.log2_base_ks, params.q_bits)
    # digits: (lk, B, k*N); table: (k*N, lk, n+1).  One row per (input
    # coefficient, level) on both sides, in the table's own order.
    rows = np.moveaxis(digits, 0, -1).reshape(len(batch), input_dim * params.lk)
    table = keyswitching_key.ciphertexts.reshape(input_dim * params.lk, params.n + 1)
    combination = _contract_exactly(rows, table, params.base_ks // 2, params.q)
    masks = torus.reduce(-combination[:, : params.n], params.q)
    bodies = np.mod(batch.bodies - combination[:, params.n], params.q)
    return LweBatch(masks, bodies, params)


#: Most bytes of keyswitching table converted to ``float64`` at a time: 512-row
#: chunks at set I run as fast as one 12 MB conversion and leave the peak alone.
_TABLE_CHUNK_BYTES = 1 << 21


def _contract_exactly(
    digits: np.ndarray, table: np.ndarray, digit_bound: int, q: int
) -> np.ndarray:
    """``digits @ table`` over integers, computed by ``float64`` GEMMs that cannot round.

    ``digits`` is ``(B, rows)`` with ``|digit| <= digit_bound``, ``table`` is
    ``(rows, columns)`` with entries in ``[0, q)``.  The rows are cut into chunks
    short enough that the absolute values of a chunk's products sum to less
    than ``2**53``: every partial sum a BLAS kernel can form, in whatever
    order, fused or not, is then an integer ``float64`` holds exactly.  Chunk
    results are accumulated in ``int64``.
    """
    rows, columns = table.shape
    exact_rows = (1 << 53) // (digit_bound * q)
    if not exact_rows:
        raise ValueError(
            f"one digit (up to {digit_bound}) times one entry below {q} exceeds float64's 2**53"
        )
    chunk = min(exact_rows, max(1, _TABLE_CHUNK_BYTES // (8 * columns)))
    total = np.zeros((len(digits), columns), dtype=np.int64)
    for lo in range(0, rows, chunk):
        left = digits[:, lo : lo + chunk].astype(np.float64)
        right = table[lo : lo + chunk].astype(np.float64)
        total += (left @ right).astype(np.int64)  # exact; only the int64 total may pass 2**53
    return total


# -- full bootstraps -------------------------------------------------------------


def batch_bootstrap_with_test_vector(
    batch: LweBatch,
    test_vector: np.ndarray,
    bootstrapping_key: BootstrappingKey,
    params: TFHEParameters,
    keyswitching_key: KeySwitchingKey | None = None,
) -> BatchBootstrapResult:
    """Blind rotate + sample extract (+ keyswitch) for a whole batch."""
    accumulator = batch_blind_rotate(test_vector, batch, bootstrapping_key, params)
    extracted = batch_sample_extract(accumulator)
    if keyswitching_key is None:
        return BatchBootstrapResult(extracted, extracted)
    switched = batch_keyswitch(extracted, keyswitching_key, params)
    return BatchBootstrapResult(switched, extracted)


# -- client-side helpers ---------------------------------------------------------


def batch_encrypt(
    values: np.ndarray,
    key_bits: np.ndarray,
    params: TFHEParameters,
    rng: np.random.Generator,
    noise_std: float | None = None,
) -> LweBatch:
    """Encrypt a vector of torus values under a binary LWE key, stacked.

    Draws all masks in one call and all noise in one call, so the *stream*
    of random draws differs from encrypting scalar ciphertexts one by one —
    the ciphertexts are equally valid but not byte-identical to a scalar
    loop on the same generator state.  (Server-side kernels, where the
    bit-for-bit contract lives, involve no randomness.)
    """
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 1 or values.shape[0] == 0:
        raise ValueError(f"expected a non-empty 1-D value vector, got shape {values.shape}")
    key_bits = np.asarray(key_bits, dtype=np.int64)
    std = params.lwe_noise_std if noise_std is None else noise_std
    masks = torus.uniform((values.shape[0], key_bits.shape[0]), params.q, rng)
    noise = torus.gaussian_noise(values.shape[0], std, params.q, rng)
    bodies = masks @ key_bits + values + noise
    return LweBatch(masks, bodies, params)


def batch_phase(batch: LweBatch, key_bits: np.ndarray) -> np.ndarray:
    """Noisy phases ``b - <a, s>`` of a batch, shape ``(B,)``.

    Exact ``int64`` arithmetic, identical to the scalar
    :meth:`repro.tfhe.lwe.LweCiphertext.phase` on every element.
    """
    key_bits = np.asarray(key_bits, dtype=np.int64)
    if key_bits.shape[0] != batch.dimension:
        raise ValueError(
            f"key dimension {key_bits.shape[0]} does not match ciphertext "
            f"dimension {batch.dimension}"
        )
    return np.mod(batch.bodies - batch.masks @ key_bits, batch.params.q)
