"""Vectorized batch kernels vs. the scalar reference, bit for bit.

The contract of :mod:`repro.tfhe.batch` is *exact* equality: element ``i``
of every batched kernel result must equal the scalar kernel applied to
element ``i`` — same masks, same bodies, to the last bit.  This suite
enforces that with seeded randomized sweeps across parameter sets and batch
sizes, covers the degenerate shapes (empty batches raise, batch-1 equals
scalar exactly), holds every batch API of
:class:`~repro.runtime.session.Session` to its per-ciphertext API (the scalar
oracle: slow reference, fast path, element-wise equality) and an N-instance
reference-backend run to N one-instance runs, holds blind rotation to the
same bits however its batch axis is cut into per-core sub-batches, holds the
keyswitch GEMM to integer references where it is hardest, and covers the
transform-instance registry and the ``LWE1`` byte codec's stacked side.
"""

from __future__ import annotations

import dataclasses
import keyword
import sys
import threading
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.accelerator import StrixAccelerator
from repro.arch.config import STRIX_DEFAULT

from repro.fft import (
    clear_transform_caches,
    get_folded_transform,
    get_negacyclic_transform,
    register_transform_cache_view,
    transform_cache_stats,
)
from repro.obs.metrics import MetricsRegistry
from repro.params import PARAM_SET_I, PARAM_SET_IV, SMALL_PARAMETERS, TOY_PARAMETERS
from repro.runtime.api import run
from repro.runtime.session import Session
from repro.sim.compiler import Netlist, full_adder_netlist
from repro.tfhe.batch import (
    GATES,
    GlweBatch,
    LweBatch,
    batch_blind_rotate,
    batch_keyswitch,
    batch_bootstrap_with_test_vector,
    batch_monomial_multiply,
    batch_sample_extract,
    kernels,
)
from repro.tfhe.blind_rotate import blind_rotate, make_constant_test_vector, make_test_vector
from repro.tfhe.bootstrap import programmable_bootstrap
from repro.tfhe.context import TFHEContext
from repro.tfhe.decomposition import decompose, decompose_folded
from repro.tfhe.keyswitch import keyswitch
from repro.tfhe.lut import LookUpTable, relu_lut
from repro.tfhe.lwe import LweCiphertext
from repro.tfhe.polynomial import monomial_multiply
from repro.tfhe.serialization import LWE_WIRE_MAGIC, lwe_batch_from_bytes, lwe_to_bytes

from test_level_executor import batch_gate

#: (parameter set, batch sizes swept).  TOY covers the paper's batch-64
#: epoch shape; SMALL covers ``k > 1`` with smaller batches to keep the
#: scalar comparison loop fast.
SWEEPS = [
    (TOY_PARAMETERS, (1, 2, 3, 7, 64)),
    (SMALL_PARAMETERS, (1, 2, 3, 7)),
]


@pytest.fixture(scope="module")
def toy_context() -> TFHEContext:
    context = TFHEContext(TOY_PARAMETERS, seed=1234)
    context.generate_server_keys()
    return context


@pytest.fixture(scope="module")
def small_context() -> TFHEContext:
    context = TFHEContext(SMALL_PARAMETERS, seed=1234)
    context.generate_server_keys()
    return context


def _context_for(params, toy_context, small_context) -> TFHEContext:
    return toy_context if params is TOY_PARAMETERS else small_context


def _assert_batch_equals_scalars(batch: LweBatch, scalars) -> None:
    assert len(batch) == len(scalars)
    for index, scalar in enumerate(scalars):
        np.testing.assert_array_equal(batch.masks[index], scalar.mask)
        assert int(batch.bodies[index]) == scalar.body


def _with_edge_exponents(ciphertexts, params):
    """The same ciphertexts with mask columns forced onto the rotation's edges.

    After the modulus switch column 0 is zero for *every* element (the
    iteration both loops skip), column 1 is zero for all but the first
    element, columns 2 and 3 cycle through ``0 / N / 2N-1`` element by
    element, column 4 is ``N`` (pure negation) everywhere and column 5 cycles
    through ``1 / N-1 / N+1``; the remaining columns keep their fresh values.
    Three elements or more therefore meet every window start next to a seam
    of ``[acc, -acc, acc]``: 0, 1, ``N-1``, ``N``, ``N+1`` and ``2N-1``.
    """
    step = params.q // (2 * params.N)
    edges = (0, params.N, 2 * params.N - 1)
    seams = (1, params.N - 1, params.N + 1)
    forced = []
    for index, ciphertext in enumerate(ciphertexts):
        mask = ciphertext.mask.copy()
        mask[0] = 0
        mask[1] = step if index == 0 else 0
        mask[2] = edges[index % 3] * step
        mask[3] = edges[(index + 1) % 3] * step
        mask[4] = params.N * step
        mask[5] = seams[index % 3] * step
        forced.append(LweCiphertext(mask, ciphertext.body, params))
    return forced


#: A TOY LUT: a table over the messages (any length, read cyclically) or a constant.
_TOY_LUTS = st.one_of(
    st.lists(st.integers(0, 2 * TOY_PARAMETERS.message_modulus - 1), min_size=1, max_size=8),
    st.integers(0, TOY_PARAMETERS.q - 1),
)


def _toy_test_vector(lut: list[int] | int) -> np.ndarray:
    """``make_test_vector`` of a table, ``make_constant_test_vector`` of a constant."""
    if isinstance(lut, int):
        return make_constant_test_vector(lut, TOY_PARAMETERS)
    return make_test_vector(lambda m: lut[m % len(lut)], TOY_PARAMETERS)


# -- stacked containers ----------------------------------------------------------


class TestBatchTypes:
    def test_lwe_round_trip_is_loss_free(self, toy_context):
        ciphertexts = [toy_context.encrypt(m % 4) for m in range(5)]
        batch = LweBatch.from_ciphertexts(ciphertexts)
        assert len(batch) == 5
        assert batch.dimension == TOY_PARAMETERS.n
        _assert_batch_equals_scalars(batch, ciphertexts)
        _assert_batch_equals_scalars(batch, batch.to_ciphertexts())

    def test_empty_lwe_batch_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            LweBatch.from_ciphertexts([])
        with pytest.raises(ValueError, match="at least one"):
            LweBatch(
                np.empty((0, TOY_PARAMETERS.n), dtype=np.int64),
                np.empty((0,), dtype=np.int64),
                TOY_PARAMETERS,
            )

    def test_mixed_dimensions_rejected(self, toy_context):
        narrow = toy_context.encrypt(1)
        wide = toy_context.programmable_bootstrap(narrow, lambda m: m, keyswitch=False)
        with pytest.raises(ValueError, match="mixed dimensions"):
            LweBatch.from_ciphertexts([narrow, wide.ciphertext])

    def test_empty_glwe_batch_raises(self):
        params = TOY_PARAMETERS
        with pytest.raises(ValueError, match="at least one"):
            GlweBatch(
                np.empty((0, params.k, params.N), dtype=np.int64),
                np.empty((0, params.N), dtype=np.int64),
                params,
            )


# -- seeded property sweeps -------------------------------------------------------


class TestBitForBitEquality:
    @pytest.mark.parametrize(
        "params,batch_sizes", SWEEPS, ids=[p.name for p, _ in SWEEPS]
    )
    def test_programmable_bootstrap_chain(
        self, params, batch_sizes, toy_context, small_context
    ):
        """Blind rotate + extract + keyswitch: batched == scalar, bit for bit."""
        context = _context_for(params, toy_context, small_context)
        keys = context.server_keys
        rng = np.random.default_rng(2024)
        p = params.message_modulus

        def function(m: int) -> int:
            return (3 * m + 1) % p

        test_vector = make_test_vector(function, params)
        for batch_size in batch_sizes:
            messages = rng.integers(0, p, size=batch_size)
            fresh = [context.encrypt(int(m)) for m in messages]
            for ciphertexts in (fresh, _with_edge_exponents(fresh, params)):
                stacked = LweBatch.from_ciphertexts(ciphertexts)
                accumulators = batch_blind_rotate(
                    test_vector, stacked, keys.bootstrapping_key, params
                )
                for index, ciphertext in enumerate(ciphertexts):
                    scalar = blind_rotate(test_vector, ciphertext, keys.bootstrapping_key, params)
                    np.testing.assert_array_equal(accumulators.masks[index], scalar.mask)
                    np.testing.assert_array_equal(accumulators.bodies[index], scalar.body)
                batched = batch_bootstrap_with_test_vector(
                    stacked, test_vector, keys.bootstrapping_key, params, keys.keyswitching_key
                )
                scalars = [
                    programmable_bootstrap(
                        ct, function, keys.bootstrapping_key, params, keys.keyswitching_key
                    )
                    for ct in ciphertexts
                ]
                _assert_batch_equals_scalars(batched.ciphertexts, [s.ciphertext for s in scalars])
                _assert_batch_equals_scalars(batched.extracted, [s.extracted for s in scalars])

    def test_all_zero_exponents_leave_the_test_vector_alone(self, toy_context):
        """Every iteration skipped: the accumulator is the trivial GLWE, rotated."""
        params = TOY_PARAMETERS
        keys = toy_context.server_keys
        test_vector = make_test_vector(lambda m: m, params)
        bodies = np.array([0, params.q // 4, params.q - 1])
        stacked = LweBatch(np.zeros((3, params.n), dtype=np.int64), bodies, params)
        accumulators = batch_blind_rotate(test_vector, stacked, keys.bootstrapping_key, params)
        assert not accumulators.masks.any()
        for index, ciphertext in enumerate(stacked.to_ciphertexts()):
            scalar = blind_rotate(test_vector, ciphertext, keys.bootstrapping_key, params)
            np.testing.assert_array_equal(accumulators.bodies[index], scalar.body)

    @pytest.mark.parametrize(
        "shape",
        [(), (1,), (TOY_PARAMETERS.N // 2,), (2, TOY_PARAMETERS.N)],
        ids=["0-d", "length-1", "half-length", "2-d"],
    )
    def test_blind_rotate_rejects_a_misshapen_test_vector(self, toy_context, shape):
        """The scalar path's contract: no silent broadcast over the coefficients."""
        params = TOY_PARAMETERS
        keys = toy_context.server_keys
        ciphertext = toy_context.encrypt(1)
        test_vector = np.full(shape, params.q // 8, dtype=np.int64)
        with pytest.raises(ValueError, match=r"body must have shape \(128,\)"):
            blind_rotate(test_vector, ciphertext, keys.bootstrapping_key, params)
        with pytest.raises(ValueError, match=r"must have shape \(128,\) or \(1, 128\)"):
            batch_blind_rotate(
                test_vector,
                LweBatch.from_ciphertexts([ciphertext]),
                keys.bootstrapping_key,
                params,
            )

    @given(luts=st.lists(_TOY_LUTS, min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_each_row_rotates_its_own_test_vector(self, toy_context, luts, seed):
        """A ``(B, N)`` stack of mixed LUTs: row ``i`` == scalar ``blind_rotate`` with its own."""
        params = TOY_PARAMETERS
        key = toy_context.server_keys.bootstrapping_key
        test_vectors = np.stack([_toy_test_vector(lut) for lut in luts])
        rng = np.random.default_rng(seed)
        masks = rng.integers(0, params.q, size=(len(luts), params.n))
        stacked = LweBatch(masks, rng.integers(0, params.q, size=len(luts)), params)
        rotated = batch_blind_rotate(test_vectors, stacked, key, params)
        ciphertexts = stacked.to_ciphertexts()
        oracle = [blind_rotate(tv, ct, key, params) for tv, ct in zip(test_vectors, ciphertexts)]
        _assert_rotations_equal_scalars(rotated, dict(enumerate(oracle)))

    def test_blind_rotate_rejects_a_batch_of_another_parameter_set(self, toy_context):
        keys = toy_context.server_keys
        ciphertext = toy_context.encrypt(1)
        mislabeled = LweBatch(ciphertext.mask[None, :], [ciphertext.body], SMALL_PARAMETERS)
        test_vector = make_test_vector(lambda m: m, TOY_PARAMETERS)
        with pytest.raises(ValueError, match="parameter set 'SMALL' does not match 'TOY'"):
            batch_blind_rotate(test_vector, mislabeled, keys.bootstrapping_key, TOY_PARAMETERS)

    def test_batch_of_one_equals_scalar_exactly(self, toy_context):
        keys = toy_context.server_keys
        params = TOY_PARAMETERS
        ciphertext = toy_context.encrypt(2)
        batched = batch_bootstrap_with_test_vector(
            LweBatch.from_ciphertexts([ciphertext]),
            make_test_vector(lambda m: m, params),
            keys.bootstrapping_key,
            params,
            keys.keyswitching_key,
        )
        scalar = programmable_bootstrap(
            ciphertext, lambda m: m, keys.bootstrapping_key, params, keys.keyswitching_key
        )
        np.testing.assert_array_equal(batched.ciphertexts.masks[0], scalar.ciphertext.mask)
        assert int(batched.ciphertexts.bodies[0]) == scalar.ciphertext.body

    @pytest.mark.parametrize(
        "params,batch_sizes", SWEEPS, ids=[p.name for p, _ in SWEEPS]
    )
    def test_monomial_multiply(self, params, batch_sizes, toy_context, small_context):
        """Batched negacyclic rotation == scalar for random and edge exponents."""
        rng = np.random.default_rng(7)
        n = params.N
        for batch_size in batch_sizes:
            polys = rng.integers(0, params.q, size=(batch_size, n), dtype=np.int64)
            edge = np.array([0, 1, n - 1, n, 2 * n - 1, -1, -n, 3 * n])
            exponents = np.concatenate(
                [edge, rng.integers(-2 * n, 2 * n, size=batch_size)]
            )[:batch_size]
            rotated = batch_monomial_multiply(polys, exponents, params.q)
            for index in range(batch_size):
                expected = monomial_multiply(
                    polys[index], int(exponents[index]), params.q
                )
                np.testing.assert_array_equal(rotated[index], expected)

    @pytest.mark.parametrize("degree", [128, 256])
    @pytest.mark.parametrize("k", [1, 2])
    def test_monomial_multiply_every_exponent(self, degree, k):
        """One batch element per exponent in ``[-2N, 2N]``, ``k + 1`` polynomials each."""
        q = TOY_PARAMETERS.q
        rng = np.random.default_rng([degree, k])
        exponents = np.arange(-2 * degree, 2 * degree + 1)
        polys = rng.integers(0, q, size=(len(exponents), k + 1, degree), dtype=np.int64)
        kept = polys.copy()
        rotated = batch_monomial_multiply(polys, exponents, q)
        np.testing.assert_array_equal(polys, kept)
        for index, exponent in enumerate(exponents):
            expected = monomial_multiply(polys[index], int(exponent), q)
            np.testing.assert_array_equal(rotated[index], expected)

    def test_monomial_multiply_wants_one_exponent_per_element(self):
        polys = np.zeros((3, 8), dtype=np.int64)
        with pytest.raises(ValueError, match="one exponent per batch element"):
            batch_monomial_multiply(polys, np.array([1, 2]), TOY_PARAMETERS.q)

    @pytest.mark.parametrize("degree", [8, 128])
    @pytest.mark.parametrize("k", [1, 2])
    def test_the_rotation_view_gathers_every_exponent(self, degree, k):
        """One fancy index into the ``[a, -a, a]`` view == ``monomial_multiply``, ``uint32``."""
        q = 1 << 32
        rng = np.random.default_rng([degree, k, 20])
        exponents = np.arange(2 * degree)
        polys = rng.integers(0, q, size=(len(exponents), k + 1, degree), dtype=np.uint32)
        windows = np.concatenate([polys, np.negative(polys), polys], axis=-1)
        view = kernels._rotation_windows(windows)
        assert view.shape == (len(exponents), k + 1, 2 * degree + 1, degree)
        assert not view.flags.writeable and np.shares_memory(view, windows)
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0, 0] = 1
        np.testing.assert_array_equal(view[..., 2 * degree, :], polys)  # the last start, in bounds
        starts = kernels._window_starts(exponents, degree)
        assert sorted(starts.tolist()) == list(range(2 * degree))
        gathered = view[np.arange(len(exponents)), :, starts]
        assert gathered.dtype == np.uint32 and gathered.shape == polys.shape
        for exponent in exponents.tolist():
            expected = monomial_multiply(polys[exponent].astype(np.int64), exponent, q)
            np.testing.assert_array_equal(gathered[exponent], expected)

    @pytest.mark.parametrize(
        "levels,log2_base,q_bits",
        [(2, 10, 32), (3, 8, 32), (4, 8, 32), (2, 16, 32), (1, 4, 32), (3, 4, 12)],
        ids=["set-I", "toy", "no-bits-dropped", "wide-base", "one-level", "q12-exact"],
    )
    def test_decompose_folded_matches_decompose(self, levels, log2_base, q_bits):
        """Folded-layout digits == ``decompose``, in both words; the last level's
        shift is 0 when no bits are dropped (``levels * log2_base == q_bits``)."""
        rng = np.random.default_rng([levels, log2_base])
        q = 1 << q_bits
        degree = 16
        values = rng.integers(0, q, size=(5, 2, degree), dtype=np.int64)
        values[0, 0, :4] = (0, q - 1, q // 2, q // 2 - 1)
        kept = values.copy()
        digits = decompose(values, levels, log2_base, q_bits)  # (levels, 5, 2, N)
        expected = np.moveaxis(digits, 0, -2)  # (5, 2, levels, N)

        folded = decompose_folded(values, levels, log2_base, q_bits)
        assert folded.dtype == np.complex128 and folded.shape == (5, 2, levels, degree // 2)
        np.testing.assert_array_equal(folded.real, expected[..., : degree // 2])
        np.testing.assert_array_equal(folded.imag, expected[..., degree // 2 :])
        np.testing.assert_array_equal(values, kept)

        # Reused buffers, and representatives that were never reduced mod q, in
        # either word: ``int64`` ones reach 500 multiples of q to both sides,
        # ``uint32`` ones are what those wrap to mod 2**32 (the canonical value
        # itself at q_bits == 32, a genuinely unreduced one at q_bits == 12).
        unreduced = values + q * rng.integers(-500, 500, size=values.shape)
        for word in (np.int64, np.uint32):
            shifted = unreduced.astype(word)
            assert q_bits == 32 or (shifted >= q).any()
            given = shifted.copy()
            out = np.empty_like(folded)
            scratch = np.empty((5, 2, levels, degree), dtype=word)
            assert decompose_folded(shifted, levels, log2_base, q_bits, out, scratch) is out
            np.testing.assert_array_equal(out, folded)
            np.testing.assert_array_equal(shifted, given)
            fresh = decompose_folded(shifted, levels, log2_base, q_bits)  # allocates the word
            np.testing.assert_array_equal(fresh, folded)

    def test_keyswitch_matches_scalar(self, small_context):
        """The int-exact keyswitch contraction: batched == scalar on k > 1."""
        params = SMALL_PARAMETERS
        keys = small_context.server_keys
        rng = np.random.default_rng(11)
        extracted = []
        for message in rng.integers(0, params.message_modulus, size=4):
            ct = small_context.encrypt(int(message))
            extracted.append(
                programmable_bootstrap(
                    ct, lambda m: m, keys.bootstrapping_key, params
                ).ciphertext
            )
        batched = batch_keyswitch(
            LweBatch.from_ciphertexts(extracted), keys.keyswitching_key, params
        )
        scalars = [keyswitch(ct, keys.keyswitching_key, params) for ct in extracted]
        _assert_batch_equals_scalars(batched, scalars)

    def test_sample_extract_rejects_nothing_but_chain_validates_shapes(
        self, toy_context
    ):
        params = TOY_PARAMETERS
        keys = toy_context.server_keys
        narrow = LweBatch.from_ciphertexts([toy_context.encrypt(1)])
        with pytest.raises(ValueError, match="dimension"):
            batch_keyswitch(narrow, keys.keyswitching_key, params)
        rng = np.random.default_rng(3)
        stack = GlweBatch(
            rng.integers(0, params.q, size=(2, params.k, params.N)),
            rng.integers(0, params.q, size=(2, params.N)),
            params,
        )
        extracted = batch_sample_extract(stack)
        for index, glwe in enumerate(stack.to_ciphertexts()):
            scalar = glwe.sample_extract(0)
            np.testing.assert_array_equal(extracted.masks[index], scalar.mask)
            assert int(extracted.bodies[index]) == scalar.body


class TestExactContraction:
    """The keyswitch GEMM against integer references, where float64 is closest to rounding."""

    @staticmethod
    def _worst_digits(rows: int, bound: int) -> np.ndarray:
        """All ``+bound``, all ``-bound`` and alternating: every sum of magnitudes is maximal."""
        signs = np.ones((3, rows), dtype=np.int64)
        signs[1] = -1
        signs[2, ::2] = -1
        return signs * bound

    def test_worst_case_at_set_IV_row_count_equals_python_ints(self):
        """65,536 rows of ``B_ks/2 * (q - 1)``: one GEMM whose sums reach 2**51."""
        params = PARAM_SET_IV
        rows = params.k * params.N * params.lk
        bound = params.base_ks // 2
        digits = self._worst_digits(rows, bound)
        table = np.full((rows, 4), params.q - 1, dtype=np.int64)
        combination = kernels._contract_exactly(digits, table, bound, params.q)
        assert combination.dtype == np.int64
        assert int(combination[0, 0]) == rows * bound * (params.q - 1) > 1 << 50
        reference = digits.astype(object) @ table.astype(object)
        assert (combination.astype(object) == reference).all()

    def test_a_bound_past_2_53_is_cut_into_exact_chunks(self):
        """``log2_base_ks = 8, lk = 4, k*N = 16384``: no single GEMM could be exact."""
        rows, columns, bound, q = 4 * 16384, 4, 1 << 7, 1 << 32
        exact_rows = (1 << 53) // (bound * q)
        # The exactness rule, not the byte cap, is what cuts this table: four chunks.
        assert rows == 4 * exact_rows and exact_rows * 8 * columns < kernels._TABLE_CHUNK_BYTES
        rng = np.random.default_rng(53)
        digits = rng.integers(bound - 28, bound + 1, size=(3, rows))
        digits[1] *= -1
        table = rng.integers(q // 2, q, size=(rows, columns))
        reference = np.einsum("br,rc->bc", digits, table)
        assert (np.abs(reference) > 1 << 53).all() and (reference % 2 == 1).any()
        combination = kernels._contract_exactly(digits, table, bound, q)
        np.testing.assert_array_equal(combination, reference)
        # The test has teeth: one GEMM over all the rows cannot even hold the odd sums.
        naive = (digits.astype(np.float64) @ table.astype(np.float64)).astype(np.int64)
        assert not np.array_equal(naive, reference)
        # ... and so does the worst case, by construction rather than by sampling.
        worst = self._worst_digits(rows, bound)
        full = np.full((rows, 2), q - 1, dtype=np.int64)
        np.testing.assert_array_equal(
            kernels._contract_exactly(worst, full, bound, q), np.einsum("br,rc->bc", worst, full)
        )

    def test_a_ragged_last_chunk_is_contracted_too(self):
        """Set I's own shape: 3,072 rows in chunks of 523 leave a last chunk of 457."""
        params = PARAM_SET_I
        rows, columns = params.k * params.N * params.lk, params.n + 1
        chunk = kernels._TABLE_CHUNK_BYTES // (8 * columns)
        assert chunk < rows and rows % chunk
        rng = np.random.default_rng(457)
        bound = params.base_ks // 2
        digits = rng.integers(-bound, bound, size=(5, rows))
        table = rng.integers(0, params.q, size=(rows, columns))
        np.testing.assert_array_equal(
            kernels._contract_exactly(digits, table, bound, params.q),
            np.einsum("br,rc->bc", digits, table),
        )

    def test_a_product_float64_cannot_hold_is_refused(self):
        digits, table = np.ones((1, 2), dtype=np.int64), np.ones((2, 1), dtype=np.int64)
        with pytest.raises(ValueError, match=r"exceeds float64's 2\*\*53"):
            kernels._contract_exactly(digits, table, 1 << 22, 1 << 32)


# -- gates -----------------------------------------------------------------------


class TestBatchGates:
    def test_all_gates_match_scalar_bit_for_bit(self, toy_context):
        params = TOY_PARAMETERS
        keys = toy_context.server_keys
        gates = toy_context.gates()
        rng = np.random.default_rng(42)
        batch_size = 8
        lhs = [toy_context.encrypt_boolean(bool(b)) for b in rng.integers(0, 2, batch_size)]
        rhs = [toy_context.encrypt_boolean(bool(b)) for b in rng.integers(0, 2, batch_size)]
        sel = [toy_context.encrypt_boolean(bool(b)) for b in rng.integers(0, 2, batch_size)]
        stacked = {
            name: LweBatch.from_ciphertexts(cts)
            for name, cts in (("lhs", lhs), ("rhs", rhs), ("sel", sel))
        }
        scalar_methods = {
            "and": gates.and_,
            "or": gates.or_,
            "nand": gates.nand,
            "nor": gates.nor,
            "xor": gates.xor,
            "xnor": gates.xnor,
            "andny": gates.andny,
        }
        # With "not" and "mux" below, that is the whole scalar gate set.
        assert set(scalar_methods) | {"not", "mux"} == set(GATES)
        for name, method in scalar_methods.items():
            batched = batch_gate(
                name,
                (stacked["lhs"], stacked["rhs"]),
                keys.bootstrapping_key,
                keys.keyswitching_key,
                params,
            )
            _assert_batch_equals_scalars(batched, [method(a, b) for a, b in zip(lhs, rhs)])
        batched_not = batch_gate(
            "not", (stacked["lhs"],), keys.bootstrapping_key, keys.keyswitching_key, params
        )
        _assert_batch_equals_scalars(batched_not, [gates.not_(a) for a in lhs])
        # mux is two stacks of gate rows (Session.bootstrap_level), not one batch_gate call.
        with pytest.raises(ValueError, match="unknown gate 'mux'"):
            batch_gate(
                "mux",
                (stacked["sel"], stacked["lhs"], stacked["rhs"]),
                keys.bootstrapping_key,
                keys.keyswitching_key,
                params,
            )

    def test_mismatched_operand_sizes_rejected(self, toy_context):
        keys = toy_context.server_keys
        two = LweBatch.from_ciphertexts(
            [toy_context.encrypt_boolean(True), toy_context.encrypt_boolean(False)]
        )
        one = LweBatch.from_ciphertexts([toy_context.encrypt_boolean(True)])
        with pytest.raises(ValueError, match="mixed sizes"):
            batch_gate(
                "and", (two, one), keys.bootstrapping_key, keys.keyswitching_key,
                TOY_PARAMETERS,
            )


# -- Session batch APIs vs. the per-ciphertext oracle -------------------------------

#: ``(parameter set, batch size)``: 64 is the paper's epoch-level gate batch
#: (TOY only, the per-ciphertext loop is the slow side of every comparison).
SESSION_CASES = [
    pytest.param(name, size, id=f"{name}-{size}")
    for name, sizes in (("TOY", (1, 3, 64)), ("SMALL", (1, 3)))
    for size in sizes
]


@pytest.fixture(scope="module")
def sessions() -> dict[str, Session]:
    return {name: Session(name, seed=99) for name in ("TOY", "SMALL")}


def _oracle_gate(session: Session, gate: str):
    """The per-ciphertext method of a gate name (``and`` -> ``gates().and_``)."""
    return getattr(session.gates(), gate + "_" if keyword.iskeyword(gate) else gate)


class TestSessionKernels:
    """Batch API = batch kernels, per-ciphertext API = scalar oracle, equal bit for bit."""

    @pytest.fixture(scope="class")
    def session(self, sessions) -> Session:
        return sessions["TOY"]

    def test_kernels_keyword_has_one_value(self):
        assert Session("TOY", seed=5, kernels="vectorized").params is TOY_PARAMETERS
        with pytest.raises(ValueError, match="per-ciphertext API"):
            Session("TOY", kernels="scalar")
        assert not hasattr(Session("TOY", seed=5), "kernels")

    def test_vectorized_round_trips(self):
        sess = Session("TOY", seed=5)
        messages = [0, 1, 2, 3, 1]
        assert sess.decrypt_batch(sess.encrypt_batch(messages)) == messages
        values = [True, False, True]
        assert sess.decrypt_boolean_batch(sess.encrypt_boolean_batch(values)) == values
        assert sess.encrypt_batch([]) == []
        assert sess.decrypt_batch([]) == []
        assert sess.bootstrap_batch([], lambda m: m) == []
        assert sess.gate_batch("and", [], []) == []

    @pytest.mark.parametrize("name, size", SESSION_CASES)
    def test_encrypt_and_decrypt_batches_equal_oracle(self, sessions, name, size):
        session = sessions[name]
        rng = np.random.default_rng([size, 1])
        messages = [int(m) for m in rng.integers(0, session.params.message_modulus, size)]
        bits = [bool(b) for b in rng.integers(0, 2, size)]
        # Bulk draws reorder the RNG stream, so encryption is held to the
        # oracle through decryption: each side decrypts what the other made.
        assert [session.context.decrypt(ct) for ct in session.encrypt_batch(messages)] == messages
        assert session.decrypt_batch([session.context.encrypt(m) for m in messages]) == messages
        encrypted_bits = session.encrypt_boolean_batch(bits)
        assert [session.context.decrypt_boolean(ct) for ct in encrypted_bits] == bits
        oracle_bits = [session.context.encrypt_boolean(b) for b in bits]
        assert session.decrypt_boolean_batch(oracle_bits) == bits

    @pytest.mark.parametrize("name, size", SESSION_CASES)
    def test_bootstrap_and_lut_batches_equal_oracle(self, sessions, name, size):
        session = sessions[name]
        p = session.params.message_modulus
        rng = np.random.default_rng([size, 2])
        ciphertexts = [session.context.encrypt(int(m)) for m in rng.integers(0, p, size)]

        def function(m: int) -> int:
            return (3 * m + 1) % p

        fast = session.bootstrap_batch(ciphertexts, function)
        oracle = [session.programmable_bootstrap(ct, function).ciphertext for ct in ciphertexts]
        _assert_batch_equals_scalars(LweBatch.from_ciphertexts(fast), oracle)
        assert session.decrypt_batch(fast) == [session.context.decrypt(ct) for ct in oracle]
        lut = relu_lut(session.params)
        _assert_batch_equals_scalars(
            LweBatch.from_ciphertexts(session.bootstrap_batch(ciphertexts, lut)),
            [session.context.apply_lut(ct, lut) for ct in ciphertexts],
        )

    @pytest.mark.parametrize("gate", sorted(GATES))
    @pytest.mark.parametrize("name, size", SESSION_CASES)
    def test_gate_batch_equals_oracle(self, sessions, name, size, gate):
        session = sessions[name]
        rng = np.random.default_rng([size, 3])
        operands = [
            [session.context.encrypt_boolean(bool(b)) for b in rng.integers(0, 2, size)]
            for _ in range(GATES[gate][0])
        ]
        method = _oracle_gate(session, gate)
        _assert_batch_equals_scalars(
            LweBatch.from_ciphertexts(session.gate_batch(gate, *operands)),
            [method(*row) for row in zip(*operands)],
        )

    def test_gate_batch_is_cut_into_epochs(self, monkeypatch):
        """One more gate than an epoch holds: chunked like ``bootstrap_batch``, same bits."""
        tiny = StrixAccelerator(
            dataclasses.replace(STRIX_DEFAULT, tvlp=1, local_scratchpad_mb=4 / 1024)
        )
        session = Session("TOY", seed=31, accelerator=tiny)
        size = session.batch_capacity + 1
        assert size == 4
        rng = np.random.default_rng(31)
        operands = [
            [session.context.encrypt_boolean(bool(b)) for b in rng.integers(0, 2, size)]
            for _ in range(3)
        ]
        real_switch, bootstrapped = kernels.batch_modulus_switch, []

        def recording_switch(batch, params):
            bootstrapped.append(len(batch))
            return real_switch(batch, params)

        monkeypatch.setattr(kernels, "batch_modulus_switch", recording_switch)
        arities = {"nand": 2, "mux": 3, "not": 1}
        fast = {gate: session.gate_batch(gate, *operands[:n]) for gate, n in arities.items()}
        monkeypatch.undo()
        # nand per chunk; mux as two stacks, its 8 and / andny rows, then its 4 ors;
        # not never bootstraps.
        assert bootstrapped == [3, 1, 3, 3, 2, 3, 1]
        for gate, n in arities.items():
            method = _oracle_gate(session, gate)
            _assert_batch_equals_scalars(
                LweBatch.from_ciphertexts(fast[gate]), [method(*row) for row in zip(*operands[:n])]
            )

    @pytest.mark.parametrize(
        "select, if_true, if_false", [(True, False, True), (False, False, True)]
    )
    def test_a_one_row_mux_is_two_kernel_calls(
        self, session, monkeypatch, select, if_true, if_false
    ):
        """The ``and`` / ``andny`` rows are one stack, the ``or`` row another."""
        operands = [session.encrypt_boolean_batch([bit]) for bit in (select, if_true, if_false)]
        session.generate_server_keys()
        real_switch, calls = kernels.batch_modulus_switch, []

        def recording_switch(batch, params):
            calls.append(len(batch))
            return real_switch(batch, params)

        monkeypatch.setattr(kernels, "batch_modulus_switch", recording_switch)
        muxed = session.gate_batch("mux", *operands)
        monkeypatch.undo()
        assert calls == [2, 1]
        assert session.decrypt_boolean_batch(muxed) == [if_true if select else if_false]

    def test_a_level_keeps_pieces_of_unequal_size_apart(self, session):
        """Pieces of 2, 1 and 3 rows through identity, +1 and identity: each its own rows."""
        p = session.params.message_modulus
        identity = LookUpTable.from_function(lambda m: m, session.params)
        plus_one = LookUpTable.from_function(lambda m: (m + 1) % p, session.params)
        work = [
            (lut, (LweBatch.from_ciphertexts(session.encrypt_batch(piece)),))
            for lut, piece in zip((identity, plus_one, identity), ([1, 2], [3], [0, 1, 2]))
        ]
        outputs, rows, calls = session.bootstrap_level(work)
        decrypted = [session.decrypt_batch(batch.to_ciphertexts()) for batch in outputs]
        assert decrypted == [[1, 2], [0], [0, 1, 2]]
        assert (rows, calls) == (6, 1)

    def test_a_level_refuses_operand_stacks_of_unequal_length(self):
        """A two-row operand beside a one-row one, for a gate, a mux and a LUT: no keys drawn."""
        session = Session("TOY", seed=49)
        two_rows = LweBatch.from_ciphertexts(session.encrypt_boolean_batch([True, False]))
        one_row = LweBatch.from_ciphertexts(session.encrypt_boolean_batch([True]))
        identity = LookUpTable.from_function(lambda m: m, session.params)
        for function, arity in (("and", 2), ("mux", 3), (identity, 2)):
            operands = (two_rows, one_row, two_rows)[:arity]
            with pytest.raises(ValueError, match=r"mismatched lengths: \[1, 2\]"):
                session.bootstrap_level([(function, operands)])
        with pytest.raises(ValueError):
            session.gate_batch("and", [], one_row.to_ciphertexts())
        assert session.context._server_keys is None

    def test_not_generates_no_server_keys(self):
        session = Session("TOY", seed=32)
        bits = session.encrypt_boolean_batch([True, False, True])
        negated = session.gate_batch("not", bits)
        assert session.context._server_keys is None
        assert session.gate_batch("and", [], []) == [] and session.context._server_keys is None
        assert session.decrypt_boolean_batch(negated) == [False, True, False]
        _assert_batch_equals_scalars(
            LweBatch.from_ciphertexts(negated), [session.gates().not_(ct) for ct in bits]
        )

    def test_consecutive_calls_share_no_memory(self, session):
        """Per-call workspace: a later, larger call must not touch an earlier result."""
        p = session.params.message_modulus
        ciphertexts = session.encrypt_batch([0, 1, 2, 3, 1, 2, 0])
        first = session.bootstrap_batch(ciphertexts[:3], lambda m: (m + 1) % p)
        snapshot = [(ct.mask.copy(), ct.body) for ct in first]
        second = session.bootstrap_batch(ciphertexts, lambda m: (2 * m) % p)
        for ciphertext, (mask, body) in zip(first, snapshot):
            np.testing.assert_array_equal(ciphertext.mask, mask)
            assert ciphertext.body == body
            assert not any(np.shares_memory(ciphertext.mask, other.mask) for other in second)
        assert session.decrypt_batch(first) == [1, 2, 3]
        assert session.decrypt_batch(second) == [0, 2, 0, 2, 2, 0, 0]

    def test_server_side_batches_take_any_iterable(self, session):
        messages, bits = [0, 1, 2], [True, False, True]
        ciphertexts = session.encrypt_batch(messages)
        encrypted_bits = session.encrypt_boolean_batch(bits)
        refreshed = session.bootstrap_batch((ct for ct in ciphertexts), lambda m: m)
        assert session.decrypt_batch(refreshed) == messages
        applied = session.bootstrap_batch(iter(ciphertexts), relu_lut(session.params))
        assert session.decrypt_batch(applied) == [0, 1, 0]
        negated = session.gate_batch("nand", iter(encrypted_bits), iter(encrypted_bits))
        assert session.decrypt_boolean_batch(negated) == [False, True, False]

    def test_wrong_operand_count_is_the_kernels_value_error(self, session):
        lhs = session.encrypt_boolean_batch([True, False])
        with pytest.raises(ValueError, match="gate 'and' takes 2 operands, got 1"):
            session.gate_batch("and", lhs)

    def test_decrypt_batch_rejects_mixed_dimensions(self, session):
        narrow = session.context.encrypt(1)
        wide = session.programmable_bootstrap(narrow, lambda m: m, keyswitch=False).ciphertext
        dimensions = f"{session.params.n}, {session.params.k * session.params.N}"
        with pytest.raises(ValueError, match=rf"mixed dimensions: \[{dimensions}\]"):
            session.decrypt_batch([narrow, wide])
        assert session.decrypt_batch([narrow]) == session.decrypt_batch([wide]) == [1]


# -- device-level batching: one sub-batch per core -----------------------------------


def _cut(size: int, cuts) -> list[slice]:
    """``[0, size)`` cut at ``cuts``, as the contiguous slices ``_sub_batches`` returns."""
    bounds = [0, *sorted(cuts), size]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _rotate_cut(test_vector, stacked, bootstrapping_key, parts: list[slice]) -> GlweBatch:
    """``batch_blind_rotate`` with its batch axis cut exactly into ``parts``."""
    with mock.patch.object(kernels, "_sub_batches", lambda size, digits: parts):
        return batch_blind_rotate(test_vector, stacked, bootstrapping_key, stacked.params)


def _assert_glwe_batches_equal(left: GlweBatch, right: GlweBatch) -> None:
    np.testing.assert_array_equal(left.masks, right.masks)
    np.testing.assert_array_equal(left.bodies, right.bodies)


def _assert_rotations_equal_scalars(rotated: GlweBatch, scalars: dict) -> None:
    """Elements of a blind-rotated batch against ``{index: scalar blind rotation}``."""
    for index, scalar in scalars.items():
        np.testing.assert_array_equal(rotated.masks[index], scalar.mask)
        np.testing.assert_array_equal(rotated.bodies[index], scalar.body)


def _batch_with_exponents(params, exponents, seed: int) -> LweBatch:
    """A batch whose modulus-switched masks are exactly ``exponents`` (any bodies)."""
    exponents = np.asarray(exponents, dtype=np.int64)
    bodies = np.random.default_rng(seed).integers(0, params.q, size=len(exponents))
    return LweBatch(exponents * (params.q // (2 * params.N)), bodies, params)


@pytest.fixture
def forced_parts(monkeypatch):
    """``forced_parts(count)``: the partition rule sees ``count`` cores and no minimum."""

    def force(count: int) -> None:
        monkeypatch.setattr(kernels, "_available_cores", lambda: count)
        monkeypatch.setattr(kernels, "MIN_SUB_BATCH_DIGITS", 1)

    return force


class TestSubBatches:
    """Split == unsplit == the scalar oracle, bit for bit, whatever the cut."""

    #: Pool sizes: every Hypothesis batch is a prefix, so the oracle runs once.
    POOL = {"TOY": 9, "SMALL": 5}

    @pytest.fixture(scope="class")
    def pools(self, toy_context, small_context):
        """Per set: test vector, edge-laden ciphertexts and their scalar blind rotations."""
        pools = {}
        for name, context in (("TOY", toy_context), ("SMALL", small_context)):
            params = context.params
            test_vector = make_test_vector(lambda m: (3 * m + 1) % params.message_modulus, params)
            fresh = [context.encrypt(m % params.message_modulus) for m in range(self.POOL[name])]
            ciphertexts = _with_edge_exponents(fresh, params)
            key = context.server_keys.bootstrapping_key
            oracle = [blind_rotate(test_vector, ct, key, params) for ct in ciphertexts]
            pools[name] = (test_vector, ciphertexts, oracle, key)
        return pools

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_contiguous_cut_equals_unsplit_and_oracle(self, pools, data):
        name = data.draw(st.sampled_from(sorted(self.POOL)))
        test_vector, ciphertexts, oracle, key = pools[name]
        size = data.draw(st.integers(1, self.POOL[name]))
        cuts = data.draw(st.sets(st.integers(1, size - 1)) if size > 1 else st.just(set()))
        stacked = LweBatch.from_ciphertexts(ciphertexts[:size])
        unsplit = _rotate_cut(test_vector, stacked, key, _cut(size, ()))
        split = _rotate_cut(test_vector, stacked, key, _cut(size, cuts))
        _assert_glwe_batches_equal(split, unsplit)
        _assert_rotations_equal_scalars(split, dict(enumerate(oracle[:size])))

    @pytest.mark.parametrize("name", sorted(POOL))
    def test_the_32_bit_loop_equals_the_oracle_on_the_seams(self, pools, name):
        """Split and unsplit == scalar ``blind_rotate``, with windows starting at every seam."""
        test_vector, ciphertexts, oracle, key = pools[name]
        params = key.params
        stacked = LweBatch.from_ciphertexts(ciphertexts)
        starts = kernels._window_starts(kernels.batch_modulus_switch(stacked, params)[0], params.N)
        seams = {0, 1, params.N - 1, params.N, params.N + 1, 2 * params.N - 1}
        assert seams <= set(starts.ravel().tolist())
        size = len(stacked)
        for cuts in ((), {size // 2}, set(range(1, size))):
            rotated = _rotate_cut(test_vector, stacked, key, _cut(size, cuts))
            assert rotated.masks.dtype == rotated.bodies.dtype == np.int64
            _assert_rotations_equal_scalars(rotated, dict(enumerate(oracle)))

    @pytest.mark.parametrize("count", [2, 3, 7])
    def test_forced_even_cuts_switch_the_modulus_once(
        self, pools, forced_parts, monkeypatch, count
    ):
        """The real rule with ``count`` cores: that many sub-batches, one modulus switch."""
        test_vector, ciphertexts, oracle, key = pools["TOY"]
        stacked = LweBatch.from_ciphertexts(ciphertexts)
        forced_parts(count)
        real_switch, real_loop = kernels.batch_modulus_switch, kernels._cmux_iterations
        switches, ran_on = [], {}

        def recording_switch(batch, params):
            switches.append(len(batch))
            return real_switch(batch, params)

        def recording_loop(part, *shared):
            ran_on[part.start] = threading.get_ident()
            real_loop(part, *shared)

        monkeypatch.setattr(kernels, "batch_modulus_switch", recording_switch)
        monkeypatch.setattr(kernels, "_cmux_iterations", recording_loop)
        rotated = batch_blind_rotate(test_vector, stacked, key, TOY_PARAMETERS)
        assert switches == [len(stacked)]
        assert sorted(ran_on) == [len(stacked) * part // count for part in range(count)]
        caller = ran_on.pop(0)  # the first sub-batch runs on the calling thread, no other does
        assert caller == threading.get_ident() and caller not in ran_on.values()
        _assert_rotations_equal_scalars(rotated, dict(enumerate(oracle)))

    def test_the_zero_column_skip_applies_per_sub_batch(self, toy_context):
        """Column 3 is all zero in the first sub-batch only: it skips, the second does not."""
        params = TOY_PARAMETERS
        key = toy_context.server_keys.bootstrapping_key
        exponents = np.random.default_rng(5).integers(1, 2 * params.N, size=(5, params.n))
        exponents[:2, 3] = 0
        stacked = _batch_with_exponents(params, exponents, seed=6)
        test_vector = make_test_vector(lambda m: m, params)
        transform = kernels.get_transform(params.N)
        real_forward, forwards = transform.forward, []

        def recording_forward(values, **kwargs):
            forwards.append(len(values))
            return real_forward(values, **kwargs)

        with mock.patch.object(transform, "forward", recording_forward):
            split = _rotate_cut(test_vector, stacked, key, _cut(5, {2}))
        assert sorted(forwards) == [2] * (params.n - 1) + [3] * params.n
        _assert_glwe_batches_equal(split, _rotate_cut(test_vector, stacked, key, _cut(5, ())))
        scalars = [blind_rotate(test_vector, ct, key, params) for ct in stacked.to_ciphertexts()]
        _assert_rotations_equal_scalars(split, dict(enumerate(scalars)))

    @pytest.mark.parametrize("failing_part", [0, 1], ids=["calling-thread", "worker-thread"])
    def test_a_failing_sub_batch_raises_after_every_thread_stopped(
        self, toy_context, failing_part
    ):
        """Only one sub-batch reaches the misshapen key entry; the call raises its error."""
        params = TOY_PARAMETERS
        key = toy_context.server_keys.bootstrapping_key
        entries = list(key.ggsw_list)
        entries[3] = SimpleNamespace(spectra=np.zeros((5, 5, 5)))
        broken = dataclasses.replace(key, ggsw_list=entries)
        exponents = np.random.default_rng(7).integers(1, 2 * params.N, size=(4, params.n))
        healthy = slice(2, 4) if failing_part == 0 else slice(0, 2)
        exponents[healthy, 3] = 0  # this sub-batch skips entry 3, the other one does not
        stacked = _batch_with_exponents(params, exponents, seed=8)
        test_vector = make_test_vector(lambda m: m, params)
        threads_before = threading.active_count()
        with pytest.raises(ValueError, match="operands could not be broadcast"):
            _rotate_cut(test_vector, stacked, broken, _cut(4, {2}))
        assert threading.active_count() == threads_before
        _rotate_cut(test_vector, stacked, key, _cut(4, {2}))  # and the next call is fine

    def test_concurrent_session_calls_each_get_the_oracles_bits(self, sessions, forced_parts):
        """More user threads than cores, each call itself split, a hurried interpreter."""
        session = sessions["TOY"]
        rng = np.random.default_rng(9)
        inputs = [
            [
                [session.context.encrypt_boolean(bool(b)) for b in rng.integers(0, 2, 6)]
                for _ in range(2)
            ]
            for _ in range(3)
        ]
        nand = session.gates().nand
        oracle = [[nand(a, b) for a, b in zip(*pair)] for pair in inputs]
        forced_parts(2)
        results: dict[int, list[LweCiphertext]] = {}

        def call(user: int) -> None:
            for _ in range(3):
                results[user] = session.gate_batch("nand", *inputs[user])

        users = [threading.Thread(target=call, args=(user,)) for user in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for user in users:
                user.start()
            for user in users:
                user.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(user.is_alive() for user in users)
        for user, expected in enumerate(oracle):
            _assert_batch_equals_scalars(LweBatch.from_ciphertexts(results[user]), expected)

    @given(
        size=st.integers(1, 5000),
        digits=st.integers(1, 1 << 18),
        cores=st.integers(1, 64),
    )
    @settings(max_examples=300, deadline=None)
    def test_the_partition_rule(self, size, digits, cores):
        with mock.patch.object(kernels, "_available_cores", lambda: cores):
            parts = kernels._sub_batches(size, digits)
        assert parts[0].start == 0 and parts[-1].stop == size
        assert all(left.stop == right.start for left, right in zip(parts, parts[1:]))
        assert all(part.start < part.stop and part.step is None for part in parts)
        assert len(parts) <= cores
        if len(parts) > 1:
            fewest = min(part.stop - part.start for part in parts)
            assert fewest * digits >= kernels.MIN_SUB_BATCH_DIGITS
        # As many parts as the cores and the minimum allow: no gain is forgone either.
        affordable = size // -(-kernels.MIN_SUB_BATCH_DIGITS // digits)
        assert len(parts) == max(1, min(cores, affordable))

    def test_the_partition_rule_on_the_measured_sets(self, monkeypatch):
        """One core or one ciphertext never split; the thresholds of docs/performance.md."""
        digits = {
            params.name: (params.k + 1) * params.lb * params.N
            for params in (TOY_PARAMETERS, SMALL_PARAMETERS, PARAM_SET_I)
        }
        monkeypatch.setattr(kernels, "_available_cores", lambda: 1)
        assert kernels._sub_batches(4096, digits["I"]) == [slice(0, 4096)]
        monkeypatch.setattr(kernels, "_available_cores", lambda: 2)
        assert kernels._sub_batches(1, 1 << 30) == [slice(0, 1)]
        for name, below, at in (("TOY", 171, 172), ("SMALL", 57, 58), ("I", 31, 32)):
            assert kernels._sub_batches(below, digits[name]) == [slice(0, below)]
            assert kernels._sub_batches(at, digits[name]) == [slice(0, at // 2), slice(at // 2, at)]
        assert kernels._sub_batches(64, digits["I"]) == [slice(0, 32), slice(32, 64)]
        monkeypatch.setattr(kernels, "_available_cores", lambda: 8)
        assert len(kernels._sub_batches(64, digits["I"])) == 4  # 16 ciphertexts each: the minimum

    def test_the_core_count_is_the_affinity_mask(self, monkeypatch):
        assert kernels._available_cores() >= 1
        monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert kernels._available_cores() == 3
        monkeypatch.delattr(kernels.os, "sched_getaffinity")
        monkeypatch.setattr(kernels.os, "cpu_count", lambda: None)
        assert kernels._available_cores() == 1

    @pytest.mark.slow
    @pytest.mark.skipif(kernels._available_cores() < 2, reason="one core: nothing is split")
    def test_set_I_batch64_split_is_faster_and_equal(self, monkeypatch):
        """Slow reference (one core's loop), fast path (this machine's cores), equality."""
        params = PARAM_SET_I
        context = TFHEContext(params, seed=18)
        key = context.generate_server_keys().bootstrapping_key
        rng = np.random.default_rng(18)
        masks = rng.integers(0, params.q, size=(64, params.n))
        stacked = LweBatch(masks, rng.integers(0, params.q, size=64), params)
        test_vector = make_constant_test_vector(params.q // 8, params)

        def timed() -> tuple[float, GlweBatch]:
            start = time.perf_counter()
            rotated = batch_blind_rotate(test_vector, stacked, key, params)
            return time.perf_counter() - start, rotated

        unsplit_s, split_s = [], []
        for _ in range(3):  # interleaved, so a slow spell of the machine falls on both
            monkeypatch.setattr(kernels, "_available_cores", lambda: 1)
            seconds, unsplit = timed()
            unsplit_s.append(seconds)
            monkeypatch.undo()
            seconds, split = timed()
            split_s.append(seconds)
        assert len(kernels._sub_batches(64, 4096)) > 1
        _assert_glwe_batches_equal(split, unsplit)
        ciphertexts = stacked.to_ciphertexts()
        ends = (0, 31, 32, 63)  # of both sub-batches, on two cores
        _assert_rotations_equal_scalars(
            split, {i: blind_rotate(test_vector, ciphertexts[i], key, params) for i in ends}
        )
        assert min(split_s) < min(unsplit_s)


# -- the reference backend: N instances are one stack --------------------------------


class TestReferenceBackendKernels:
    @pytest.fixture(scope="class")
    def session(self) -> Session:
        return Session("TOY", seed=77)

    @staticmethod
    def _assert_stack_equals_single_runs(netlist, session, inputs) -> list:
        stacked = run(netlist, backend="reference", session=session, inputs=inputs)
        single = [
            run(netlist, backend="reference", session=session, inputs=one).outputs[0]
            for one in inputs
        ]
        assert stacked.outputs == single
        assert stacked.details["instances"] == len(inputs) and stacked.details["wall_clock"]
        return stacked.outputs

    def test_adder_outputs_identical(self, session):
        netlist = full_adder_netlist(TOY_PARAMETERS, bits=2)
        cases = [(1, 3), (2, 2), (3, 1)]
        inputs = [
            {
                "a0": bool(a & 1),
                "a1": bool(a >> 1 & 1),
                "b0": bool(b & 1),
                "b1": bool(b >> 1 & 1),
            }
            for a, b in cases
        ]
        outputs = self._assert_stack_equals_single_runs(netlist, session, inputs)
        assert [out["axb0"] + 2 * out["s1"] + 4 * out["c1"] for out in outputs] == [
            a + b for a, b in cases
        ]

    def test_lut_linear_outputs_identical(self, session):
        p = TOY_PARAMETERS.message_modulus
        netlist = Netlist(TOY_PARAMETERS, name="lut-linear")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        combined = netlist.add_linear("combined", (a, b), coefficients=(1, 2))
        netlist.add_lut("out", combined, function=lambda m: (m * m) % p)
        inputs = [{"a": 1, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 1}]
        outputs = self._assert_stack_equals_single_runs(netlist, session, inputs)
        assert outputs == [{"out": 1}, {"out": 0}, {"out": 1}]

    def test_numpy_bools_are_booleans(self, session):
        netlist = Netlist(TOY_PARAMETERS, name="and")
        netlist.add_gate("and", "out", netlist.add_input("a"), netlist.add_input("b"))
        bits = np.array([True, True, False])
        result = run(
            netlist,
            backend="reference",
            session=session,
            inputs=[{"a": bits[0], "b": bits[1]}, {"a": bits[1], "b": bits[2]}],
        )
        assert result.outputs == [{"out": True}, {"out": False}]

    def test_pre_encrypted_ciphertexts_share_a_wire_with_plaintext(self, session):
        netlist = Netlist(TOY_PARAMETERS, name="mixed-any")
        netlist.add_gate("not", "b", netlist.add_input("a"))
        inputs = [{"a": session.context.encrypt_boolean(True)}, {"a": False}]
        result = run(
            netlist, backend="reference", session=session, inputs=inputs, outputs=["a", "b"]
        )
        assert result.outputs == [{"a": True, "b": False}, {"a": False, "b": True}]

    @pytest.mark.parametrize(
        "method, values",
        [("encrypt_batch", [1, 3, 0]), ("encrypt_boolean_batch", [True, False, True])],
    )
    def test_each_input_wire_is_encrypted_in_one_call(self, session, monkeypatch, method, values):
        netlist = Netlist(TOY_PARAMETERS, name="two-inputs")
        inputs = (netlist.add_input("b"), netlist.add_input("a"))
        if method == "encrypt_batch":
            netlist.add_linear("out", inputs)
        else:
            netlist.add_gate("xor", "out", *inputs)
        calls = []
        batched = getattr(session, method)

        def counted(plain):
            calls.append(list(plain))
            return batched(calls[-1])

        monkeypatch.setattr(session, method, counted)
        monkeypatch.setattr(session.context, "encrypt", None)  # the per-instance path is gone
        inputs = [{"a": value, "b": value} for value in values]
        run(netlist, backend="reference", session=session, inputs=inputs)
        assert calls == [values, values]

    def test_pre_encrypted_messages_keep_their_slots(self, session):
        netlist = Netlist(TOY_PARAMETERS, name="refresh")
        netlist.add_lut("out", netlist.add_input("a"))
        inputs = [
            {"a": session.context.encrypt(3)},
            {"a": 1},
            {"a": session.context.encrypt(2)},
            {"a": 0},
        ]
        result = run(netlist, backend="reference", session=session, inputs=inputs)
        assert result.outputs == [{"out": 3}, {"out": 1}, {"out": 2}, {"out": 0}]

    def test_an_encrypted_wire_draws_no_fresh_encryption(self, session):
        netlist = Netlist(TOY_PARAMETERS, name="and")
        netlist.add_gate("and", "out", netlist.add_input("a"), netlist.add_input("b"))
        inputs = [
            {"a": session.context.encrypt_boolean(a), "b": session.context.encrypt_boolean(b)}
            for a, b in [(True, True), (True, False)]
        ]
        session.generate_server_keys()
        state = session.context.rng.bit_generator.state
        result = run(netlist, backend="reference", session=session, inputs=inputs)
        assert result.outputs == [{"out": True}, {"out": False}]
        assert session.context.rng.bit_generator.state == state

    def test_mixed_encodings_on_one_wire_rejected(self, session):
        netlist = Netlist(TOY_PARAMETERS, name="mixed")
        a = netlist.add_input("a")
        netlist.add_gate("not", "b", a)
        with pytest.raises(ValueError, match="one encoding per wire"):
            run(
                netlist,
                backend="reference",
                session=session,
                inputs=[{"a": True}, {"a": 2}],
            )


# -- transform-instance registry ---------------------------------------------------


class TestTransformRegistry:
    def test_instances_are_cached_with_hit_miss_accounting(self):
        clear_transform_caches()
        try:
            first = get_folded_transform(128)
            again = get_folded_transform(128)
            other = get_negacyclic_transform(128)
            assert first is again
            assert other is get_negacyclic_transform(128)
            stats = transform_cache_stats()
            assert stats["folded_misses"] == 1
            assert stats["folded_hits"] == 1
            assert stats["full_misses"] == 1
            assert stats["full_hits"] == 1
            assert stats["folded_entries"] == stats["full_entries"] == 1
        finally:
            clear_transform_caches()

    def test_counters_surface_as_an_obs_view(self):
        clear_transform_caches()
        try:
            registry = MetricsRegistry()
            register_transform_cache_view(registry)
            get_folded_transform(256)
            get_folded_transform(256)
            collected = registry.collect()
            assert collected["fft_transform_cache_folded_misses"] == 1.0
            assert collected["fft_transform_cache_folded_hits"] == 1.0
            assert collected["fft_transform_cache_folded_entries"] == 1.0
        finally:
            clear_transform_caches()

    def test_kernel_paths_share_one_instance(self, toy_context):
        """Scalar and vectorized PBS must use the same cached transform."""
        clear_transform_caches()
        try:
            keys = toy_context.server_keys
            ct = toy_context.encrypt(1)
            programmable_bootstrap(
                ct, lambda m: m, keys.bootstrapping_key, TOY_PARAMETERS
            )
            after_scalar = transform_cache_stats()["folded_entries"]
            batch_bootstrap_with_test_vector(
                LweBatch.from_ciphertexts([ct]),
                make_test_vector(lambda m: m, TOY_PARAMETERS),
                keys.bootstrapping_key,
                TOY_PARAMETERS,
            )
            stats = transform_cache_stats()
            assert stats["folded_entries"] == after_scalar == 1
            assert stats["folded_misses"] == 1
            assert stats["folded_hits"] > 0
        finally:
            clear_transform_caches()


# -- the LWE1 byte codec, stacked side ---------------------------------------------


class TestBatchCodecs:
    def _batch(self, count: int = 5) -> LweBatch:
        rng = np.random.default_rng(9)
        params = TOY_PARAMETERS
        return LweBatch(
            rng.integers(0, params.q, size=(count, params.n)),
            rng.integers(0, params.q, size=count),
            params,
        )

    def test_round_trip_is_exact(self):
        batch = self._batch()
        decoded = lwe_batch_from_bytes(lwe_to_bytes(batch), TOY_PARAMETERS)
        np.testing.assert_array_equal(decoded.masks, batch.masks)
        np.testing.assert_array_equal(decoded.bodies, batch.bodies)

    def test_batch_and_its_ciphertext_list_encode_to_the_same_bytes(self):
        batch = self._batch()
        assert lwe_to_bytes(batch) == lwe_to_bytes(batch.to_ciphertexts())

    def test_size_is_header_plus_one_contiguous_array(self):
        batch = self._batch(3)
        encoded = lwe_to_bytes(batch)
        header = 14 + len(TOY_PARAMETERS.name.encode("utf-8"))
        assert len(encoded) == header + 3 * (TOY_PARAMETERS.n + 1) * 8
        assert encoded.startswith(LWE_WIRE_MAGIC)

    def test_parameter_mismatch_rejected(self):
        encoded = lwe_to_bytes(self._batch())
        with pytest.raises(ValueError, match="parameter set"):
            lwe_batch_from_bytes(encoded, SMALL_PARAMETERS)

    def test_corruption_rejected(self):
        encoded = lwe_to_bytes(self._batch())
        with pytest.raises(ValueError, match="magic"):
            lwe_batch_from_bytes(b"XXXX" + encoded[4:], TOY_PARAMETERS)
        with pytest.raises(ValueError, match="truncated"):
            lwe_batch_from_bytes(encoded[:8], TOY_PARAMETERS)
        with pytest.raises(ValueError, match="implies"):
            lwe_batch_from_bytes(encoded[:-8], TOY_PARAMETERS)
        with pytest.raises(ValueError, match="implies"):
            lwe_batch_from_bytes(encoded + b"\x00" * 8, TOY_PARAMETERS)
