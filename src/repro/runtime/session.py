"""Batch-first user session: keys plus vectorized encrypt/decrypt/bootstrap.

The paper's central argument is that TFHE throughput comes from *batching* —
epochs of ``device batch x core batch`` ciphertexts streamed through the
accelerator (Section IV-C) — yet the original user API was strictly
per-ciphertext.  :class:`Session` is the batch-first front door: it owns a
:class:`~repro.tfhe.context.TFHEContext` (client keys and the server-key
split), and offers the batch APIs (``encrypt_batch`` / ``decrypt_batch`` /
``bootstrap_batch`` / ``gate_batch``) whose chunk size mirrors the paper's
two-level batch geometry; the scalar oracle is ``session.context``.  A
level's gates and LUTs become stack rows in one place,
:meth:`Session.bootstrap_level`, and rows become ``batch_capacity``-row
kernel calls in one place under it: the reference backend calls it once per
netlist level, a ``gate_batch`` call is a one-gate level and a
``bootstrap_batch`` call a one-LUT level.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.arch.accelerator import StrixAccelerator
from repro.params import TFHEParameters, TOY_PARAMETERS
from repro.runtime.workload import resolve_params
from repro.tfhe import encoding, torus
from repro.tfhe.batch import (
    GATES,
    LweBatch,
    batch_bootstrap_with_test_vector,
    batch_encrypt,
    batch_phase,
    gate_combination,
    linear_combination,
)
from repro.tfhe.blind_rotate import make_constant_test_vector, make_test_vector
from repro.tfhe.bootstrap import BootstrapResult
from repro.tfhe.context import ServerKeys, TFHEContext
from repro.tfhe.gates import GateBootstrapper
from repro.tfhe.lwe import LweCiphertext
from repro.tfhe.noise import pbs_failure_probability


class Session:
    """Owns key material and provides batch-first homomorphic operations.

    Parameters
    ----------
    params:
        TFHE parameter set (object or name such as ``"TOY"`` / ``"I"``);
        defaults to the fast test-sized set.
    seed:
        Seed for key generation and every encryption drawn from the session.
    accelerator:
        Strix model used to size batches (device/core batch geometry) and as
        the default simulation target; defaults to the paper's configuration.
    kernels:
        Not a choice any more: ``"vectorized"`` is the default and the only
        legal value (anything else is a ``ValueError``).  Every batch API
        stacks its rows into arrays, cuts them into ``batch_capacity``-row
        epochs in one place and runs the batch kernels of
        :mod:`repro.tfhe.batch`; the scalar reference kernels they are held
        to bit for bit are the per-ciphertext API of ``session.context``
        (reached here through :meth:`programmable_bootstrap` and
        :meth:`gates`).  The keyword survives only because the frozen
        benchmark still passes it.  Server-side results equal the
        per-ciphertext API exactly; only ``encrypt*_batch`` consumes the
        session RNG in a different order (bulk draws), so batch encryptions
        are equally valid but not byte-identical to a per-ciphertext loop.
    """

    def __init__(
        self,
        params: TFHEParameters | str = TOY_PARAMETERS,
        seed: int | None = None,
        accelerator: StrixAccelerator | None = None,
        kernels: str = "vectorized",
    ):
        if kernels != "vectorized":
            raise ValueError(
                f"kernels={kernels!r} is not selectable: the batch APIs always run the "
                "batch kernels; the scalar reference kernels are the per-ciphertext API "
                "of session.context"
            )
        resolved = resolve_params(params)
        self.context = TFHEContext(resolved, seed=seed)
        self.accelerator = accelerator or StrixAccelerator()
        self._gates: GateBootstrapper | None = None

    # -- key material ------------------------------------------------------------

    @property
    def params(self) -> TFHEParameters:
        """The session's TFHE parameter set."""
        return self.context.params

    @property
    def server_keys(self) -> ServerKeys:
        """The evaluation keys (generated on first access)."""
        return self.context.server_keys

    @property
    def failure_probability(self) -> float:
        """Predicted chance that the next PBS reads one PBS output as the wrong message.

        The noise model's :func:`~repro.tfhe.noise.pbs_failure_probability`
        for the session's parameter set.
        """
        return pbs_failure_probability(self.params)

    def generate_server_keys(self) -> ServerKeys:
        """Generate (and cache) the bootstrapping and keyswitching keys."""
        return self.context.generate_server_keys()

    def gates(self) -> GateBootstrapper:
        """A (cached) gate bootstrapper wired to this session's keys."""
        if self._gates is None:
            self._gates = self.context.gates()
        return self._gates

    # -- batch geometry (Section IV-C) --------------------------------------------
    # The *modeled* accelerator's geometry sizes an epoch; how the host kernels
    # cut one over this machine's cores is their business and independent of it.

    @property
    def batch_capacity(self) -> int:
        """Ciphertexts of one scheduling epoch (``StrixAccelerator.epoch_capacity``)."""
        return self.accelerator.epoch_capacity(self.params)

    # -- per-ciphertext API (delegates to the context) ------------------------------

    def programmable_bootstrap(
        self,
        ciphertext: LweCiphertext,
        function: Callable[[int], int],
        keyswitch: bool = True,
    ) -> BootstrapResult:
        """Run a full PBS evaluating ``function`` on the encrypted message."""
        return self.context.programmable_bootstrap(ciphertext, function, keyswitch)

    # -- batch API ------------------------------------------------------------------
    #
    # Every method takes any iterable, materialises it once, and runs the
    # stacked kernels of :mod:`repro.tfhe.batch`; an empty batch returns
    # ``[]`` before reaching them (an empty :class:`LweBatch` is rejected).

    def encrypt_batch(self, messages: Iterable[int]) -> list[LweCiphertext]:
        """Encrypt a batch of integer messages."""
        messages = list(messages)
        if not messages:
            return []
        values = encoding.encode_array(np.asarray(messages, dtype=np.int64), self.params)
        batch = batch_encrypt(values, self.context.lwe_key.bits, self.params, self.context.rng)
        return batch.to_ciphertexts()

    def decrypt_batch(self, ciphertexts: Iterable[LweCiphertext]) -> list[int]:
        """Decrypt a batch of integer ciphertexts.

        The batch is one stack, so every ciphertext must share one LWE
        dimension (``n``, or ``k*N`` for un-keyswitched PBS outputs); a mix
        raises a ``ValueError`` naming the dimensions — decrypt each group
        with its own call.
        """
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            return []
        decoded = encoding.decode_array(self._phases(ciphertexts), self.params)
        return [int(value) for value in np.mod(decoded, self.params.message_modulus)]

    def encrypt_boolean_batch(self, values: Iterable[bool]) -> list[LweCiphertext]:
        """Encrypt a batch of booleans."""
        values = list(values)
        if not values:
            return []
        eighth = self.params.q // 8
        encoded = np.where(np.asarray(values, dtype=bool), eighth, self.params.q - eighth)
        batch = batch_encrypt(encoded, self.context.lwe_key.bits, self.params, self.context.rng)
        return batch.to_ciphertexts()

    def decrypt_boolean_batch(self, ciphertexts: Iterable[LweCiphertext]) -> list[bool]:
        """Decrypt a batch of boolean ciphertexts (one LWE dimension, as above)."""
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            return []
        signed = torus.to_signed(self._phases(ciphertexts), self.params.q)
        return [bool(value) for value in signed > 0]

    def bootstrap_batch(
        self, ciphertexts: Iterable[LweCiphertext], function: Callable[[int], int]
    ) -> list[LweCiphertext]:
        """Bootstrap a batch of ciphertexts through one function or ``LookUpTable``.

        A one-LUT level of :meth:`bootstrap_level`, bit-for-bit identical to
        :meth:`programmable_bootstrap` applied element by element.
        """
        ciphertexts = list(ciphertexts)
        if not ciphertexts:  # an empty batch needs no keys
            return []
        stack = LweBatch.from_ciphertexts(ciphertexts)
        (outputs,), _, _ = self.bootstrap_level([(function, (stack,))])
        return outputs.to_ciphertexts()

    def bootstrap_level(
        self, work: Sequence[tuple[str | Callable[[int], int], tuple[LweBatch, ...]]]
    ) -> tuple[list[LweBatch], int, int]:
        """Bootstrap a level of ``(gate name | function, operands)``: outputs, rows, calls.

        Every bootstrap of the level is a row of one stack with its own test
        vector: a LUT's operand sum with its function's (any callable, a
        :class:`~repro.tfhe.lut.LookUpTable` too), a gate's
        ``gate_combination`` with the sign vector, and a mux's ``and`` /
        ``andny`` rows.  The muxes' closing ``or`` rows read two of those, so
        they are a second stack.  Operand stacks of unequal length are
        refused.  Returns each item's output stack, the rows bootstrapped and
        the kernel calls made.
        """
        params = self.params
        sign = make_constant_test_vector(params.q // 8, params)
        first: list[tuple[LweBatch, np.ndarray]] = []
        for function, operands in work:
            if not isinstance(function, str):
                summed = linear_combination((1,) * len(operands), operands, params)
                first.append((summed, make_test_vector(function, params)))
            elif function == "mux":
                select, if_true, if_false = operands
                first.append((gate_combination("and", (select, if_true), params), sign))
                first.append((gate_combination("andny", (select, if_false), params), sign))
            else:
                first.append((gate_combination(function, operands, params), sign))
        outputs, first_calls = self._bootstrap_stack(first)
        ends = [(next(outputs), next(outputs)) if f == "mux" else next(outputs) for f, _ in work]
        pairs = [end for end in ends if isinstance(end, tuple)]
        ors = [(gate_combination("or", pair, params), sign) for pair in pairs]
        muxes, second_calls = self._bootstrap_stack(ors)
        done = [next(muxes) if isinstance(end, tuple) else end for end in ends]
        return done, sum(len(batch) for batch, _ in first + ors), first_calls + second_calls

    def gate_batch(
        self, gate: str, *operand_batches: Iterable[LweCiphertext]
    ) -> list[LweCiphertext]:
        """Vectorized gate application: ``gate_batch("and", lhs, rhs)``.

        Every operand batch must have the same length; element ``i`` of the
        result is the gate applied to the ``i``-th element of every batch
        (:data:`~repro.tfhe.batch.GATES` says how many batches: three for
        ``"mux"``, one for ``"not"``).  The batch is a one-gate level of
        :meth:`bootstrap_level`, cut into epoch-sized (``batch_capacity``)
        kernel calls; ``not`` negates and bootstraps nothing.
        """
        if gate not in GATES:
            raise ValueError(f"unknown gate {gate!r}; known gates: {sorted(GATES)}")
        arity, bootstraps = GATES[gate]
        if len(operand_batches) != arity:
            raise ValueError(f"gate {gate!r} takes {arity} operands, got {len(operand_batches)}")
        operands = [list(batch) for batch in operand_batches]
        if not any(operands):  # an empty batch needs no keys
            return []
        stacks = tuple(map(LweBatch.from_ciphertexts, operands))
        if not bootstraps:
            return gate_combination(gate, stacks, self.params).to_ciphertexts()
        (outputs,), _, _ = self.bootstrap_level([(gate, stacks)])
        return outputs.to_ciphertexts()

    # -- internals -----------------------------------------------------------------

    def _bootstrap_stack(
        self, pieces: Sequence[tuple[LweBatch, np.ndarray]]
    ) -> tuple[Iterator[LweBatch], int]:
        """One stack of ``(rows, test vector)`` pieces: each piece's outputs, and the calls.

        The only epoch cut: each ``batch_capacity`` rows are one pass through
        the stacked-array PBS chain (bootstrap and keyswitch), as the
        accelerator would schedule them (the epoch rule ``spec_run`` states).
        """
        if not pieces:
            return iter(()), 0
        keys, capacity = self.generate_server_keys(), self.batch_capacity
        batches, vectors = zip(*pieces)
        sizes = [len(batch) for batch in batches]
        stack_masks = np.concatenate([batch.masks for batch in batches])
        stack_bodies = np.concatenate([batch.bodies for batch in batches])
        test_vectors = np.repeat(vectors, sizes, axis=0)
        epochs = []
        for start in range(0, len(stack_bodies), capacity):
            rows = slice(start, start + capacity)
            epochs.append(
                batch_bootstrap_with_test_vector(
                    LweBatch(stack_masks[rows], stack_bodies[rows], self.params),
                    test_vectors[rows],
                    keys.bootstrapping_key,
                    self.params,
                    keys.keyswitching_key,
                ).ciphertexts
            )
        cuts = np.cumsum(sizes)[:-1]
        masks = np.split(np.concatenate([epoch.masks for epoch in epochs]), cuts)
        bodies = np.split(np.concatenate([epoch.bodies for epoch in epochs]), cuts)
        return map(LweBatch, masks, bodies, [self.params] * len(pieces)), len(epochs)

    def _phases(self, ciphertexts: list[LweCiphertext]) -> np.ndarray:
        """Noisy phases of a non-empty batch under the key matching its dimension."""
        batch = LweBatch.from_ciphertexts(ciphertexts)
        return batch_phase(batch, self.context.key_bits(batch.dimension))
