"""Batch-first user session: keys plus vectorized encrypt/decrypt/bootstrap.

The paper's central argument is that TFHE throughput comes from *batching* —
epochs of ``device batch x core batch`` ciphertexts streamed through the
accelerator (Section IV-C) — yet the original user API was strictly
per-ciphertext.  :class:`Session` is the batch-first front door: it owns a
:class:`~repro.tfhe.context.TFHEContext` (client keys and the server-key
split), exposes every per-ciphertext helper unchanged, and adds the batch
APIs (``encrypt_batch`` / ``decrypt_batch`` / ``bootstrap_batch`` /
``gate_batch``) whose chunk size mirrors the paper's two-level batch
geometry.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.arch.accelerator import StrixAccelerator
from repro.params import TFHEParameters, TOY_PARAMETERS
from repro.runtime.workload import WorkloadLike, resolve_params
from repro.tfhe import encoding, torus
from repro.tfhe.batch import (
    LweBatch,
    batch_encrypt,
    batch_gate,
    batch_phase,
    batch_programmable_bootstrap,
)
from repro.tfhe.bootstrap import BootstrapResult
from repro.tfhe.context import ServerKeys, TFHEContext
from repro.tfhe.gates import GateBootstrapper
from repro.tfhe.lut import LookUpTable
from repro.tfhe.lwe import LweCiphertext


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
        stacks each epoch into arrays and runs the batch kernels of
        :mod:`repro.tfhe.batch`; the scalar reference kernels they are held
        to bit for bit are the per-ciphertext API (:meth:`encrypt` /
        :meth:`decrypt` / :meth:`programmable_bootstrap` / :meth:`apply_lut`
        / :meth:`gates`).  The keyword survives only because the frozen
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
                "(encrypt / decrypt / programmable_bootstrap / apply_lut / gates())"
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
    def device_batch_size(self) -> int:
        """Ciphertexts batched across cores (the accelerator's TvLP)."""
        return self.accelerator.config.tvlp

    @property
    def core_batch_size(self) -> int:
        """Ciphertexts batched within one core for this parameter set."""
        return self.accelerator.core.core_batch_size(self.params)

    @property
    def batch_capacity(self) -> int:
        """Ciphertexts of one scheduling epoch (device x core batch)."""
        return self.device_batch_size * self.core_batch_size

    def iter_epochs(self, items: Sequence) -> Iterator[Sequence]:
        """Split a batch into epoch-sized chunks (the scheduler's unit)."""
        capacity = self.batch_capacity
        for start in range(0, len(items), capacity):
            yield items[start : start + capacity]

    # -- per-ciphertext API (delegates to the context) ------------------------------

    def encrypt(self, message: int) -> LweCiphertext:
        """Encrypt an integer message ``0 <= message < p``."""
        return self.context.encrypt(message)

    def decrypt(self, ciphertext: LweCiphertext) -> int:
        """Decrypt an LWE ciphertext to its integer message."""
        return self.context.decrypt(ciphertext)

    def encrypt_boolean(self, value: bool) -> LweCiphertext:
        """Encrypt a boolean with the gate-bootstrapping encoding."""
        return self.context.encrypt_boolean(value)

    def decrypt_boolean(self, ciphertext: LweCiphertext) -> bool:
        """Decrypt a gate-bootstrapping boolean ciphertext."""
        return self.context.decrypt_boolean(ciphertext)

    def programmable_bootstrap(
        self,
        ciphertext: LweCiphertext,
        function: Callable[[int], int],
        keyswitch: bool = True,
    ) -> BootstrapResult:
        """Run a full PBS evaluating ``function`` on the encrypted message."""
        return self.context.programmable_bootstrap(ciphertext, function, keyswitch)

    def apply_lut(self, ciphertext: LweCiphertext, lut: LookUpTable) -> LweCiphertext:
        """Apply a :class:`LookUpTable` homomorphically (one PBS)."""
        return self.context.apply_lut(ciphertext, lut)

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
        self,
        ciphertexts: Iterable[LweCiphertext],
        function: Callable[[int], int],
        keyswitch: bool = True,
    ) -> list[LweCiphertext]:
        """Bootstrap a batch of ciphertexts through the same function.

        Ciphertexts are processed in epoch-sized chunks (``batch_capacity``),
        mirroring how the accelerator would schedule them: each chunk is one
        pass through the stacked-array PBS chain, bit-for-bit identical to
        :meth:`programmable_bootstrap` applied element by element.
        """
        refreshed: list[LweCiphertext] = []
        for epoch in self.iter_epochs(list(ciphertexts)):
            keys = self.generate_server_keys()  # cached; an empty batch needs none
            result = batch_programmable_bootstrap(
                LweBatch.from_ciphertexts(epoch),
                function,
                keys.bootstrapping_key,
                self.params,
                keys.keyswitching_key if keyswitch else None,
            )
            refreshed.extend(result.ciphertexts.to_ciphertexts())
        return refreshed

    def apply_lut_batch(
        self, ciphertexts: Iterable[LweCiphertext], lut: LookUpTable
    ) -> list[LweCiphertext]:
        """Apply one LUT across a batch of ciphertexts (one PBS each)."""
        entries = lut.entries
        return self.bootstrap_batch(ciphertexts, lambda m: int(entries[m % len(entries)]))

    def gate_batch(
        self, gate: str, *operand_batches: Iterable[LweCiphertext]
    ) -> list[LweCiphertext]:
        """Vectorized gate application: ``gate_batch("and", lhs, rhs)``.

        Every operand batch must have the same length; element ``i`` of the
        result is the gate applied to the ``i``-th element of every batch
        (three batches for ``"mux"``, one for ``"not"``), computed one
        epoch-sized chunk (``batch_capacity``) of every batch at a time.
        """
        if gate not in GateBootstrapper.PBS_COST:
            raise ValueError(
                f"unknown gate {gate!r}; known gates: {sorted(GateBootstrapper.PBS_COST)}"
            )
        if not operand_batches:
            raise ValueError("gate_batch needs at least one operand batch")
        operands = [list(batch) for batch in operand_batches]
        lengths = {len(batch) for batch in operands}
        if len(lengths) != 1:
            raise ValueError(f"operand batches have mismatched lengths: {sorted(lengths)}")
        bsk = ksk = None
        if operands[0] and GateBootstrapper.PBS_COST[gate]:  # ``not`` negates: no keys
            keys = self.generate_server_keys()
            bsk, ksk = keys.bootstrapping_key, keys.keyswitching_key
        results: list[LweCiphertext] = []
        for epoch in zip(*map(self.iter_epochs, operands)):  # aligned epoch-sized chunks
            stacked = tuple(LweBatch.from_ciphertexts(chunk) for chunk in epoch)
            results += batch_gate(gate, stacked, bsk, ksk, self.params).to_ciphertexts()
        return results

    # -- internals -----------------------------------------------------------------

    def _phases(self, ciphertexts: list[LweCiphertext]) -> np.ndarray:
        """Noisy phases of a non-empty batch under the key matching its dimension."""
        batch = LweBatch.from_ciphertexts(ciphertexts)
        return batch_phase(batch, self._key_bits_for(batch.dimension))

    def _key_bits_for(self, dimension: int) -> np.ndarray:
        """Secret-key bit vector matching an LWE dimension (``n`` or ``k*N``)."""
        params = self.params
        if dimension == params.n:
            return self.context.lwe_key.bits
        if dimension == params.k * params.N:
            return self.context.glwe_key.extracted_lwe_key()
        raise ValueError(
            f"ciphertext dimension {dimension} matches neither the LWE key "
            f"({params.n}) nor the extracted key ({params.k * params.N})"
        )

    # -- execution facade --------------------------------------------------------------

    def run(self, workload: WorkloadLike, backend: str = "strix-sim", **options):
        """Execute a workload with this session's keys; see :func:`repro.runtime.run`."""
        from repro.runtime.api import run as run_workload

        return run_workload(workload, backend=backend, session=self, **options)

