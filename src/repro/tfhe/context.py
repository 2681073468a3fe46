"""High-level TFHE user API.

:class:`TFHEContext` bundles key generation and the encrypt / decrypt /
bootstrap entry points so examples and applications do not have to juggle the
individual key objects.  It mirrors the "client key / server key" split of
the Concrete library: everything an untrusted evaluator needs lives in
:class:`ServerKeys`, while the secret keys stay in the context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.params import TFHEParameters, TOY_PARAMETERS
from repro.tfhe import encoding
from repro.tfhe.bootstrap import BootstrapResult, programmable_bootstrap
from repro.tfhe.gates import GateBootstrapper
from repro.tfhe.keys import (
    BootstrappingKey,
    GlweSecretKey,
    KeySwitchingKey,
    LweSecretKey,
)
from repro.tfhe.lut import LookUpTable
from repro.tfhe.lwe import LweCiphertext
from repro.tfhe.noise import MAX_PBS_FAILURE_PROBABILITY, pbs_failure_probability


@dataclass
class ServerKeys:
    """Public evaluation material: bootstrapping and keyswitching keys."""

    bootstrapping_key: BootstrappingKey
    keyswitching_key: KeySwitchingKey
    params: TFHEParameters

    @property
    def total_bytes(self) -> int:
        """Combined size of the evaluation keys (Fourier-domain bsk + ksk)."""
        return self.bootstrapping_key.size_bytes + self.keyswitching_key.size_bytes


class TFHEContext:
    """Key generation plus high-level encrypt / decrypt / bootstrap helpers.

    Parameters
    ----------
    params:
        TFHE parameter set; defaults to the fast test-sized set.
    seed:
        Seed for the deterministic random generator (key generation and every
        encryption drawn from this context share the generator).
    """

    def __init__(self, params: TFHEParameters = TOY_PARAMETERS, seed: int | None = None):
        self.params = params
        self.rng = np.random.default_rng(seed)
        self.lwe_key = LweSecretKey.generate(params, self.rng)
        self.glwe_key = GlweSecretKey.generate(params, self.rng)
        self._extracted_key = self.glwe_key.extracted_lwe_key()
        self._server_keys: ServerKeys | None = None

    # -- key material -----------------------------------------------------------

    def generate_server_keys(self) -> ServerKeys:
        """Generate (and cache) the bootstrapping and keyswitching keys.

        A set predicted to fail a PBS more often than ``MAX_PBS_FAILURE_PROBABILITY``
        is refused with a ``ValueError`` before any key is drawn.
        """
        if self._server_keys is None:
            failure = pbs_failure_probability(self.params)
            if failure > MAX_PBS_FAILURE_PROBABILITY:
                raise ValueError(
                    f"parameter set {self.params.name!r} predicts a per-PBS failure "
                    f"probability of {failure:.2g}, above the "
                    f"{MAX_PBS_FAILURE_PROBABILITY:.2g} that key generation accepts"
                )
            bsk = BootstrappingKey.generate(self.lwe_key, self.glwe_key, self.rng)
            ksk = KeySwitchingKey.generate(self.glwe_key, self.lwe_key, self.rng)
            self._server_keys = ServerKeys(bsk, ksk, self.params)
        return self._server_keys

    @property
    def server_keys(self) -> ServerKeys:
        """The cached server keys (generated on first access)."""
        return self.generate_server_keys()

    # -- integer messages ---------------------------------------------------------

    def encrypt(self, message: int) -> LweCiphertext:
        """Encrypt an integer message ``0 <= message < p``."""
        value = encoding.encode(message, self.params)
        return self.lwe_key.encrypt(value, self.rng)

    def decrypt(self, ciphertext: LweCiphertext) -> int:
        """Decrypt an LWE ciphertext to its integer message.

        Handles both ``n``-dimensional ciphertexts and ``k*N``-dimensional
        ciphertexts extracted from a GLWE.
        """
        phase = self._phase(ciphertext)
        return encoding.decode(phase, self.params) % self.params.message_modulus

    # -- booleans -----------------------------------------------------------------

    def encrypt_boolean(self, value: bool) -> LweCiphertext:
        """Scalar oracle of ``Session.encrypt_boolean_batch``: encrypt one boolean (``±q/8``)."""
        return self.lwe_key.encrypt(encoding.encode_boolean(value, self.params), self.rng)

    def decrypt_boolean(self, ciphertext: LweCiphertext) -> bool:
        """Scalar oracle of ``Session.decrypt_boolean_batch``: decrypt one boolean ciphertext."""
        return encoding.decode_boolean(self._phase(ciphertext), self.params)

    def gates(self) -> GateBootstrapper:
        """Return a :class:`GateBootstrapper` wired to this context's keys."""
        keys = self.generate_server_keys()
        return GateBootstrapper(keys.bootstrapping_key, keys.keyswitching_key, self.params)

    # -- bootstrapping -------------------------------------------------------------

    def programmable_bootstrap(
        self,
        ciphertext: LweCiphertext,
        function: Callable[[int], int],
        keyswitch: bool = True,
    ) -> BootstrapResult:
        """Run a full PBS evaluating ``function`` on the encrypted message."""
        keys = self.generate_server_keys()
        return programmable_bootstrap(
            ciphertext,
            function,
            keys.bootstrapping_key,
            self.params,
            keys.keyswitching_key if keyswitch else None,
        )

    def apply_lut(self, ciphertext: LweCiphertext, lut: LookUpTable) -> LweCiphertext:
        """Apply a :class:`LookUpTable` homomorphically (one PBS)."""
        keys = self.generate_server_keys()
        return lut.apply(ciphertext, keys.bootstrapping_key, keys.keyswitching_key)

    def key_bits(self, dimension: int) -> np.ndarray:
        """Key bits for an LWE dimension: the LWE key (``n``) or the extracted key (``k*N``)."""
        if dimension == self.params.n:
            return self.lwe_key.bits
        if dimension == self.params.k * self.params.N:
            return self._extracted_key
        raise ValueError(
            f"ciphertext dimension {dimension} matches neither the LWE "
            f"key ({self.params.n}) nor the extracted key ({self.params.k * self.params.N})"
        )

    # -- internals -----------------------------------------------------------------

    def _phase(self, ciphertext: LweCiphertext) -> int:
        return ciphertext.phase(self.key_bits(ciphertext.dimension))
