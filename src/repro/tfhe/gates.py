"""Boolean gate bootstrapping.

TFHE's original use case: booleans are encoded as ``±q/8``, a gate is a small
linear combination of its input ciphertexts followed by a sign bootstrap, so
every gate output is freshly bootstrapped (Section II-B).  The homomorphic
gate set defined here is the workload profiled in Fig. 1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.params import TFHEParameters
from repro.tfhe.bootstrap import bootstrap_to_sign
from repro.tfhe.keys import BootstrappingKey, KeySwitchingKey
from repro.tfhe.lwe import LweCiphertext


@dataclass
class GateBootstrapper:
    """Evaluates boolean gates with one PBS (plus keyswitch) per gate.

    Attributes
    ----------
    bootstrapping_key / keyswitching_key:
        Evaluation keys produced during key generation.
    params:
        Parameter set (``q/8`` defines the boolean encoding).
    """

    bootstrapping_key: BootstrappingKey
    keyswitching_key: KeySwitchingKey
    params: TFHEParameters

    # -- helpers ---------------------------------------------------------------

    def _offset(self, numerator: int, denominator: int) -> int:
        """Torus constant ``numerator/denominator`` expressed modulo ``q``."""
        return (numerator * self.params.q // denominator) % self.params.q

    def _bootstrap(self, combination: LweCiphertext) -> LweCiphertext:
        return bootstrap_to_sign(
            combination,
            self.bootstrapping_key,
            self.params,
            self.keyswitching_key,
        ).ciphertext

    # -- gates -----------------------------------------------------------------

    def not_(self, a: LweCiphertext) -> LweCiphertext:
        """Scalar oracle of the batch gate: NOT, pure negation, no bootstrap needed."""
        return -a

    def and_(self, a: LweCiphertext, b: LweCiphertext) -> LweCiphertext:
        """AND(a, b) = sign(-q/8 + a + b)."""
        combination = (a + b).add_plaintext(-self._offset(1, 8))
        return self._bootstrap(combination)

    def or_(self, a: LweCiphertext, b: LweCiphertext) -> LweCiphertext:
        """OR(a, b) = sign(+q/8 + a + b)."""
        combination = (a + b).add_plaintext(self._offset(1, 8))
        return self._bootstrap(combination)

    def nand(self, a: LweCiphertext, b: LweCiphertext) -> LweCiphertext:
        """NAND(a, b) = sign(+q/8 - a - b)."""
        combination = (-(a + b)).add_plaintext(self._offset(1, 8))
        return self._bootstrap(combination)

    def nor(self, a: LweCiphertext, b: LweCiphertext) -> LweCiphertext:
        """Scalar oracle of the batch gate: NOR(a, b) = sign(-q/8 - a - b)."""
        combination = (-(a + b)).add_plaintext(-self._offset(1, 8))
        return self._bootstrap(combination)

    def xor(self, a: LweCiphertext, b: LweCiphertext) -> LweCiphertext:
        """Scalar oracle of the batch gate: XOR(a, b) = sign(q/4 + 2*(a + b))."""
        combination = (a + b).scalar_multiply(2).add_plaintext(self._offset(1, 4))
        return self._bootstrap(combination)

    def xnor(self, a: LweCiphertext, b: LweCiphertext) -> LweCiphertext:
        """Scalar oracle of the batch gate: XNOR(a, b) = sign(-q/4 - 2*(a + b))."""
        combination = (a + b).scalar_multiply(-2).add_plaintext(-self._offset(1, 4))
        return self._bootstrap(combination)

    def andny(self, a: LweCiphertext, b: LweCiphertext) -> LweCiphertext:
        """AND-NOT-Y: ``(not a) and b`` in a single bootstrap."""
        combination = (b - a).add_plaintext(-self._offset(1, 8))
        return self._bootstrap(combination)

    def mux(
        self, select: LweCiphertext, if_true: LweCiphertext, if_false: LweCiphertext
    ) -> LweCiphertext:
        """Scalar oracle of the batch gate: (select AND t) OR ((NOT select) AND f).

        Uses three bootstraps; the dedicated two-bootstrap MUX of the TFHE
        library is a latency optimization that does not change throughput
        accounting, so the simple composition is used here.
        """
        first = self.and_(select, if_true)
        second = self.andny(select, if_false)
        return self.or_(first, second)
