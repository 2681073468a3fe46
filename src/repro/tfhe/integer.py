"""Radix-encrypted integers: multi-digit arithmetic over TFHE.

A single TFHE ciphertext carries only a few message bits, so larger integers
are represented as a little-endian vector of digit ciphertexts in base
``2**digit_bits`` (the approach of Concrete's integer API and of the paper's
"operations for integer and fixed-point numbers" discussion).  Additions are
cheap linear operations; once a digit's carry headroom is exhausted a
*carry propagation* pass uses two programmable bootstraps per digit (one to
extract the digit value, one to extract the carry), which is exactly the
kind of PBS-heavy workload Strix batches across.

The implementation intentionally keeps one bit of carry headroom: with
``digit_bits = message_bits - 1`` a digit plus an incoming carry never
overflows the padded message space, so homomorphic results always decrypt
correctly after propagation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.params import TFHEParameters
from repro.tfhe.context import TFHEContext
from repro.tfhe.lut import LookUpTable
from repro.tfhe.lwe import LweCiphertext


@dataclass
class EncryptedInteger:
    """An unsigned integer encrypted as little-endian radix digits."""

    digits: list[LweCiphertext]
    digit_bits: int
    params: TFHEParameters

    @property
    def num_digits(self) -> int:
        """Number of radix digits."""
        return len(self.digits)

    @property
    def radix(self) -> int:
        """The digit base ``2**digit_bits``."""
        return 1 << self.digit_bits


class RadixIntegerCodec:
    """Encrypt / decrypt / compute on radix-encrypted integers.

    Parameters
    ----------
    context:
        The TFHE context providing keys and bootstrapping.
    digit_bits:
        Plaintext bits per digit.  Must leave at least one bit of headroom in
        the context's message space (``digit_bits < message_bits``) so a
        pending carry never overflows into the padding bit.
    num_digits:
        Number of digits per integer.
    """

    def __init__(self, context: TFHEContext, digit_bits: int | None = None, num_digits: int = 4):
        params = context.params
        if digit_bits is None:
            digit_bits = params.message_bits - 1
        if digit_bits < 1:
            raise ValueError("digit_bits must be at least 1")
        if digit_bits >= params.message_bits:
            raise ValueError(
                "digit_bits must leave carry headroom: need digit_bits < "
                f"message_bits ({digit_bits} >= {params.message_bits})"
            )
        if num_digits < 1:
            raise ValueError("num_digits must be at least 1")
        self.context = context
        self.params = params
        self.digit_bits = digit_bits
        self.num_digits = num_digits
        self.radix = 1 << digit_bits
        p = params.message_modulus
        self._digit_lut = LookUpTable.from_function(lambda m: m % self.radix, params)
        self._carry_lut = LookUpTable.from_function(lambda m: (m // self.radix) % p, params)

    # -- encoding ------------------------------------------------------------

    @property
    def max_value(self) -> int:
        """Largest representable plaintext value."""
        return self.radix**self.num_digits - 1

    def encrypt(self, value: int) -> EncryptedInteger:
        """Encrypt an unsigned integer digit by digit."""
        if not 0 <= value <= self.max_value:
            raise ValueError(f"value {value} out of range [0, {self.max_value}]")
        digits = []
        remaining = value
        for _ in range(self.num_digits):
            digits.append(self.context.encrypt(remaining % self.radix))
            remaining //= self.radix
        return EncryptedInteger(digits, self.digit_bits, self.params)

    def decrypt(self, value: EncryptedInteger) -> int:
        """Decrypt a radix integer (digits are reduced modulo the radix)."""
        total = 0
        for index, digit in enumerate(value.digits):
            total += (self.context.decrypt(digit) % self.radix) << (index * self.digit_bits)
        return total

    # -- arithmetic ------------------------------------------------------------

    def add(
        self, a: EncryptedInteger, b: EncryptedInteger, propagate: bool = True
    ) -> EncryptedInteger:
        """Homomorphic addition (digit-wise), optionally propagating carries.

        Without propagation the digit ciphertexts hold values up to
        ``2 * (radix - 1)``, still within the message space thanks to the
        carry headroom; with propagation every digit is reduced back below
        the radix using two PBS per digit.
        """
        self._check_compatible(a, b)
        summed = EncryptedInteger(
            [da + db for da, db in zip(a.digits, b.digits)], self.digit_bits, self.params
        )
        return self.propagate_carries(summed) if propagate else summed

    def add_scalar(
        self, a: EncryptedInteger, scalar: int, propagate: bool = True
    ) -> EncryptedInteger:
        """Add a plaintext integer to an encrypted one."""
        if not 0 <= scalar <= self.max_value:
            raise ValueError(f"scalar {scalar} out of range [0, {self.max_value}]")
        digits = []
        remaining = scalar
        for digit in a.digits:
            from repro.tfhe import encoding

            digits.append(digit.add_plaintext(encoding.encode(remaining % self.radix, self.params)))
            remaining //= self.radix
        result = EncryptedInteger(digits, self.digit_bits, self.params)
        return self.propagate_carries(result) if propagate else result

    def propagate_carries(self, value: EncryptedInteger) -> EncryptedInteger:
        """Restore the canonical form: every digit below the radix.

        Runs two programmable bootstraps per digit (value extraction and
        carry extraction), rippling the carry from the least significant
        digit upwards — ``2 * num_digits`` PBS in total, which is the cost
        model behind :func:`radix_addition_graph`.
        """
        keys = self.context.server_keys
        propagated: list[LweCiphertext] = []
        carry: LweCiphertext | None = None
        for digit in value.digits:
            with_carry = digit if carry is None else digit + carry
            clean = self._digit_lut.apply(with_carry, keys.bootstrapping_key, keys.keyswitching_key)
            carry = self._carry_lut.apply(with_carry, keys.bootstrapping_key, keys.keyswitching_key)
            propagated.append(clean)
        return EncryptedInteger(propagated, self.digit_bits, self.params)

    def pbs_per_addition(self) -> int:
        """Programmable bootstraps needed by one addition with propagation."""
        return 2 * self.num_digits

    def _check_compatible(self, a: EncryptedInteger, b: EncryptedInteger) -> None:
        if a.num_digits != b.num_digits or a.digit_bits != b.digit_bits:
            raise ValueError("operands must share digit count and digit width")
