"""TFHE parameter sets used throughout the reproduction.

The paper evaluates four parameter sets (Table IV).  Each set fixes the LWE
mask length ``n``, the GLWE polynomial degree ``N``, the GLWE mask length
``k``, and the decomposition level of the bootstrapping key ``lb``.  This
module also carries the companion quantities the paper leaves implicit but
which a functional TFHE implementation needs: decomposition bases, the
keyswitching decomposition, message precision, and noise standard deviations.

Two extra families are provided:

* ``TOY`` / ``SMALL`` — very small parameter sets used by the unit tests so a
  full programmable bootstrapping runs in milliseconds.
* The ``DEEP_NN_*`` sets used by the Zama Deep-NN application benchmark
  (Fig. 7), which reuse the polynomial degrees 1024 / 2048 / 4096 reported in
  the paper.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TFHEParameters:
    """A complete TFHE parameter set.

    Attributes
    ----------
    name:
        Human readable identifier (``"I"`` .. ``"IV"``, ``"TOY"``, ...).
    n:
        LWE mask length (number of mask elements of an LWE ciphertext).
    N:
        Polynomial degree of the GLWE ring ``Z_q[X]/(X^N + 1)``.
    k:
        GLWE mask length (number of mask polynomials).
    lb:
        Number of decomposition levels used by the bootstrapping key.
    log2_base_pbs:
        log2 of the decomposition base ``B`` used during blind rotation.
    lk:
        Number of decomposition levels used by keyswitching.
    log2_base_ks:
        log2 of the keyswitching decomposition base.
    message_bits:
        Number of message bits carried by a ciphertext (the message modulus
        is ``2**message_bits``); one extra bit of padding is always reserved.
    lwe_noise_std / glwe_noise_std:
        Standard deviation of the encryption noise, expressed as a fraction
        of the torus (i.e. relative to ``q``).
    security_bits:
        Claimed security level, informational only.
    q_bits:
        Width of the torus modulus in bits (32 throughout the paper's
        datapath, except the FFT unit).
    """

    name: str
    n: int
    N: int
    k: int
    lb: int
    log2_base_pbs: int
    lk: int
    log2_base_ks: int
    message_bits: int = 2
    lwe_noise_std: float = 0.0
    glwe_noise_std: float = 0.0
    security_bits: int = 0
    q_bits: int = 32

    def __post_init__(self) -> None:
        if self.N & (self.N - 1):
            raise ValueError(f"N must be a power of two, got {self.N}")
        if self.n <= 0 or self.k <= 0 or self.lb <= 0 or self.lk <= 0:
            raise ValueError("n, k, lb and lk must all be positive")
        if self.message_bits < 1:
            raise ValueError("message_bits must be at least 1")
        if self.message_modulus * 2 > 2 * self.N:
            raise ValueError(
                "message modulus too large for the polynomial degree: "
                f"p={self.message_modulus}, N={self.N}"
            )

    # -- derived quantities -------------------------------------------------

    @property
    def q(self) -> int:
        """Ciphertext modulus (always a power of two)."""
        return 1 << self.q_bits

    @property
    def base_pbs(self) -> int:
        """Decomposition base used by the bootstrapping key."""
        return 1 << self.log2_base_pbs

    @property
    def base_ks(self) -> int:
        """Decomposition base used by keyswitching."""
        return 1 << self.log2_base_ks

    @property
    def message_modulus(self) -> int:
        """Number of representable messages ``p``."""
        return 1 << self.message_bits

    @property
    def delta(self) -> int:
        """Scaling factor placing a message in the upper torus bits.

        One bit of padding is reserved, so ``delta = q / (2 * p)``.
        """
        return self.q // (2 * self.message_modulus)

    # -- sizes (bytes), used by the memory/bandwidth models ------------------

    @property
    def glwe_ciphertext_bytes(self) -> int:
        """Size of one GLWE ciphertext in bytes (``(k+1) * N`` coefficients)."""
        return (self.k + 1) * self.N * (self.q_bits // 8)

    @property
    def ggsw_ciphertext_bytes(self) -> int:
        """Size of one GGSW ciphertext: ``(k+1)*lb x (k+1)`` polynomials."""
        return (self.k + 1) * self.lb * self.glwe_ciphertext_bytes

    @property
    def ggsw_fourier_bytes(self) -> int:
        """Size of one GGSW ciphertext stored in the (folded) Fourier domain.

        The folding scheme stores ``N/2`` complex points per polynomial, each
        point a pair of 32-bit fixed-point values (Section V-A).
        """
        polys = (self.k + 1) * self.lb * (self.k + 1)
        return polys * (self.N // 2) * 8

    @property
    def bootstrapping_key_bytes(self) -> int:
        """Total bootstrapping key size (``n`` GGSW ciphertexts)."""
        return self.n * self.ggsw_ciphertext_bytes

    @property
    def bootstrapping_key_fourier_bytes(self) -> int:
        """Total bootstrapping key size in the Fourier domain."""
        return self.n * self.ggsw_fourier_bytes

    @property
    def keyswitching_key_bytes(self) -> int:
        """Total keyswitching key size.

        One LWE ciphertext of dimension ``n`` per input coefficient and level:
        ``k*N*lk`` ciphertexts of ``n+1`` coefficients.
        """
        return self.k * self.N * self.lk * (self.n + 1) * (self.q_bits // 8)


def _noise_for_security(n: int) -> float:
    """Heuristic LWE noise standard deviation for a given mask length.

    The exact noise values are not reported in the paper; this follows the
    usual rule of thumb that the noise standard deviation shrinks roughly
    exponentially as the dimension grows for a fixed security target.  The
    functional implementation only needs values that keep decryption failure
    probability negligible, which these do.
    """
    return max(2.0 ** (-0.026 * n - 4.0), 2.0 ** -40)


# ---------------------------------------------------------------------------
# Paper parameter sets (Table IV)
# ---------------------------------------------------------------------------

PARAM_SET_I = TFHEParameters(
    name="I",
    n=500,
    N=1024,
    k=1,
    lb=2,
    log2_base_pbs=10,
    lk=3,
    log2_base_ks=4,
    message_bits=2,
    lwe_noise_std=_noise_for_security(500),
    glwe_noise_std=2.0 ** -25,
    security_bits=110,
)

PARAM_SET_II = TFHEParameters(
    name="II",
    n=630,
    N=1024,
    k=1,
    lb=3,
    log2_base_pbs=7,
    lk=4,
    log2_base_ks=3,
    message_bits=2,
    lwe_noise_std=_noise_for_security(630),
    glwe_noise_std=2.0 ** -25,
    security_bits=128,
)

PARAM_SET_III = TFHEParameters(
    name="III",
    n=592,
    N=2048,
    k=1,
    lb=3,
    log2_base_pbs=8,
    lk=4,
    log2_base_ks=3,
    message_bits=3,
    lwe_noise_std=_noise_for_security(592),
    glwe_noise_std=2.0 ** -26,
    security_bits=128,
)

PARAM_SET_IV = TFHEParameters(
    name="IV",
    n=991,
    N=16384,
    k=1,
    lb=2,
    log2_base_pbs=15,
    lk=4,
    log2_base_ks=4,
    message_bits=5,
    lwe_noise_std=_noise_for_security(991),
    glwe_noise_std=2.0 ** -31,
    security_bits=128,
)

#: The four evaluation parameter sets of Table IV, keyed by name.
PAPER_PARAMETER_SETS: dict[str, TFHEParameters] = {
    p.name: p for p in (PARAM_SET_I, PARAM_SET_II, PARAM_SET_III, PARAM_SET_IV)
}

# ---------------------------------------------------------------------------
# Deep-NN parameter variants (Fig. 7 uses N = 1024 / 2048 / 4096)
# ---------------------------------------------------------------------------

DEEP_NN_N1024 = TFHEParameters(
    name="NN-1024",
    n=600,
    N=1024,
    k=1,
    lb=2,
    log2_base_pbs=10,
    lk=3,
    log2_base_ks=4,
    message_bits=2,
    lwe_noise_std=_noise_for_security(600),
    glwe_noise_std=2.0 ** -25,
    security_bits=128,
)

DEEP_NN_N2048 = TFHEParameters(
    name="NN-2048",
    n=700,
    N=2048,
    k=1,
    lb=2,
    log2_base_pbs=11,
    lk=3,
    log2_base_ks=4,
    message_bits=3,
    lwe_noise_std=_noise_for_security(700),
    glwe_noise_std=2.0 ** -26,
    security_bits=128,
)

DEEP_NN_N4096 = TFHEParameters(
    name="NN-4096",
    n=800,
    N=4096,
    k=1,
    lb=2,
    log2_base_pbs=12,
    lk=3,
    log2_base_ks=4,
    message_bits=4,
    lwe_noise_std=_noise_for_security(800),
    glwe_noise_std=2.0 ** -27,
    security_bits=128,
)

#: Parameter sets for the Zama Deep-NN application benchmark, keyed by N.
DEEP_NN_PARAMETER_SETS: dict[int, TFHEParameters] = {
    1024: DEEP_NN_N1024,
    2048: DEEP_NN_N2048,
    4096: DEEP_NN_N4096,
}

# ---------------------------------------------------------------------------
# Test-sized parameter sets (not from the paper; used by the test suite)
# ---------------------------------------------------------------------------

TOY_PARAMETERS = TFHEParameters(
    name="TOY",
    n=16,
    N=128,
    k=1,
    lb=3,
    log2_base_pbs=8,
    lk=3,
    log2_base_ks=4,
    message_bits=2,
    lwe_noise_std=2.0 ** -20,
    glwe_noise_std=2.0 ** -24,
    security_bits=0,
)

SMALL_PARAMETERS = TFHEParameters(
    name="SMALL",
    n=64,
    N=256,
    k=2,
    lb=3,
    log2_base_pbs=8,
    lk=3,
    log2_base_ks=4,
    message_bits=2,
    lwe_noise_std=2.0 ** -22,
    glwe_noise_std=2.0 ** -25,
    security_bits=0,
)


def get_parameters(name: str) -> TFHEParameters:
    """Look up a parameter set by name (``"I"``–``"IV"``, ``"TOY"``, ``"SMALL"``).

    Raises ``KeyError`` with the list of known names when the set is unknown.
    """
    known: dict[str, TFHEParameters] = dict(PAPER_PARAMETER_SETS)
    known["TOY"] = TOY_PARAMETERS
    known["SMALL"] = SMALL_PARAMETERS
    for params in DEEP_NN_PARAMETER_SETS.values():
        known[params.name] = params
    try:
        return known[name]
    except KeyError:
        raise KeyError(
            f"unknown parameter set {name!r}; known sets: {sorted(known)}"
        ) from None
