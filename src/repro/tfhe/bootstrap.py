"""Programmable bootstrapping (Algorithm 1 of the paper).

PBS chains modulus switching, blind rotation, sample extraction and (in the
end-to-end form used by gates and the Deep-NN workload) keyswitching.  The
result is a *fresh* LWE ciphertext whose message is ``f(m)`` for any chosen
univariate function ``f`` — the defining feature of TFHE that Strix
accelerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


from repro.params import TFHEParameters
from repro.tfhe.blind_rotate import (
    blind_rotate,
    make_constant_test_vector,
    make_test_vector,
)
from repro.tfhe.keys import BootstrappingKey, KeySwitchingKey
from repro.tfhe.keyswitch import keyswitch
from repro.tfhe.lwe import LweCiphertext


@dataclass
class BootstrapResult:
    """Outcome of a programmable bootstrap.

    Attributes
    ----------
    ciphertext:
        The refreshed LWE ciphertext (dimension ``n`` when keyswitching was
        applied, ``k*N`` otherwise).
    extracted:
        The intermediate ciphertext straight after sample extraction, kept
        for analysis and tests.
    """

    ciphertext: LweCiphertext
    extracted: LweCiphertext


def programmable_bootstrap(
    ciphertext: LweCiphertext,
    function: Callable[[int], int],
    bootstrapping_key: BootstrappingKey,
    params: TFHEParameters,
    keyswitching_key: KeySwitchingKey | None = None,
) -> BootstrapResult:
    """Evaluate ``f`` on the encrypted message while refreshing its noise.

    Parameters
    ----------
    ciphertext:
        LWE ciphertext of dimension ``n`` encrypting ``m * delta``.
    function:
        Univariate function on ``Z_p`` (``p = params.message_modulus``).
    bootstrapping_key, keyswitching_key:
        Evaluation keys.  When ``keyswitching_key`` is omitted the result
        stays under the extracted ``k*N``-dimensional key.
    """
    test_vector = make_test_vector(function, params)
    accumulator = blind_rotate(test_vector, ciphertext, bootstrapping_key, params)
    extracted = accumulator.sample_extract(0)
    if keyswitching_key is None:
        return BootstrapResult(extracted, extracted)
    switched = keyswitch(extracted, keyswitching_key, params)
    return BootstrapResult(switched, extracted)


def bootstrap_to_sign(
    ciphertext: LweCiphertext,
    bootstrapping_key: BootstrappingKey,
    params: TFHEParameters,
    keyswitching_key: KeySwitchingKey | None = None,
) -> BootstrapResult:
    """Gate-bootstrapping primitive: map the phase sign onto ``±q/8``.

    Returns an encryption of ``+q/8`` when the input phase lies in the
    lower half of the torus ``(0, q/2)`` and ``-q/8`` otherwise.  The
    boolean gates of :mod:`repro.tfhe.gates` are built on this primitive.
    """
    test_vector = make_constant_test_vector(params.q // 8, params)
    accumulator = blind_rotate(test_vector, ciphertext, bootstrapping_key, params)
    extracted = accumulator.sample_extract(0)
    if keyswitching_key is None:
        return BootstrapResult(extracted, extracted)
    switched = keyswitch(extracted, keyswitching_key, params)
    return BootstrapResult(switched, extracted)
