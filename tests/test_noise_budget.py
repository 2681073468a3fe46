"""The noise model against the noise the functional kernels make, stage by stage.

With the secret keys in hand, a batch of programmable bootstraps is decrypted
after each stage of the PBS chain: blind rotation (the GLWE phase), sample
extraction, keyswitch, and the modulus switch the next PBS starts with.  Each
stage's phase error is its decrypted phase minus the noiseless value: the test
vector rotated by the input's exact switched phase.  The errors' second moment
over the batch is held to the prediction of ``repro.tfhe.noise``:

* not above it beyond sampling error (the formula would be violated), and
* not below a quarter of it beyond sampling error (the formula would be loose
  by more than 4x).

Sampling error is a chi-square band: for ``m`` errors drawn from a centred
Gaussian of variance ``v``, ``m * mean(e**2) / v`` is chi-square with ``m``
degrees of freedom, and the band is its two-sided ``z = 5`` interval (about
6e-7 outside), by the Wilson-Hilferty approximation.  The keys are fixed by
the seed, so the band covers the draws of one key set.  A formula that leaves
the band is fixed in ``noise.py``, not in the band.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro.params import (
    DEEP_NN_N1024,
    DEEP_NN_PARAMETER_SETS,
    PAPER_PARAMETER_SETS,
    SMALL_PARAMETERS,
    TOY_PARAMETERS,
)
from repro.tfhe import encoding, torus
from repro.tfhe.batch import batch_encrypt, batch_phase
from repro.tfhe.batch.kernels import (
    batch_blind_rotate,
    batch_keyswitch,
    batch_modulus_switch,
    batch_sample_extract,
)
from repro.tfhe.blind_rotate import make_test_vector
from repro.tfhe.context import TFHEContext
from repro.tfhe.noise import (
    MAX_PBS_FAILURE_PROBABILITY,
    blind_rotation_variance,
    keyswitch_variance,
    modulus_switch_variance,
    pbs_failure_probability,
)
from repro.tfhe.polynomial import monomial_multiply

#: Parameter set and bootstraps (the band's ``m``) per case.
CASES = {"TOY": (TOY_PARAMETERS, 1000), "SMALL": (SMALL_PARAMETERS, 500)}
STAGES = ("blind rotation", "sample extraction", "keyswitch", "modulus switch")
Z = 5.0
LOOSEST = 4.0


def chi_square_band(samples: int) -> tuple[float, float]:
    """Two-sided ``z = Z`` interval of ``chi2(samples) / samples`` (Wilson-Hilferty)."""
    centre = 1.0 - 2.0 / (9.0 * samples)
    spread = Z * math.sqrt(2.0 / (9.0 * samples))
    return (centre - spread) ** 3, (centre + spread) ** 3


@pytest.fixture(scope="module", params=sorted(CASES))
def stages(request):
    """``(params, {stage: phase errors as torus fractions}, {stage: predicted variance})``."""
    params, bootstraps = CASES[request.param]
    q, two_n = params.q, 2 * params.N
    context = TFHEContext(params, seed=7)
    keys = context.server_keys
    rng = np.random.default_rng(7)  # the suite's shared stream stays untouched
    messages = rng.integers(0, params.message_modulus, bootstraps)
    inputs = batch_encrypt(
        encoding.encode_array(messages, params), context.lwe_key.bits, params, rng
    )
    test_vector = make_test_vector(lambda m: m, params)

    rotated = batch_blind_rotate(test_vector, inputs, keys.bootstrapping_key, params)
    extracted = batch_sample_extract(rotated)
    switched = batch_keyswitch(extracted, keys.keyswitching_key, params)
    next_masks, next_bodies = batch_modulus_switch(switched, params)

    # The noiseless constant coefficient: the test vector rotated by the exact
    # phase the blind rotation was driven by.
    masks, bodies = batch_modulus_switch(inputs, params)
    rotations = (bodies - masks @ context.lwe_key.bits) % two_n
    noiseless = np.array([monomial_multiply(test_vector, -int(r), q)[0] for r in rotations])
    phases = {
        "blind rotation": np.array(
            [ct.phase(context.glwe_key.polynomials)[0] for ct in rotated.to_ciphertexts()]
        ),
        "sample extraction": batch_phase(extracted, context.glwe_key.extracted_lwe_key()),
        "keyswitch": batch_phase(switched, context.lwe_key.bits),
        "modulus switch": (next_bodies - next_masks @ context.lwe_key.bits) % two_n * (q // two_n),
    }
    errors = {stage: torus.to_signed(phases[stage] - noiseless, q) / q for stage in STAGES}

    blind = blind_rotation_variance(params)
    keyswitched = keyswitch_variance(params, blind)
    predicted = {
        "blind rotation": blind,
        "sample extraction": blind,
        "keyswitch": keyswitched,
        "modulus switch": modulus_switch_variance(params, keyswitched),
    }
    return params, errors, predicted


@pytest.mark.parametrize("stage", STAGES)
def test_each_stage_is_inside_the_model_band(stages, stage):
    params, errors, predicted = stages
    measured = float(np.mean(errors[stage] ** 2))
    low, high = chi_square_band(errors[stage].size)
    ratio = measured / predicted[stage]
    assert ratio <= high, (
        f"{params.name} {stage}: measured variance {measured:.3e} exceeds the model's "
        f"{predicted[stage]:.3e} ({ratio:.2f}x, band up to {high:.2f}x)"
    )
    assert ratio >= low / LOOSEST, (
        f"{params.name} {stage}: the model's {predicted[stage]:.3e} is more than "
        f"{LOOSEST:g}x the measured {measured:.3e} ({ratio:.2f}x, band down to {low:.2f}x)"
    )


def test_sample_extraction_adds_no_noise(stages):
    _, errors, _ = stages
    assert np.array_equal(errors["sample extraction"], errors["blind rotation"])


def test_the_next_pbs_reads_every_output_right(stages):
    """Every switched error stays inside half a test-vector block, as predicted."""
    params, errors, _ = stages
    half_block = 1.0 / (4 * params.message_modulus)
    assert np.abs(errors["modulus switch"]).max() < half_block
    assert pbs_failure_probability(params) * errors["modulus switch"].size < 1e-30


#: Every defined parameter set, by name.
DEFINED_SETS = {
    params.name: params
    for params in (
        *PAPER_PARAMETER_SETS.values(),
        *DEEP_NN_PARAMETER_SETS.values(),
        TOY_PARAMETERS,
        SMALL_PARAMETERS,
    )
}
#: The sets predicted to fail a PBS too often to bootstrap correctly, with that prediction.
REFUSED = {"IV": "0.83", "NN-2048": "0.14", "NN-4096": "0.63"}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_key_generation_refuses_a_set_that_would_fail(name):
    """The refusal names the set and its prediction, draws no key and caches nothing."""
    refused = TFHEContext(DEFINED_SETS[name], seed=7)
    state = refused.rng.bit_generator.state
    failure = re.escape(REFUSED[name])
    for _ in range(2):
        with pytest.raises(ValueError, match=rf"{name!r} predicts .* probability of {failure}\b"):
            refused.generate_server_keys()
    assert refused.rng.bit_generator.state == state
    assert refused._server_keys is None


@pytest.mark.parametrize("params", [DEEP_NN_N1024, TOY_PARAMETERS], ids=lambda p: p.name)
def test_key_generation_accepts_a_set_below_the_threshold(params):
    context = TFHEContext(params, seed=7)
    keys = context.generate_server_keys()
    assert keys.params == params
    assert context.generate_server_keys() is keys


@pytest.mark.parametrize("name", sorted(DEFINED_SETS))
def test_only_the_sets_that_cannot_bootstrap_are_refused(name):
    """A set is refused exactly when listed; an accepted one sits >= 75x under the threshold."""
    failure = pbs_failure_probability(DEFINED_SETS[name])
    assert (failure > MAX_PBS_FAILURE_PROBABILITY) == (name in REFUSED)
    if name not in REFUSED:
        assert failure * 75 <= MAX_PBS_FAILURE_PROBABILITY
