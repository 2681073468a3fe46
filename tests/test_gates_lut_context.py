"""Tests for boolean gate bootstrapping, look-up tables and the context API."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.params import TOY_PARAMETERS
from repro.tfhe import torus
from repro.tfhe.batch import GATES
from repro.tfhe.context import TFHEContext
from repro.tfhe.lut import LookUpTable, relu_lut, threshold_lut
from repro.tfhe.lwe import LweCiphertext
from repro.tfhe.noise import (
    blind_rotation_variance,
    external_product_variance,
    keyswitch_variance,
    pbs_failure_probability,
    pbs_output_variance,
)

PARAMS = TOY_PARAMETERS
P = PARAMS.message_modulus
BOOLS = [False, True]


@pytest.fixture(scope="module")
def gates(toy_context):
    return toy_context.gates()


class TestGates:
    def test_not_gate(self, toy_context, gates):
        for value in BOOLS:
            result = gates.not_(toy_context.encrypt_boolean(value))
            assert toy_context.decrypt_boolean(result) is (not value)

    @pytest.mark.parametrize("a,b", list(itertools.product(BOOLS, BOOLS)))
    def test_and_gate(self, toy_context, gates, a, b):
        result = gates.and_(toy_context.encrypt_boolean(a), toy_context.encrypt_boolean(b))
        assert toy_context.decrypt_boolean(result) is (a and b)

    @pytest.mark.parametrize("a,b", list(itertools.product(BOOLS, BOOLS)))
    def test_or_gate(self, toy_context, gates, a, b):
        result = gates.or_(toy_context.encrypt_boolean(a), toy_context.encrypt_boolean(b))
        assert toy_context.decrypt_boolean(result) is (a or b)

    @pytest.mark.parametrize("a,b", list(itertools.product(BOOLS, BOOLS)))
    def test_nand_gate(self, toy_context, gates, a, b):
        result = gates.nand(toy_context.encrypt_boolean(a), toy_context.encrypt_boolean(b))
        assert toy_context.decrypt_boolean(result) is (not (a and b))

    @pytest.mark.parametrize("a,b", list(itertools.product(BOOLS, BOOLS)))
    def test_nor_gate(self, toy_context, gates, a, b):
        result = gates.nor(toy_context.encrypt_boolean(a), toy_context.encrypt_boolean(b))
        assert toy_context.decrypt_boolean(result) is (not (a or b))

    @pytest.mark.parametrize("a,b", list(itertools.product(BOOLS, BOOLS)))
    def test_xor_gate(self, toy_context, gates, a, b):
        result = gates.xor(toy_context.encrypt_boolean(a), toy_context.encrypt_boolean(b))
        assert toy_context.decrypt_boolean(result) is (a != b)

    @pytest.mark.parametrize("a,b", list(itertools.product(BOOLS, BOOLS)))
    def test_xnor_gate(self, toy_context, gates, a, b):
        result = gates.xnor(toy_context.encrypt_boolean(a), toy_context.encrypt_boolean(b))
        assert toy_context.decrypt_boolean(result) is (a == b)

    @pytest.mark.parametrize("a,b", list(itertools.product(BOOLS, BOOLS)))
    def test_andny_gate(self, toy_context, gates, a, b):
        result = gates.andny(toy_context.encrypt_boolean(a), toy_context.encrypt_boolean(b))
        assert toy_context.decrypt_boolean(result) is ((not a) and b)

    @pytest.mark.parametrize("select", BOOLS)
    def test_mux_gate(self, toy_context, gates, select):
        if_true = toy_context.encrypt_boolean(True)
        if_false = toy_context.encrypt_boolean(False)
        result = gates.mux(toy_context.encrypt_boolean(select), if_true, if_false)
        assert toy_context.decrypt_boolean(result) is select

    def test_gate_outputs_are_composable(self, toy_context, gates):
        """Gate outputs are fresh ciphertexts usable as further gate inputs."""
        a = toy_context.encrypt_boolean(True)
        b = toy_context.encrypt_boolean(False)
        c = toy_context.encrypt_boolean(True)
        result = gates.and_(gates.or_(a, b), gates.xor(b, c))
        assert toy_context.decrypt_boolean(result) is ((True or False) and (False ^ True))

    def test_pbs_cost_table(self):
        assert GATES["not"][1] == 0
        assert GATES["mux"][1] == 3
        assert all(cost >= 0 for _, cost in GATES.values())


class TestLookUpTables:
    def test_from_function_tabulates(self):
        lut = LookUpTable.from_function(lambda m: (m + 2) % P, PARAMS)
        assert [lut(m) for m in range(P)] == [(m + 2) % P for m in range(P)]

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            LookUpTable(np.array([0, 1]), PARAMS)
        with pytest.raises(ValueError):
            LookUpTable(np.array([0, 1, 2, P]), PARAMS)

    def test_evaluate_torus_negacyclic_extension(self):
        lut = LookUpTable.from_function(lambda m: (m + 1) % P, PARAMS)
        for message in range(P):
            assert lut.evaluate_torus(message) == (message + 1) % P
            wrapped = lut.evaluate_torus(message + P)
            assert wrapped == (-((message + 1) % P)) % (2 * P)

    def test_relu_lut_shape(self):
        lut = relu_lut(PARAMS)
        assert lut(0) == 0 and lut(1) == 1
        assert lut(P // 2) == 0 and lut(P - 1) == 0

    def test_sign_and_threshold_luts(self):
        threshold = threshold_lut(2, PARAMS)
        assert threshold(1) == 0 and threshold(2) == 1

    @pytest.mark.parametrize("message", range(P))
    def test_homomorphic_lut_application(self, toy_context, message):
        lut = LookUpTable.from_function(lambda m: (3 * m) % P, PARAMS)
        result = toy_context.apply_lut(toy_context.encrypt(message), lut)
        assert toy_context.decrypt(result) == (3 * message) % P


class TestContext:
    def test_encrypt_decrypt_all_messages(self, toy_context):
        for message in range(P):
            assert toy_context.decrypt(toy_context.encrypt(message)) == message

    def test_boolean_roundtrip(self, toy_context):
        for value in BOOLS:
            assert toy_context.decrypt_boolean(toy_context.encrypt_boolean(value)) is value

    def test_server_keys_cached(self, toy_context):
        assert toy_context.generate_server_keys() is toy_context.generate_server_keys()

    def test_programmable_bootstrap_via_context(self, toy_context):
        result = toy_context.programmable_bootstrap(toy_context.encrypt(2), lambda m: (m + 1) % P)
        assert toy_context.decrypt(result.ciphertext) == 3

    def test_decrypt_rejects_unknown_dimension(self, toy_context):
        stranger = LweCiphertext.trivial(0, 17, PARAMS)
        with pytest.raises(ValueError):
            toy_context.decrypt(stranger)

    def test_deterministic_with_seed(self):
        first = TFHEContext(PARAMS, seed=1)
        second = TFHEContext(PARAMS, seed=1)
        np.testing.assert_array_equal(first.lwe_key.bits, second.lwe_key.bits)
        np.testing.assert_array_equal(first.glwe_key.polynomials, second.glwe_key.polynomials)

    def test_different_seeds_give_different_keys(self):
        first = TFHEContext(PARAMS, seed=1)
        second = TFHEContext(PARAMS, seed=2)
        assert not np.array_equal(first.lwe_key.bits, second.lwe_key.bits)


class TestNoiseModel:
    def test_external_product_increases_variance(self):
        base = 1e-12
        assert external_product_variance(PARAMS, base) > base

    def test_blind_rotation_variance_positive_and_finite(self):
        variance = blind_rotation_variance(PARAMS)
        assert 0 < variance < 1

    def test_keyswitch_adds_variance(self):
        base = blind_rotation_variance(PARAMS)
        assert keyswitch_variance(PARAMS, base) > base

    def test_pbs_output_variance_composition(self):
        assert pbs_output_variance(PARAMS) == keyswitch_variance(
            PARAMS, blind_rotation_variance(PARAMS)
        )

    def test_toy_parameters_fail_with_negligible_probability(self):
        assert pbs_failure_probability(PARAMS) < 1e-30

    def test_variance_monotone_in_decomposition_base(self):
        import dataclasses

        coarse = dataclasses.replace(PARAMS, log2_base_pbs=4, lb=2)
        fine = dataclasses.replace(PARAMS, log2_base_pbs=8, lb=3)
        assert blind_rotation_variance(fine) < blind_rotation_variance(coarse) * 100

    def test_fresh_lwe_noise_stays_below_a_step(self, toy_context):
        value = PARAMS.q // 4
        ciphertexts = [toy_context.lwe_key.encrypt(value, toy_context.rng) for _ in range(50)]
        phases = np.array([ct.phase(toy_context.lwe_key.bits) for ct in ciphertexts])
        assert np.abs(torus.to_signed(phases - value, PARAMS.q)).max() < PARAMS.delta
