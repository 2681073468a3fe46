"""End-to-end integration tests spanning multiple subsystems.

These tests exercise realistic flows: a client/server exchange with
serialized ciphertexts, a small encrypted application executed both
functionally and through the performance models, and consistency checks
between the independent layers of the library (functional TFHE, the
operation-count CPU model and the architecture model must agree on the
structure of the work they describe).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.deep_nn import build_deep_nn_graph, ZAMA_DEEP_NN_MODELS
from repro.apps.workloads import pbs_batch_graph
from repro.arch.accelerator import StrixAccelerator
from repro.baselines.cpu_model import ConcreteCpuModel
from repro.baselines.gpu_model import NuFheGpuModel
from repro.params import DEEP_NN_N1024, PARAM_SET_I, SMALL_PARAMETERS, TOY_PARAMETERS
from repro.sim.scheduler import StrixScheduler
from repro.tfhe import serialization
from repro.tfhe.bootstrap import programmable_bootstrap
from repro.tfhe.context import TFHEContext
from repro.tfhe.keyswitch import keyswitch


class TestClientServerFlow:
    def test_offloaded_evaluation_roundtrip(self, toy_context):
        """Client encrypts and ships ciphertexts as ``LWE1`` bytes; a
        'server' holding only the evaluation keys decodes them, evaluates a
        LUT and ships the results back; the client decrypts."""
        client = toy_context
        keys = client.server_keys

        inputs = [0, 1, 2, 3]
        request = serialization.lwe_to_bytes([client.encrypt(m) for m in inputs])

        # Server side: bytes in, bytes out, never touching secrets.
        outputs = [
            programmable_bootstrap(
                ciphertext,
                lambda m: (3 * m + 1) % 4,
                keys.bootstrapping_key,
                TOY_PARAMETERS,
                keys.keyswitching_key,
            ).ciphertext
            for ciphertext in serialization.lwe_from_bytes(request, TOY_PARAMETERS)
        ]
        reply = serialization.lwe_to_bytes(outputs)

        # Client side: decrypt.
        decrypted = [
            client.decrypt(ct) for ct in serialization.lwe_from_bytes(reply, TOY_PARAMETERS)
        ]
        assert decrypted == [(3 * m + 1) % 4 for m in inputs]


class TestCrossParameterSets:
    def test_small_parameters_full_pipeline(self, small_context):
        """The k=2 parameter set exercises the multi-mask GLWE paths."""
        for message in range(SMALL_PARAMETERS.message_modulus):
            result = small_context.programmable_bootstrap(
                small_context.encrypt(message), lambda m: (m + 2) % 4
            )
            assert small_context.decrypt(result.ciphertext) == (message + 2) % 4

    def test_extract_then_keyswitch_dimension_chain(self, small_context):
        """Sample extraction and keyswitching move between the documented
        dimensions: n -> k*N -> n."""
        keys = small_context.server_keys
        result = programmable_bootstrap(
            small_context.encrypt(1),
            lambda m: m,
            keys.bootstrapping_key,
            SMALL_PARAMETERS,
        )
        assert result.extracted.dimension == SMALL_PARAMETERS.k * SMALL_PARAMETERS.N
        switched = keyswitch(result.extracted, keys.keyswitching_key, SMALL_PARAMETERS)
        assert switched.dimension == SMALL_PARAMETERS.n
        assert small_context.decrypt(switched) == 1


class TestModelConsistency:
    """The independent layers must agree on the structure of the work."""

    def test_functional_and_cpu_model_agree_on_polynomial_counts(self):
        """The CPU model charges (k+1)*lb forward FFTs per iteration — the
        same number of digit polynomials the functional external product
        transforms."""
        cpu = ConcreteCpuModel()
        params = TOY_PARAMETERS
        iteration = cpu.blind_rotation_iteration_operations(params)
        per_fft = cpu.fft_operations(params)
        assert iteration["fft"] == pytest.approx((params.k + 1) * params.lb * per_fft)

    def test_architecture_and_functional_agree_on_decomposition_width(self, strix):
        """The HSC decomposer busy time is sized by the same (k+1)*lb digit
        polynomials the functional decomposition produces."""
        from repro.tfhe.decomposition import decompose_polynomial_list

        params = TOY_PARAMETERS
        stacked = np.zeros((params.k + 1, params.N), dtype=np.int64)
        digits = decompose_polynomial_list(stacked, params.lb, params.log2_base_pbs)
        busy = strix.core.pbs_cluster["decomposer"].busy_cycles_per_lwe(params)
        lanes = strix.config.effective_lanes * strix.config.colp
        assert busy == digits.shape[0] * params.N // lanes

    def test_scheduler_and_accelerator_agree_on_batch_time(self, strix):
        scheduler = StrixScheduler(strix)
        lwes = 512
        scheduled = scheduler.run(pbs_batch_graph(PARAM_SET_I, lwes)).total_time_s
        closed_form = strix.config.cycles_to_seconds(strix.pbs_batch_cycles(PARAM_SET_I, lwes))
        assert scheduled == pytest.approx(closed_form, rel=0.01)

    def test_all_platforms_rank_consistently_on_the_same_graph(self):
        """CPU, GPU and Strix all execute the same Deep-NN graph; the ranking
        must match the paper on every platform pair."""
        graph = build_deep_nn_graph(ZAMA_DEEP_NN_MODELS["NN-20"], DEEP_NN_N1024)
        cpu_time = ConcreteCpuModel(threads=48).execute_graph(graph)
        gpu_time = NuFheGpuModel().execute_graph(graph)
        strix_time = StrixScheduler(StrixAccelerator()).run(graph).total_time_s
        assert strix_time < gpu_time < cpu_time

    def test_noise_model_predicts_functional_success(self):
        """The analytical decryption-failure margin must be comfortable for
        the parameter sets the functional tests rely on."""
        from repro.tfhe.noise import decryption_failure_margin

        assert decryption_failure_margin(TOY_PARAMETERS) > 3
        assert decryption_failure_margin(SMALL_PARAMETERS) > 3
        assert decryption_failure_margin(PARAM_SET_I) > 3


class TestDeterminism:
    def test_same_seed_same_ciphertexts(self):
        first = TFHEContext(TOY_PARAMETERS, seed=77)
        second = TFHEContext(TOY_PARAMETERS, seed=77)
        ct1, ct2 = first.encrypt(2), second.encrypt(2)
        np.testing.assert_array_equal(ct1.mask, ct2.mask)
        assert ct1.body == ct2.body

    def test_simulator_is_deterministic(self, strix):
        scheduler = StrixScheduler(strix)
        graph = build_deep_nn_graph(ZAMA_DEEP_NN_MODELS["NN-20"], DEEP_NN_N1024)
        assert scheduler.run(graph).total_time_s == scheduler.run(graph).total_time_s
