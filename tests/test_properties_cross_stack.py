"""Cross-cutting property-based tests.

These hypothesis tests check invariants that span layers: linearity of the
LWE phase, consistency of the noise model, scaling laws of the architecture
model, and conservation properties of the scheduler.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_scheduler_spec import pbs_per_second

from repro.arch.accelerator import StrixAccelerator
from repro.arch.config import STRIX_DEFAULT
from repro.params import PARAM_SET_I, TOY_PARAMETERS
from repro.tfhe import encoding, torus
from repro.tfhe.lwe import LweCiphertext
from repro.tfhe.noise import (
    blind_rotation_variance,
    external_product_variance,
    keyswitch_variance,
)

PARAMS = TOY_PARAMETERS


class TestLwePhaseLinearity:
    @given(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_phase_of_linear_combination(self, toy_context, m1, m2, scale):
        """phase(a + scale*b) == phase(a) + scale*phase(b) exactly (mod q)."""
        ct1 = toy_context.encrypt(m1)
        ct2 = toy_context.encrypt(m2)
        combined = ct1 + ct2.scalar_multiply(scale)
        key = toy_context.lwe_key.bits
        expected = (ct1.phase(key) + scale * ct2.phase(key)) % PARAMS.q
        assert combined.phase(key) == expected

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_trivial_ciphertexts_have_exact_phase(self, value):
        ciphertext = LweCiphertext.trivial(value, PARAMS.n, PARAMS)
        assert ciphertext.phase(np.ones(PARAMS.n, dtype=np.int64)) == value % PARAMS.q

    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_homomorphic_addition_decodes_to_sum(self, toy_context, m1, m2):
        total = toy_context.encrypt(m1) + toy_context.encrypt(m2)
        phase = total.phase(toy_context.lwe_key.bits)
        assert encoding.decode(phase, PARAMS) == (m1 + m2) % (2 * PARAMS.message_modulus)


class TestNoiseModelProperties:
    @given(st.floats(min_value=0.0, max_value=1e-6))
    @settings(max_examples=50, deadline=None)
    def test_external_product_variance_monotone_in_input(self, base_variance):
        grown = external_product_variance(PARAMS, base_variance)
        assert grown >= base_variance

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_blind_rotation_variance_monotone_in_iterations(self, iterations):
        short = dataclasses.replace(PARAMS, n=iterations)
        longer = dataclasses.replace(PARAMS, n=iterations + 8)
        assert blind_rotation_variance(longer) > blind_rotation_variance(short)

    @given(st.floats(min_value=0.0, max_value=1e-6))
    @settings(max_examples=50, deadline=None)
    def test_keyswitch_variance_additive(self, base_variance):
        assert keyswitch_variance(PARAMS, base_variance) > base_variance


class TestArchitectureScalingLaws:
    @given(st.sampled_from([1, 2, 4, 8, 16]))
    @settings(max_examples=10, deadline=None)
    def test_throughput_linear_in_core_count(self, tvlp):
        accelerator = StrixAccelerator(STRIX_DEFAULT.with_parallelism(tvlp=tvlp))
        single = StrixAccelerator(STRIX_DEFAULT.with_parallelism(tvlp=1))
        ratio = accelerator.pbs_throughput(PARAM_SET_I) / single.pbs_throughput(PARAM_SET_I)
        assert ratio == pytest.approx(tvlp, rel=0.01)

    @given(st.sampled_from([1024, 2048, 4096, 8192]))
    @settings(max_examples=8, deadline=None)
    def test_iteration_interval_linear_in_degree(self, degree):
        accelerator = StrixAccelerator()
        params = dataclasses.replace(PARAM_SET_I, N=degree)
        timing = accelerator.core.pipeline_timing(params)
        expected = (
            -(-(params.k + 1) * params.lb // STRIX_DEFAULT.plp)
            * degree
            // (2 * STRIX_DEFAULT.clp)
        )
        assert timing.initiation_interval == expected

    @given(st.integers(min_value=1, max_value=4096))
    @settings(max_examples=50, deadline=None)
    def test_batch_cycles_monotone_in_lwes(self, lwes):
        accelerator = StrixAccelerator()
        assert accelerator.pbs_batch_cycles(PARAM_SET_I, lwes) <= accelerator.pbs_batch_cycles(
            PARAM_SET_I, lwes + 1
        )


class TestSchedulerConservation:
    @given(st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_every_pbs_is_scheduled_exactly_once(self, ciphertexts, stages):
        from repro.apps.workloads import lut_pipeline_graph
        from repro.sim.scheduler import StrixScheduler

        scheduler = StrixScheduler(StrixAccelerator())
        graph = lut_pipeline_graph(PARAM_SET_I, stages=stages, ciphertexts_per_stage=ciphertexts)
        result = scheduler.run(graph)
        assert result.total_pbs == ciphertexts * stages
        assert result.total_time_s > 0
        assert len(result.node_schedules) == stages

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=30, deadline=None)
    def test_throughput_never_exceeds_microbenchmark_peak(self, ciphertexts):
        from repro.apps.workloads import pbs_batch_graph
        from repro.sim.scheduler import StrixScheduler

        accelerator = StrixAccelerator()
        scheduler = StrixScheduler(accelerator)
        result = scheduler.run(pbs_batch_graph(PARAM_SET_I, ciphertexts))
        peak = accelerator.pbs_throughput(PARAM_SET_I)
        assert pbs_per_second(result) <= peak * 1.001


class TestEncodingProperties:
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_torus_distance_is_symmetric_and_bounded(self, a, b):
        distance = int(torus.absolute_distance(a, b, PARAMS.q))
        assert distance == int(torus.absolute_distance(b, a, PARAMS.q))
        assert 0 <= distance <= PARAMS.q // 2

    @given(st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_boolean_and_integer_encodings_do_not_collide(self, message):
        """Integer encodings stay in the lower half; boolean 'false' lives in
        the upper half — the two encodings are distinguishable."""
        integer_value = encoding.encode(message, PARAMS)
        false_value = encoding.encode_boolean(False, PARAMS)
        assert torus.to_signed(integer_value, PARAMS.q) >= 0
        assert torus.to_signed(false_value, PARAMS.q) < 0
