"""``pbs-set-I-batch64`` and ``pbs-small-single``: the functional TFHE kernels.

Both drive :class:`repro.Session` with ``kernels="vectorized"`` from outside.
The traced run chains the public kernel stages by hand (marshal, gate-linear
/ test-vector step, blind rotate, sample extract, keyswitch) and requires the
result to equal the ``Session`` call bit for bit; a slice of the inputs also
goes through the scalar reference kernels — oracle timed, fast path timed,
equality asserted.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import Session
from repro.tfhe.batch import (
    LweBatch,
    batch_blind_rotate,
    batch_keyswitch,
    batch_sample_extract,
    kernels,
)
from repro.tfhe.blind_rotate import make_constant_test_vector, make_test_vector
from repro.tfhe.lwe import LweCiphertext
from repro.tfhe.polynomial import get_transform

from observatory.calib import Segment, measure_segments
from observatory.common import (
    Options,
    Result,
    attribution_metrics,
    finish,
    throughput_metrics,
    timed_set_up,
)
from observatory.spans import Recorder


@dataclass(frozen=True)
class PbsSpec:
    """Shape of one PBS workload."""

    params: str
    #: Ciphertexts per call (the batch axis of the vectorized kernels).
    batch: int
    #: Calls per timed segment.
    calls: int
    #: Distinct input sets; segment ``i`` uses set ``i % input_sets``.
    input_sets: int
    #: Ciphertexts re-run through the scalar reference kernels.
    oracle: int
    #: NAND over bit pairs (``True``) or a seeded 2-bit LUT (``False``).
    gate: bool
    #: Calibration probe whose cache behaviour matches the workload's.
    probe: str


SPECS = {
    "pbs-set-I-batch64": PbsSpec(
        "I", batch=64, calls=1, input_sets=8, oracle=4, gate=True, probe="np_large"
    ),
    "pbs-small-single": PbsSpec(
        "SMALL", batch=1, calls=125, input_sets=1, oracle=100, gate=False, probe="np_small"
    ),
}


@dataclass
class Call:
    """One kernel call: its encrypted operands and the plaintext it must yield."""

    operands: tuple[list[LweCiphertext], ...]
    expected: list[int]


@dataclass
class PbsState:
    """Everything set-up produces: keys, encrypted inputs, the LUT."""

    session: Session
    calls: list[Call]
    table: tuple[int, ...]
    #: Holds the ``runtime.keygen`` / ``runtime.encrypt`` spans of this set-up.
    recorder: Recorder

    def function(self) -> Callable[[int], int]:
        table = self.table
        return lambda message: table[message % len(table)]


def _set_up(spec: PbsSpec, options: Options) -> PbsState:
    """Key generation plus encryption of every seeded input (the timed set-up)."""
    recorder = Recorder()
    rng = np.random.default_rng([options.seed, 0x0B5])
    batch = options.scaled(spec.batch)
    with recorder.span("runtime.keygen"):
        session = Session(spec.params, seed=options.seed, kernels="vectorized")
        session.generate_server_keys()
    table = tuple(int(value) for value in rng.integers(0, 4, size=4))
    calls: list[Call] = []
    with recorder.span("runtime.encrypt"):
        if spec.gate:
            for _ in range(spec.input_sets):
                left = rng.integers(0, 2, size=batch).astype(bool)
                right = rng.integers(0, 2, size=batch).astype(bool)
                calls.append(
                    Call(
                        (
                            session.encrypt_boolean_batch(left),
                            session.encrypt_boolean_batch(right),
                        ),
                        [int(value) for value in ~(left & right)],
                    )
                )
        else:
            messages = rng.integers(0, 4, size=options.scaled(spec.calls, floor=4))
            for message, ciphertext in zip(messages, session.encrypt_batch(messages)):
                calls.append(Call(([ciphertext],), [table[int(message)]]))
    return PbsState(session, calls, table, recorder)


def _session_call(spec: PbsSpec, state: PbsState, call: Call) -> list[LweCiphertext]:
    if spec.gate:
        return state.session.gate_batch("nand", *call.operands)
    return state.session.bootstrap_batch(call.operands[0], state.function())


def _scalar_call(spec: PbsSpec, state: PbsState, call: Call, index: int) -> LweCiphertext:
    """Element ``index`` of ``call`` through the scalar reference kernels."""
    session = state.session
    if spec.gate:
        return session.gates().nand(call.operands[0][index], call.operands[1][index])
    return session.programmable_bootstrap(call.operands[0][index], state.function()).ciphertext


def _chained_call(
    spec: PbsSpec, state: PbsState, call: Call, recorder: Recorder
) -> list[LweCiphertext]:
    """The same call as :func:`_session_call`, one public stage at a time."""
    session = state.session
    params = session.params
    keys = session.server_keys
    with recorder.span("runtime.marshal"):
        stacked = [LweBatch.from_ciphertexts(list(batch)) for batch in call.operands]
    with recorder.span("tfhe.batch.gate_linear"):
        if spec.gate:
            left, right = stacked
            combination = LweBatch(
                -left.masks - right.masks,
                -left.bodies - right.bodies + params.q // 8,
                params,
            )
            test_vector = make_constant_test_vector(params.q // 8, params)
        else:
            (combination,) = stacked
            test_vector = make_test_vector(state.function(), params)
    with recorder.span("tfhe.batch.blind_rotate"):
        accumulator = batch_blind_rotate(test_vector, combination, keys.bootstrapping_key, params)
    with recorder.span("tfhe.batch.sample_extract"):
        extracted = batch_sample_extract(accumulator)
    with recorder.span("tfhe.batch.keyswitch"):
        switched = batch_keyswitch(extracted, keys.keyswitching_key, params)
    with recorder.span("runtime.marshal"):
        return switched.to_ciphertexts()


#: The kernel stages of one call, in order (span names under ``tfhe.batch.``).
_STAGES = ("gate_linear", "blind_rotate", "sample_extract", "keyswitch")


def _differing(left: Sequence[LweCiphertext], right: Sequence[LweCiphertext]) -> int:
    """Ciphertexts of ``left`` that differ from ``right`` in any bit."""
    return sum(
        not (a.body == b.body and np.array_equal(a.mask, b.mask))
        for a, b in zip(left, right)
    ) + abs(len(left) - len(right))


def _decrypt(spec: PbsSpec, state: PbsState, outputs: list[LweCiphertext]) -> list[int]:
    if spec.gate:
        return [int(bit) for bit in state.session.decrypt_boolean_batch(outputs)]
    return state.session.decrypt_batch(outputs)


def _segment_calls(spec: PbsSpec, state: PbsState, index: int) -> list[Call]:
    if spec.gate:
        return [state.calls[index % len(state.calls)]] * spec.calls
    return state.calls


def run(name: str, options: Options) -> Result:
    """Run one PBS workload (untraced, or traced when ``options.traced``)."""
    spec = SPECS[name]
    result = Result()
    calibration = options.calibration(spec.probe)
    state, result.metrics["setup_s"] = timed_set_up(
        options, calibration, lambda: _set_up(spec, options)
    )
    recorder = state.recorder

    # Warm-up: twiddle tables, numpy's FFT plan cache and the lazy gate
    # bootstrapper are built on first use and would land in segment 0.
    warm = state.calls[0]
    _session_call(spec, state, Call(tuple(op[:2] for op in warm.operands), warm.expected[:2]))

    durations: list[list[float]] = []
    outputs: list[tuple[Call, list[LweCiphertext]]] = []

    def segment(index: int) -> int:
        calls = _segment_calls(spec, state, index)
        times = []
        for call in calls:
            start = time.perf_counter()
            produced = _session_call(spec, state, call)
            times.append(time.perf_counter() - start)
            outputs.append((call, produced))
        durations.append(times)
        return sum(len(call.expected) for call in calls)

    segments = measure_segments(
        calibration, segment, options.measured_seconds, min_segments=2 if options.traced else 3
    )
    throughput_metrics(result, calibration, segments, "harness.raw_host_pbs_per_s")
    result.metrics["host_op_p50_s"] = statistics.median(
        duration * one.scale for one, times in zip(segments, durations) for duration in times
    )
    result.metrics["tfhe.batch.call_p99_s"] = float(np.percentile(np.concatenate(durations), 99))

    if options.traced:
        _traced_pass(spec, state, options, segments, outputs, recorder, result)

    with recorder.span("runtime.decrypt"):
        wrong = sum(
            sum(a != b for a, b in zip(_decrypt(spec, state, produced), call.expected))
            for call, produced in outputs
        )
    result.count(
        sum(len(call.expected) for call, _ in outputs), wrong, "outputs decrypted wrongly"
    )
    _scalar_oracle(spec, state, outputs, options, result)

    totals = recorder.totals()
    for stage in ("keygen", "encrypt", "decrypt"):
        result.metrics[f"runtime.{stage}_s"] = totals[f"runtime.{stage}"].total_s

    batch = len(state.calls[0].expected)
    modeled_s = state.session.accelerator.pbs_batch_time_ms(state.session.params, batch) / 1e3
    result.metrics["modeled_pbs_per_device_s"] = batch / modeled_s
    return finish(result)


def _scalar_oracle(
    spec: PbsSpec,
    state: PbsState,
    outputs: list[tuple[Call, list[LweCiphertext]]],
    options: Options,
    result: Result,
) -> None:
    """Scalar reference on a slice of the inputs: timed, then compared bit for bit."""
    every = (
        (call, index, fast) for call, produced in outputs for index, fast in enumerate(produced)
    )
    pairs = list(itertools.islice(every, options.scaled(spec.oracle)))
    start = time.perf_counter()
    reference = [_scalar_call(spec, state, call, index) for call, index, _ in pairs]
    elapsed = time.perf_counter() - start
    differing = _differing(reference, [fast for _, _, fast in pairs])
    result.count(len(pairs), differing, "vectorized outputs differ from the scalar oracle")
    result.metrics["tfhe.batch.bit_exact_share"] = 1.0 - differing / len(pairs)
    result.metrics["tfhe.scalar_pbs_per_s"] = len(pairs) / elapsed


def _traced_pass(
    spec: PbsSpec,
    state: PbsState,
    options: Options,
    segments: list[Segment],
    outputs: list[tuple[Call, list[LweCiphertext]]],
    recorder: Recorder,
    result: Result,
) -> None:
    """Segment 0 again, stage by stage under spans; must equal the Session call."""
    transform = get_transform(state.session.params.N)
    half = transform.half
    counts = {"polys": 0}

    def count_polys(args: tuple, _result: object) -> None:
        counts["polys"] += math.prod(np.shape(args[-1])[:-1])

    calls = _segment_calls(spec, state, 0)

    # The same hand chain with nothing wrapped: the untraced baseline of the
    # traced pass, and the kernel time Session's own call is compared with.
    plain = Recorder()
    with plain.span("harness.segment"):
        for call in calls:
            _chained_call(spec, state, call, plain)
    plain_totals = plain.totals()
    kernel_s = sum(plain_totals[f"tfhe.batch.{stage}"].total_s for stage in _STAGES)

    recorder.wrap(kernels, "batch_modulus_switch", "tfhe.batch.modulus_switch")
    recorder.wrap(transform, "forward", "fft.forward", observe=count_polys)
    recorder.wrap(transform, "inverse", "fft.inverse", observe=count_polys)
    try:
        chained = []
        with recorder.span("harness.segment"):
            for op, call in enumerate(calls):
                recorder.op = op
                chained.append(_chained_call(spec, state, call, recorder))
    finally:
        recorder.restore()

    differing = sum(
        _differing(mine, produced) for mine, (_, produced) in zip(chained, outputs[: len(calls)])
    )
    pbs = sum(len(call.expected) for call in calls)
    result.count(pbs, differing, "hand-chained outputs differ from the Session call")

    totals = recorder.totals()
    metrics = result.metrics
    for stage in ("modulus_switch", *_STAGES):
        metrics[f"tfhe.batch.{stage}_s"] = totals[f"tfhe.batch.{stage}"].total_s
    metrics["tfhe.batch.blind_rotate_self_s"] = totals["tfhe.batch.blind_rotate"].self_s
    metrics["tfhe.batch.pbs_calls"] = pbs
    metrics["tfhe.batch.cmux_iterations"] = totals["fft.forward"].calls
    for direction in ("forward", "inverse"):
        metrics[f"fft.{direction}_s"] = totals[f"fft.{direction}"].total_s
        metrics[f"fft.{direction}_calls"] = totals[f"fft.{direction}"].calls
    metrics["fft.polys_transformed"] = counts["polys"]
    # Computed from sizes, not measured: one radix-2 complex FFT of N/2 points.
    metrics["fft.flops_computed"] = counts["polys"] * 5.0 * half * math.log2(half)
    # Everything Session adds around the kernels: list <-> LweBatch
    # conversion, epoch chunking, key lookup.  A difference of two timings
    # taken seconds apart, so noise can push it below zero on set I.
    metrics["runtime.session_marshal_s"] = max(0.0, segments[0].wall_s - kernel_s)
    attribution_metrics(
        result,
        options,
        totals["harness.segment"],
        plain_totals["harness.segment"].total_s,
        required=True,
    )
    result.recorder = recorder
