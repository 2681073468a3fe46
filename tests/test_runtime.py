"""Tests of the unified batch-first execution runtime (:mod:`repro.runtime`).

Covers the backend registry, the Session batch APIs (round-trips against the
per-ciphertext loops they batch), functional parity between the reference
backend and direct gate-level execution, and the simulator/analytical
backends against direct model calls.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro import Netlist, RunResult, Session, TFHEContext, list_backends, run
from repro.arch.accelerator import StrixAccelerator
from repro.arch.config import STRIX_DEFAULT
from repro.apps.workloads import pbs_batch_graph
from repro.baselines.cpu_model import ConcreteCpuModel
from repro.baselines.gpu_model import NuFheGpuModel
from repro.params import PARAM_SET_I, TOY_PARAMETERS
from repro.runtime import (
    AnalyticalBackend,
    ReferenceBackend,
    StrixSimBackend,
    as_graph,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.sim.compiler import full_adder_netlist
from repro.sim.scheduler import StrixScheduler
from repro.tfhe.batch import kernels


@pytest.fixture(scope="module")
def session() -> Session:
    """A TOY-parameter session with server keys, shared across the module."""
    sess = Session("TOY", seed=99)
    sess.generate_server_keys()
    return sess


# -- registry -------------------------------------------------------------------


def test_list_backends_contains_the_three_families():
    names = list_backends()
    for expected in ("reference", "strix-sim", "cpu-analytical", "gpu-analytical"):
        assert expected in names


def test_get_backend_unknown_name_lists_known_backends():
    with pytest.raises(KeyError, match="strix-sim"):
        get_backend("does-not-exist")


def test_get_backend_returns_configured_instances():
    backend = get_backend("cpu-analytical", threads=8)
    assert isinstance(backend, AnalyticalBackend)
    assert backend.model.threads == 8


def test_register_and_unregister_custom_backend():
    register_backend("custom-test", lambda: ReferenceBackend())
    try:
        assert "custom-test" in list_backends()
        assert isinstance(get_backend("custom-test"), ReferenceBackend)
    finally:
        unregister_backend("custom-test")
    assert "custom-test" not in list_backends()


def test_top_level_reexports():
    assert repro.run is run
    assert repro.Session is Session
    assert repro.Netlist is Netlist
    assert repro.TFHEContext is TFHEContext
    assert isinstance(repro.__version__, str)


# -- session batch APIs ------------------------------------------------------------


def test_encrypt_decrypt_batch_roundtrip_matches_per_ciphertext_loop(session):
    messages = [0, 1, 2, 3, 2, 1, 0, 3]
    ciphertexts = session.encrypt_batch(messages)
    assert len(ciphertexts) > 1
    assert session.decrypt_batch(ciphertexts) == messages
    assert [session.context.decrypt(ct) for ct in ciphertexts] == messages


def test_boolean_batch_roundtrip(session):
    values = [True, False, True, True, False]
    ciphertexts = session.encrypt_boolean_batch(values)
    assert session.decrypt_boolean_batch(ciphertexts) == values


def test_bootstrap_batch_matches_per_ciphertext_bootstraps(session):
    p = session.params.message_modulus
    messages = [0, 1, 1, 0]

    def function(m):
        return (m + 1) % p

    ciphertexts = session.encrypt_batch(messages)
    batched = session.bootstrap_batch(ciphertexts, function)
    looped = [session.context.programmable_bootstrap(ct, function).ciphertext for ct in ciphertexts]
    assert session.decrypt_batch(batched) == session.decrypt_batch(looped)
    assert session.decrypt_batch(batched) == [function(m) for m in messages]


def test_gate_batch_matches_individual_gates(session):
    lhs_bits = [True, True, False, False]
    rhs_bits = [True, False, True, False]
    lhs = session.encrypt_boolean_batch(lhs_bits)
    rhs = session.encrypt_boolean_batch(rhs_bits)
    gates = session.gates()
    for gate, method in (("and", gates.and_), ("xor", gates.xor), ("nor", gates.nor)):
        batched = session.decrypt_boolean_batch(session.gate_batch(gate, lhs, rhs))
        individual = session.decrypt_boolean_batch([method(a, b) for a, b in zip(lhs, rhs)])
        assert batched == individual


def test_gate_batch_validates_inputs(session):
    lhs = session.encrypt_boolean_batch([True, False])
    with pytest.raises(ValueError, match="unknown gate"):
        session.gate_batch("nope", lhs, lhs)
    with pytest.raises(ValueError, match="mismatched"):
        session.gate_batch("and", lhs, lhs[:1])


def test_batch_geometry_matches_paper_epoch_sizing(session, monkeypatch):
    assert session.batch_capacity == session.accelerator.epoch_capacity(session.params)
    # Two epochs and one row, on a session whose epoch is three rows.
    tiny = dataclasses.replace(STRIX_DEFAULT, tvlp=1, local_scratchpad_mb=4 / 1024)
    small = Session("TOY", seed=98, accelerator=StrixAccelerator(tiny))
    capacity, p = small.batch_capacity, small.params.message_modulus
    ciphertexts = small.encrypt_batch(m % p for m in range(2 * capacity + 1))
    real_switch, switched = kernels.batch_modulus_switch, []

    def recording_switch(batch, params):
        switched.append(len(batch))
        return real_switch(batch, params)

    def plus_one(m):
        return (m + 1) % p

    monkeypatch.setattr(kernels, "batch_modulus_switch", recording_switch)
    fast = small.bootstrap_batch(ciphertexts, plus_one)
    monkeypatch.undo()
    assert switched == [capacity, capacity, 1]
    oracle = [small.context.programmable_bootstrap(ct, plus_one).ciphertext for ct in ciphertexts]
    assert [(ct.mask.tolist(), ct.body) for ct in fast] == [
        (ct.mask.tolist(), ct.body) for ct in oracle
    ]


# -- reference backend ----------------------------------------------------------------


def test_reference_backend_matches_direct_gate_execution(session):
    netlist = Netlist(TOY_PARAMETERS, name="mix")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    c = netlist.add_input("c")
    x = netlist.add_gate("xor", "x", a, b)
    netlist.add_gate("or", "y", x, c)

    result = run(
        netlist,
        backend="reference",
        session=session,
        inputs={"a": True, "b": True, "c": True},
    )

    gates = session.gates()
    ct_a = session.context.encrypt_boolean(True)
    ct_b = session.context.encrypt_boolean(True)
    ct_c = session.context.encrypt_boolean(True)
    direct = session.context.decrypt_boolean(gates.or_(gates.xor(ct_a, ct_b), ct_c))

    assert isinstance(result, RunResult)
    assert result.outputs == [{"y": direct}]
    assert result.pbs_count == netlist.pbs_count()
    assert result.latency_s > 0


def test_reference_backend_adder_over_instance_batch(session):
    netlist = full_adder_netlist(TOY_PARAMETERS, bits=2)
    cases = [(1, 3), (2, 2), (3, 3)]
    inputs = [
        {
            "a0": bool(a & 1),
            "a1": bool(a >> 1 & 1),
            "b0": bool(b & 1),
            "b1": bool(b >> 1 & 1),
        }
        for a, b in cases
    ]
    result = run(netlist, backend="reference", session=session, inputs=inputs)
    assert len(result.outputs) == len(cases) > 1
    assert result.pbs_count == netlist.pbs_count() * len(cases)
    for (a, b), bits in zip(cases, result.outputs):
        total = int(bits["axb0"]) + 2 * int(bits["s1"]) + 4 * int(bits["c1"])
        assert total == a + b


def test_reference_backend_refuses_input_wires_the_netlist_does_not_declare(session):
    netlist = full_adder_netlist(TOY_PARAMETERS, bits=2)
    with pytest.raises(ValueError, match="b9"):
        run(netlist, backend="reference", session=session, inputs={"a0": True, "b9": True})
    with pytest.raises(ValueError, match="c0"):
        run(netlist, backend="reference", session=session, inputs=[{"a0": True}, {"c0": True}])


def test_reference_backend_executes_lut_and_linear_operations(session):
    p = TOY_PARAMETERS.message_modulus
    netlist = Netlist(TOY_PARAMETERS, name="lut-linear")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    combined = netlist.add_linear("combined", (a, b), coefficients=(1, 1))
    netlist.add_lut("squared", combined, function=lambda m: (m * m) % p)

    result = run(netlist, backend="reference", session=session, inputs={"a": 1, "b": 0})
    assert result.outputs == [{"squared": 1}]


def test_reference_backend_rejects_boolean_wire_into_lut(session):
    p = TOY_PARAMETERS.message_modulus
    netlist = Netlist(TOY_PARAMETERS, name="cross-domain")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    g = netlist.add_gate("and", "g", a, b)
    netlist.add_lut("y", g, function=lambda m: (m + 1) % p)
    with pytest.raises(ValueError, match="boolean-encoded"):
        run(netlist, backend="reference", session=session, inputs={"a": True, "b": True})


def test_reference_backend_rejects_message_wire_into_gate(session):
    netlist = Netlist(TOY_PARAMETERS, name="cross-domain-2")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    netlist.add_gate("and", "g", a, b)
    with pytest.raises(ValueError, match="message-encoded"):
        run(netlist, backend="reference", session=session, inputs={"a": 2, "b": True})


def test_reference_backend_rejects_graph_workloads(session):
    graph = pbs_batch_graph(TOY_PARAMETERS, 4)
    with pytest.raises(TypeError, match="Netlist"):
        run(graph, backend="reference", session=session)


def test_reference_backend_rejects_mismatched_session(session):
    netlist = Netlist(PARAM_SET_I, name="wrong-params")
    netlist.add_input("a")
    netlist.add_gate("not", "b", "a")
    with pytest.raises(ValueError, match="parameter set"):
        run(netlist, backend="reference", session=session)


# -- simulator / analytical backends ---------------------------------------------------


def test_strix_sim_backend_matches_direct_scheduler_run():
    graph = pbs_batch_graph(PARAM_SET_I, 1000)
    accelerator = StrixAccelerator()
    direct = StrixScheduler(accelerator).run(graph)
    result = run(graph, backend=StrixSimBackend(accelerator))
    assert result.latency_s == pytest.approx(direct.total_time_s)
    assert result.pbs_count == direct.total_pbs == 1000
    assert result.utilization == direct.core_utilization
    assert result.energy_j is not None and result.energy_j > 0
    assert result.details["epochs"] == direct.total_epochs


def test_analytical_backends_match_direct_models():
    graph = pbs_batch_graph(PARAM_SET_I, 512)
    cpu_result = run(graph, backend=AnalyticalBackend("cpu", threads=4))
    assert cpu_result.latency_s == pytest.approx(ConcreteCpuModel(threads=4).execute_graph(graph))
    gpu_result = run(graph, backend="gpu-analytical")
    assert gpu_result.latency_s == pytest.approx(NuFheGpuModel().execute_graph(graph))
    assert cpu_result.backend == "cpu-analytical"
    assert gpu_result.backend == "gpu-analytical"


def test_analytical_backend_rejects_unknown_platform():
    with pytest.raises(ValueError, match="platform"):
        AnalyticalBackend("tpu")


# -- the run() facade -------------------------------------------------------------------


def test_same_netlist_runs_on_all_three_backend_families(session):
    """Acceptance: one netlist, three backends, one RunResult shape each."""
    netlist = full_adder_netlist(TOY_PARAMETERS, bits=2)

    reference = run(
        netlist,
        backend="reference",
        session=session,
        inputs=[{"a0": True, "b0": True, "a1": False, "b1": True}] * 2,
    )
    simulated = run(netlist, backend="strix-sim", params="I", instances=32)
    analytical = run(netlist, backend="cpu-analytical", params="I", instances=32)

    for result in (reference, simulated, analytical):
        assert isinstance(result, RunResult)
        assert result.latency_s > 0
        assert result.throughput_pbs_per_s > 0

    # Functional outputs decrypt to 1 + 3 = 4 on both instances.
    for bits in reference.outputs:
        assert int(bits["axb0"]) + 2 * int(bits["s1"]) + 4 * int(bits["c1"]) == 4
    # The performance backends costed the same replicated workload.
    assert simulated.pbs_count == analytical.pbs_count == netlist.pbs_count() * 32
    assert simulated.parameter_set == analytical.parameter_set == "I"


def test_run_resolves_deep_nn_models_by_name():
    result = run("NN-20", backend="cpu-analytical", params="I")
    assert result.pbs_count == 2588
    with pytest.raises(KeyError, match="NN-20"):
        run("NN-9000", backend="cpu-analytical")


def test_session_run_uses_session_accelerator(session):
    custom = Session(
        "TOY",
        seed=1,
        accelerator=StrixAccelerator(),
    )
    graph = pbs_batch_graph(TOY_PARAMETERS, 16)
    result = run(graph, backend="strix-sim", session=custom)
    assert result.backend == "strix-sim"
    assert result.pbs_count == 16


# -- workload normalization ---------------------------------------------------------------


def test_netlist_with_params_preserves_structure():
    netlist = full_adder_netlist(TOY_PARAMETERS, bits=3)
    rebound = netlist.with_params(PARAM_SET_I)
    assert rebound.params == PARAM_SET_I
    assert rebound.pbs_count() == netlist.pbs_count()
    assert rebound.primary_inputs == netlist.primary_inputs
    assert [op.output for op in rebound.operations] == [op.output for op in netlist.operations]


def test_graph_with_params_preserves_structure():
    graph = pbs_batch_graph(TOY_PARAMETERS, 64)
    rebound = graph.with_params(PARAM_SET_I)
    assert rebound.params == PARAM_SET_I
    assert rebound.total_pbs() == graph.total_pbs()
    assert [node.name for node in rebound.nodes] == [node.name for node in graph.nodes]


def test_as_graph_rejects_replicating_non_netlists():
    graph = pbs_batch_graph(TOY_PARAMETERS, 4)
    with pytest.raises(ValueError, match="instances"):
        as_graph(graph, instances=2)


def test_netlist_output_wires():
    netlist = Netlist(TOY_PARAMETERS)
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    x = netlist.add_gate("and", "x", a, b)
    netlist.add_gate("not", "y", x)
    assert netlist.output_wires() == ["y"]


@pytest.mark.parametrize(
    "gate, inputs",
    [("not", ("a", "b")), ("mux", ("a", "b")), ("and", ("a", "b", "c")), ("xor", ("a",))],
)
def test_a_gate_refuses_a_wrong_operand_count(gate, inputs):
    netlist = Netlist(TOY_PARAMETERS)
    for wire in "abc":
        netlist.add_input(wire)
    with pytest.raises(ValueError, match=f"gate '{gate}' takes"):
        netlist.add_gate(gate, "out", *inputs)


def test_a_lut_refuses_no_input_wire():
    with pytest.raises(ValueError, match="lut operation 'out' has no input wire"):
        Netlist(TOY_PARAMETERS).add_lut("out")


def test_a_linear_operation_refuses_no_input_wire():
    with pytest.raises(ValueError, match="linear operation 'out' has no input wire"):
        Netlist(TOY_PARAMETERS).add_linear("out", ())


@pytest.mark.parametrize("instances", [0, -3])
@pytest.mark.parametrize("backend", ["reference", "strix-sim", "cpu-analytical"])
def test_every_backend_refuses_fewer_than_one_instance(session, backend, instances):
    netlist = full_adder_netlist(TOY_PARAMETERS, 1)
    with pytest.raises(ValueError, match="instances must be at least 1"):
        run(netlist, backend=backend, session=session, instances=instances)


def test_an_empty_list_of_inputs_is_zero_instances(session):
    netlist = full_adder_netlist(TOY_PARAMETERS, 1)
    result = run(netlist, backend="reference", session=session, inputs=[])
    assert result.outputs == [] and result.pbs_count == 0
    assert result.details["instances"] == 0 and result.details["pbs_rows"] == {}
