"""The reference backend runs what ``compile_netlist`` prices.

The reference backend executes a netlist level by level: every bootstrap of
one of :meth:`Netlist.levelize`'s levels is a row of one stack, cut into
``batch_capacity`` epochs.  Two definitions meet here, in the circlestark
idiom of a slow readable definition beside the fast one:

* ``spec_execute`` — the per-operation interpreter the backend used to be:
  every operation in netlist order, each gate through ``batch_gate`` (its
  combination and its own sign bootstrap; a mux through its ``and``,
  ``andny`` and ``or``) and each LUT through its own bootstrap.  PBS is
  deterministic, so the level
  executor must produce every wire's masks and bodies to the bit;
* ``compile_netlist``'s ``level{L}_pbs`` nodes — the rows the executor
  reports per level must be the rows the model prices, and its kernel calls
  the epoch cuts of those rows.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run
from repro.arch.accelerator import StrixAccelerator
from repro.arch.config import STRIX_DEFAULT
from repro.params import TOY_PARAMETERS, TFHEParameters
from repro.runtime.reference import _check_encodings, _execute_levels
from repro.runtime.session import Session
from repro.sim.compiler import Netlist, Operation, compile_netlist
from repro.sim.graph import NodeKind
from repro.tfhe.batch import GATES, LweBatch, batch_bootstrap_with_test_vector, gate_combination
from repro.tfhe.blind_rotate import make_constant_test_vector, make_test_vector
from repro.tfhe.keys import BootstrappingKey, KeySwitchingKey
from repro.tfhe.lut import LookUpTable

from test_compiler import spec_evaluate

_BOOLEAN, _MESSAGE = "boolean", "message"


def batch_gate(
    gate: str,
    operands: tuple[LweBatch, ...],
    bootstrapping_key: BootstrappingKey | None,
    keyswitching_key: KeySwitchingKey | None,
    params: TFHEParameters,
) -> LweBatch:
    """Slow definition of one gate over aligned operand stacks, in one kernel call.

    ``operands`` holds one :class:`LweBatch` per gate input (1 for ``not``,
    2 for the binary gates), all of the same length.  ``not`` negates (it
    reads neither key, so both may be ``None``); every other gate is its
    ``gate_combination`` bootstrapped to its sign.  A ``mux`` is no one
    gate: ``spec_apply`` runs its ``and``, ``andny`` and ``or``.
    """
    sizes = {len(operand) for operand in operands}
    if len(sizes) > 1:
        raise ValueError(f"gate operand batches have mixed sizes: {sorted(sizes)}")
    if gate == "not":
        (operand,) = operands
        return LweBatch(-operand.masks, -operand.bodies, params)
    return batch_bootstrap_with_test_vector(
        gate_combination(gate, operands, params),
        make_constant_test_vector(params.q // 8, params),
        bootstrapping_key,
        params,
        keyswitching_key,
    ).ciphertexts


def spec_execute(
    netlist: Netlist, session: Session, values: dict[str, LweBatch], tags: dict[str, str]
) -> None:
    """Slow definition of the level executor: one operation at a time, in netlist order.

    Adds every operation's output stack to ``values`` and its encoding to
    ``tags``; a wire crossing encodings raises when the operation reading it
    is reached.
    """
    keys = session.generate_server_keys()
    luts = {
        index: LookUpTable.from_function(operation.function, netlist.params)
        for index, operation in enumerate(netlist.operations)
        if operation.kind == "lut"
    }
    for index, operation in enumerate(netlist.operations):
        values[operation.output], tags[operation.output] = spec_apply(
            operation, session, keys, values, tags, luts.get(index)
        )


def spec_apply(operation: Operation, session, keys, values, tags, lut) -> tuple[LweBatch, str]:
    """One operation over the whole instance stack."""
    operands = [values[wire] for wire in operation.inputs]
    wrong_tag = _MESSAGE if operation.kind == "gate" else _BOOLEAN
    mismatched = [w for w in operation.inputs if tags[w] == wrong_tag]
    if mismatched:
        raise ValueError(
            f"{operation.kind} operation {operation.output!r} consumes "
            f"{wrong_tag}-encoded wire(s) {mismatched}; gates use the ±q/8 "
            "boolean encoding while lut/linear operations use the integer "
            "message encoding — the two cannot be mixed on one wire"
        )
    params = session.params
    if operation.kind == "gate":

        def gate(name: str, inputs: tuple[LweBatch, ...]) -> LweBatch:
            return batch_gate(name, inputs, keys.bootstrapping_key, keys.keyswitching_key, params)

        if operation.name == "mux":  # and, andny, then or: three separate bootstraps
            select, if_true, if_false = operands
            pair = (gate("and", (select, if_true)), gate("andny", (select, if_false)))
            return gate("or", pair), _BOOLEAN
        return gate(operation.name, tuple(operands)), _BOOLEAN
    if operation.kind == "lut":
        accumulator = LweBatch(
            sum(operand.masks for operand in operands),
            sum(operand.bodies for operand in operands),
            params,
        )
        entries = lut.entries
        bootstrapped = batch_bootstrap_with_test_vector(
            accumulator,
            make_test_vector(lambda m: int(entries[m % len(entries)]), lut.params),
            keys.bootstrapping_key,
            lut.params,
            keys.keyswitching_key,
        )
        return bootstrapped.ciphertexts, _MESSAGE
    masks = bodies = None
    for coefficient, operand in zip(operation.coefficients, operands):
        if coefficient == 0:
            continue
        term_masks = operand.masks * int(coefficient)
        term_bodies = operand.bodies * int(coefficient)
        masks = term_masks if masks is None else masks + term_masks
        bodies = term_bodies if bodies is None else bodies + term_bodies
    if masks is None or bodies is None:
        masks = np.zeros((len(operands[0]), operands[0].dimension), dtype=np.int64)
        bodies = np.zeros(len(operands[0]), dtype=np.int64)
    return LweBatch(masks, bodies, params), tags[operation.inputs[0]]


# -- random netlists at TOY --------------------------------------------------------


def random_toy_netlist(family: str, seed: int, size: int) -> tuple[Netlist, list[dict]]:
    """A random TOY netlist of one ``family`` and the input draw of five instances.

    ``boolean`` netlists hold all nine gates over boolean inputs.  ``message``
    netlists hold one- and two-input LUTs with random tables and linear
    operations with coefficients in {-1, 0, 1} over integer inputs.
    ``mixed`` netlists hold all three kinds over inputs of both encodings,
    so most of them send a wire across encodings.
    """
    rng = np.random.default_rng(seed)
    p = TOY_PARAMETERS.message_modulus
    netlist = Netlist(TOY_PARAMETERS, name=f"{family}{seed}")
    wires = [netlist.add_input(f"x{index}") for index in range(int(rng.integers(1, 4)))]
    flags = {"boolean": True, "message": False}
    boolean = {wire: flags.get(family, bool(rng.integers(2))) for wire in wires}

    def pick(count: int) -> tuple[str, ...]:
        recent = wires[-3:] if rng.random() < 0.6 else wires
        return tuple(recent[int(rng.integers(len(recent)))] for _ in range(count))

    kinds = {"boolean": ("gate",), "message": ("lut", "linear")}.get(
        family, ("gate", "lut", "linear")
    )
    for index in range(size):
        output, kind = f"w{index}", kinds[int(rng.integers(len(kinds)))]
        if kind == "gate":
            gate = sorted(GATES)[int(rng.integers(len(GATES)))]
            netlist.add_gate(gate, output, *pick(GATES[gate][0]))
        elif kind == "lut":
            table = tuple(int(entry) for entry in rng.integers(0, 2 * p, size=p))
            function = None if rng.random() < 0.2 else (lambda m, table=table: table[m % p])
            netlist.add_lut(output, *pick(int(rng.integers(1, 3))), function=function)
        else:
            inputs = pick(int(rng.integers(1, 4)))
            coefficients = tuple(int(c) for c in rng.integers(-1, 2, size=len(inputs)))
            netlist.add_linear(output, inputs, coefficients=coefficients)
        wires.append(output)
    draws = [
        {
            wire: bool(rng.integers(2)) if flag else int(rng.integers(p))
            for wire, flag in boolean.items()
        }
        for _ in range(5)
    ]
    return netlist, draws


@pytest.fixture(scope="module")
def session() -> Session:
    session = Session(TOY_PARAMETERS, seed=46)
    session.generate_server_keys()
    return session


#: Three rows an epoch at TOY, so a level of a few operations is cut.
TINY = StrixAccelerator(dataclasses.replace(STRIX_DEFAULT, tvlp=1, local_scratchpad_mb=4 / 1024))


@pytest.fixture(scope="module")
def tiny_session() -> Session:
    session = Session(TOY_PARAMETERS, seed=47, accelerator=TINY)
    session.generate_server_keys()
    return session


def encrypt(netlist: Netlist, session: Session, draws: list[dict]) -> tuple[dict, dict]:
    """Every input wire's stack of instances and its encoding, wires in sorted order."""
    values, tags = {}, {}
    for wire in sorted(netlist.primary_inputs):
        column = [draw[wire] for draw in draws]
        boolean = isinstance(column[0], bool)
        encrypt_batch = session.encrypt_boolean_batch if boolean else session.encrypt_batch
        values[wire] = LweBatch.from_ciphertexts(encrypt_batch(column))
        tags[wire] = _BOOLEAN if boolean else _MESSAGE
    return values, tags


def _decrypted(session: Session, batch: LweBatch, boolean: bool) -> list:
    ciphertexts = batch.to_ciphertexts()
    if boolean:
        return session.decrypt_boolean_batch(ciphertexts)
    return session.decrypt_batch(ciphertexts)


def _error(execute) -> str | None:
    """The message of the ``ValueError`` ``execute()`` raises, or ``None``."""
    try:
        execute()
    except ValueError as error:
        return str(error)
    return None


_NETLISTS = dict(
    seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12), instances=st.integers(1, 5)
)


@settings(max_examples=2 * settings.default.max_examples, deadline=None)
@given(family=st.sampled_from(["boolean", "message", "mixed"]), **_NETLISTS)
def test_the_level_executor_equals_the_slow_definition(session, family, seed, size, instances):
    netlist, draws = random_toy_netlist(family, seed, size)
    inputs = draws[:instances]
    values, tags = encrypt(netlist, session, inputs)
    slow_values, slow_tags = dict(values), dict(tags)

    def fast() -> None:
        _check_encodings(netlist, tags)
        _execute_levels(netlist, session, values)

    error = _error(lambda: spec_execute(netlist, session, slow_values, slow_tags))
    assert _error(fast) == error
    if error is not None:
        return
    assert values.keys() == slow_values.keys() and tags == slow_tags
    for wire, batch in values.items():
        np.testing.assert_array_equal(batch.masks, slow_values[wire].masks, err_msg=wire)
        np.testing.assert_array_equal(batch.bodies, slow_values[wire].bodies, err_msg=wire)
    expected = [spec_evaluate(netlist, draw) for draw in inputs]
    for wire in netlist.output_wires():
        decrypted = _decrypted(session, values[wire], tags[wire] == _BOOLEAN)
        assert decrypted == [outputs[wire] for outputs in expected], wire


@settings(deadline=None)
@given(family=st.sampled_from(["boolean", "message"]), **_NETLISTS)
def test_rows_and_calls_per_level_are_the_priced_pbs_nodes(
    tiny_session, family, seed, size, instances
):
    netlist, draws = random_toy_netlist(family, seed, size)
    result = run(netlist, backend="reference", session=tiny_session, inputs=draws[:instances])
    priced = {
        node.name: node.ciphertexts
        for node in compile_netlist(netlist, instances)
        if node.kind is NodeKind.PBS_KS
    }
    assert result.details["pbs_rows"] == priced
    capacity, calls = tiny_session.batch_capacity, {}
    assert capacity == 3
    for index, level in enumerate(netlist.levelize()):
        muxes = sum(operation.name == "mux" for operation in level) * instances
        if f"level{index}_pbs" in priced:
            first = priced[f"level{index}_pbs"] - muxes
            calls[f"level{index}_pbs"] = math.ceil(first / capacity) + math.ceil(muxes / capacity)
    assert result.details["kernel_calls"] == calls
    assert result.outputs == [spec_evaluate(netlist, draw) for draw in draws[:instances]]


def test_a_level_of_luts_and_a_mux_is_one_stack_and_the_or_another(tiny_session, monkeypatch):
    """Seven LUT rows and the mux's first two: three epochs; then the ``or``: one."""
    p = TOY_PARAMETERS.message_modulus
    netlist = Netlist(TOY_PARAMETERS, name="one-level")
    a, b = netlist.add_input("a"), netlist.add_input("b")
    for index in range(7):
        netlist.add_lut(f"l{index}", a, b, function=lambda m, shift=index: (m + shift) % p)
    netlist.add_gate("mux", "m", *(netlist.add_input(wire) for wire in ("s", "t", "f")))
    stacks = []
    real = tiny_session._bootstrap_stack

    def recording(pieces):
        stacks.append(sum(len(batch) for batch, _ in pieces))
        return real(pieces)

    monkeypatch.setattr(tiny_session, "_bootstrap_stack", recording)
    inputs = {"a": 1, "b": 2, "s": False, "t": False, "f": True}
    result = run(netlist, backend="reference", session=tiny_session, inputs=inputs)
    assert stacks == [9, 1]
    assert result.details["pbs_rows"] == {"level0_pbs": 10}
    assert result.details["kernel_calls"] == {"level0_pbs": 4}
    expected = {f"l{index}": (3 + index) % p for index in range(7)}
    assert result.outputs == [{**expected, "m": True}]
