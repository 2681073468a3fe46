"""Reference backend: functional execution on the real TFHE substrate.

Executes a :class:`~repro.sim.compiler.Netlist` level by level, one stack per
level, cut into epochs: every bootstrap of a ``levelize()`` level, over all
operations and instances, is a row of one stack with its own test vector,
bootstrapped ``batch_capacity`` rows at a time — the schedule
:func:`~repro.sim.compiler.compile_netlist` prices as one PBS node per level
(a mux's closing ``or`` reads two of its rows, so it is a second stack).  One
:meth:`~repro.runtime.session.Session.bootstrap_level` call, the path every
``Session.gate_batch`` takes too, runs a level's bootstraps.  The level's
linear operations and free NOTs follow in netlist order.  This is the
ground truth the performance backends are modeled against.
"""

from __future__ import annotations

import time
from typing import Any, Mapping, Sequence

import numpy as np

from repro.params import TFHEParameters
from repro.runtime.backend import Backend, register_backend
from repro.runtime.result import RunResult
from repro.runtime.session import Session
from repro.runtime.workload import WorkloadLike, as_netlist
from repro.sim.compiler import Netlist
from repro.tfhe.batch import LweBatch, gate_combination, linear_combination
from repro.tfhe.lut import LookUpTable
from repro.tfhe.lwe import LweCiphertext

#: How a wire's ciphertext is decoded: gate outputs (and boolean inputs) use
#: the ``±q/8`` gate-bootstrapping encoding, integer inputs and LUT/linear
#: outputs the message encoding.  Pre-encrypted ciphertexts passed straight
#: in are untyped — the caller vouches for their encoding — and decode as
#: messages if read back directly.
_BOOLEAN, _MESSAGE, _ANY = "boolean", "message", "any"

#: Default sessions for key-less reference runs, keyed by parameter set, so
#: repeated ``run(netlist, backend="reference")`` calls reuse the (expensive)
#: evaluation keys instead of regenerating them per call.
_DEFAULT_SESSIONS: dict[TFHEParameters, Session] = {}


def _default_session(params: TFHEParameters) -> Session:
    if params not in _DEFAULT_SESSIONS:
        _DEFAULT_SESSIONS[params] = Session(params, seed=0)
    return _DEFAULT_SESSIONS[params]


class ReferenceBackend(Backend):
    """Functionally executes netlists with the real TFHE implementation."""

    name = "reference"

    def run(
        self,
        workload: WorkloadLike,
        *,
        params: TFHEParameters | str | None = None,
        session: Session | None = None,
        inputs: Mapping[str, Any] | Sequence[Mapping[str, Any]] | None = None,
        instances: int = 1,
        outputs: Sequence[str] | None = None,
        **options: Any,
    ) -> RunResult:
        """Execute a netlist functionally and decrypt its outputs.

        ``inputs`` maps primary-input wires to plaintext values (``bool`` /
        ``numpy.bool_`` for the gate encoding, ``int`` for the message
        encoding) or to pre-encrypted ciphertexts; missing wires default to
        ``False``, and a wire the netlist does not declare as an input raises
        a ``ValueError`` naming it.  Pass a list of mappings to execute several independent
        instances — the batch the accelerator would fold into one epoch.
        Across instances a wire keeps one encoding (pre-encrypted
        ciphertexts take the encoding of the plaintext values they share
        the wire with).
        """
        if instances < 1:
            raise ValueError("instances must be at least 1")
        netlist = as_netlist(workload, params)
        if session is None:
            session = _default_session(netlist.params)
        elif session.params != netlist.params:
            raise ValueError(
                f"session parameter set {session.params.name!r} does not match "
                f"the workload's {netlist.params.name!r}"
            )
        session.generate_server_keys()

        if inputs is None:
            input_batches: list[Mapping[str, Any]] = [{}] * instances
        elif isinstance(inputs, Mapping):
            input_batches = [inputs] * instances
        else:
            input_batches = list(inputs)
            if instances != 1 and instances != len(input_batches):
                raise ValueError(
                    f"instances={instances} conflicts with {len(input_batches)} input mappings"
                )
        declared = netlist.primary_inputs
        unknown = sorted({wire for mapping in input_batches for wire in mapping} - declared)
        if unknown:
            raise ValueError(
                f"{netlist.name!r} has no input wire(s) {unknown}; "
                f"its inputs are {sorted(declared)}"
            )
        output_wires = list(outputs) if outputs is not None else netlist.output_wires()

        start = time.perf_counter()
        # An empty list of mappings is zero instances (an empty stack is not a batch).
        decrypted, rows, calls = (
            self._execute(netlist, session, input_batches, output_wires)
            if input_batches
            else ([], {}, {})
        )
        elapsed = time.perf_counter() - start

        pbs_count = netlist.pbs_count() * len(input_batches)
        return RunResult(
            workload=netlist.name,
            backend=self.name,
            parameter_set=netlist.params.name,
            latency_s=elapsed,
            pbs_count=pbs_count,
            outputs=decrypted,
            details={
                "instances": len(input_batches),
                "wall_clock": True,
                "pbs_rows": rows,
                "kernel_calls": calls,
            },
        )

    def _execute(
        self,
        netlist: Netlist,
        session: Session,
        input_batches: Sequence[Mapping[str, Any]],
        output_wires: Sequence[str],
    ) -> tuple[list[dict[str, int | bool]], dict[str, int], dict[str, int]]:
        """Execute all instances at once: their outputs, and each level's rows and calls.

        Each wire carries one :class:`LweBatch` holding every instance's
        ciphertext.  The batch kernels are bit-for-bit equal to the
        per-ciphertext ones, so an N-instance run decrypts to the same
        outputs as N one-instance runs.  Each input wire's plaintext values
        are encrypted in one batch call, wires in sorted order; a
        pre-encrypted ciphertext keeps its slot.
        """
        values: dict[str, LweBatch] = {}
        tags: dict[str, str] = {}
        for wire in sorted(netlist.primary_inputs):
            column = [instance_inputs.get(wire, False) for instance_inputs in input_batches]
            slots = [
                slot for slot, value in enumerate(column) if not isinstance(value, LweCiphertext)
            ]
            booleans = [isinstance(column[slot], (bool, np.bool_)) for slot in slots]
            # Untyped ciphertexts take the encoding of the plaintext values
            # they share the wire with — the caller vouches for them.
            typed = {_BOOLEAN if boolean else _MESSAGE for boolean in booleans}
            if len(typed) > 1:
                raise ValueError(
                    f"a stack of instances needs one encoding per wire, but input wire "
                    f"{wire!r} mixes {sorted(typed)} across instances"
                )
            if typed == {_BOOLEAN}:
                encrypted = session.encrypt_boolean_batch(bool(column[slot]) for slot in slots)
            else:
                encrypted = session.encrypt_batch(int(column[slot]) for slot in slots)
            for slot, ciphertext in zip(slots, encrypted):
                column[slot] = ciphertext
            values[wire] = LweBatch.from_ciphertexts(column)
            tags[wire] = typed.pop() if typed else _ANY

        _check_encodings(netlist, tags)
        for wire in output_wires:
            if wire not in tags:
                raise KeyError(f"requested output wire {wire!r} was never produced")
        rows, calls = _execute_levels(netlist, session, values)
        results: list[dict[str, int | bool]] = [{} for _ in input_batches]
        for wire in output_wires:
            ciphertexts = values[wire].to_ciphertexts()
            if tags[wire] == _BOOLEAN:
                decoded: Sequence[int | bool] = session.decrypt_boolean_batch(ciphertexts)
            else:
                decoded = session.decrypt_batch(ciphertexts)
            for result, value in zip(results, decoded):
                result[wire] = value
        return results, rows, calls


def _check_encodings(netlist: Netlist, tags: dict[str, str]) -> None:
    """Tag every operation's output wire with its encoding, in netlist order.

    Gates work in the ±q/8 boolean encoding; LUT and linear operations in
    the integer message encoding.  A wire crossing domains would decode to
    garbage silently — the one thing a ground-truth backend must never do —
    so mixing is rejected loudly, before any bootstrap.  Untyped passthrough
    ciphertexts (tag "any") are the caller's responsibility.
    """
    for operation in netlist.operations:
        wrong_tag = _MESSAGE if operation.kind == "gate" else _BOOLEAN
        mismatched = [w for w in operation.inputs if tags[w] == wrong_tag]
        if mismatched:
            raise ValueError(
                f"{operation.kind} operation {operation.output!r} consumes "
                f"{wrong_tag}-encoded wire(s) {mismatched}; gates use the ±q/8 "
                "boolean encoding while lut/linear operations use the integer "
                "message encoding — the two cannot be mixed on one wire"
            )
        encoding = {"gate": _BOOLEAN, "lut": _MESSAGE}.get(operation.kind)
        tags[operation.output] = encoding or tags[operation.inputs[0]]


def _execute_levels(
    netlist: Netlist, session: Session, values: dict[str, LweBatch]
) -> tuple[dict[str, int], dict[str, int]]:
    """Run ``netlist`` over the input stacks in ``values``, adding every operation's output.

    Each level's bootstraps are one :meth:`Session.bootstrap_level` call.
    Returns each level's bootstrapped rows and kernel calls, keyed by the
    name :func:`~repro.sim.compiler.compile_netlist` gives its PBS node.
    """
    params = session.params
    rows: dict[str, int] = {}
    calls: dict[str, int] = {}
    for index, level in enumerate(netlist.levelize()):
        bootstrapped = [operation for operation in level if operation.bootstraps]
        if bootstrapped:
            work = [
                (
                    operation.name
                    if operation.kind == "gate"
                    else LookUpTable.from_function(operation.function, params),
                    tuple(values[wire] for wire in operation.inputs),
                )
                for operation in bootstrapped
            ]
            name = f"level{index}_pbs"
            outputs, rows[name], calls[name] = session.bootstrap_level(work)
            values.update(zip((operation.output for operation in bootstrapped), outputs))
        for operation in level:
            if not operation.bootstraps:
                operands = tuple(values[wire] for wire in operation.inputs)
                values[operation.output] = (
                    gate_combination(operation.name, operands, params)
                    if operation.kind == "gate"
                    else linear_combination(operation.coefficients, operands, params)
                )
    return rows, calls


register_backend(ReferenceBackend.name, ReferenceBackend)
