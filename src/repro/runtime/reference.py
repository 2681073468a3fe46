"""Reference backend: functional execution on the real TFHE substrate.

Interprets a :class:`~repro.sim.compiler.Netlist` operation by operation with
the actual gates / PBS / linear arithmetic of :mod:`repro.tfhe` — every gate
output is a real bootstrap.  This is the ground truth the performance
backends are modeled against: the same netlist the simulator costs can be
decrypted and checked here.  All instances of a run travel together: each
wire carries one stack of ciphertexts and each operation runs once over it
through the batch kernels of :mod:`repro.tfhe.batch` (one instance is a
batch of one).
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
from repro.sim.compiler import Netlist, Operation
from repro.tfhe.batch import LweBatch, batch_gate, batch_programmable_bootstrap
from repro.tfhe.context import ServerKeys
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
            input_batches: list[Mapping[str, Any]] = [{}] * max(instances, 1)
        elif isinstance(inputs, Mapping):
            input_batches = [inputs] * max(instances, 1)
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
        # LUT tables depend only on (function, params): tabulate each one once
        # for the whole instance batch.
        luts = {
            index: LookUpTable.from_function(operation.function or (lambda m: m), netlist.params)
            for index, operation in enumerate(netlist.operations)
            if operation.kind == "lut"
        }

        start = time.perf_counter()
        # An empty list of mappings is zero instances (an empty stack is not a batch).
        decrypted = (
            self._execute(netlist, session, input_batches, output_wires, luts)
            if input_batches
            else []
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
            details={"instances": len(input_batches), "wall_clock": True},
        )

    # -- interpreter ----------------------------------------------------------------

    def _execute(
        self,
        netlist: Netlist,
        session: Session,
        input_batches: Sequence[Mapping[str, Any]],
        output_wires: Sequence[str],
        luts: Mapping[int, LookUpTable],
    ) -> list[dict[str, int | bool]]:
        """Execute all instances at once with the stacked batch kernels.

        Each wire carries one :class:`LweBatch` holding every instance's
        ciphertext, and each operation runs once over the whole stack.  The
        batch kernels are bit-for-bit equal to the per-ciphertext ones, so
        an N-instance run decrypts to the same outputs as N one-instance
        runs.  Each input wire's plaintext values are encrypted in one batch
        call, wires in sorted order; a pre-encrypted ciphertext keeps its slot.
        """
        keys = session.generate_server_keys()
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

        for index, operation in enumerate(netlist.operations):
            values[operation.output], tags[operation.output] = self._apply(
                operation, session, keys, values, tags, luts.get(index)
            )

        results: list[dict[str, int | bool]] = [{} for _ in input_batches]
        for wire in output_wires:
            if wire not in values:
                raise KeyError(f"requested output wire {wire!r} was never produced")
            ciphertexts = values[wire].to_ciphertexts()
            if tags[wire] == _BOOLEAN:
                decoded: Sequence[int | bool] = session.decrypt_boolean_batch(ciphertexts)
            else:
                decoded = session.decrypt_batch(ciphertexts)
            for result, value in zip(results, decoded):
                result[wire] = value
        return results

    def _apply(
        self,
        operation: Operation,
        session: Session,
        keys: ServerKeys,
        values: dict[str, LweBatch],
        tags: dict[str, str],
        lut: LookUpTable | None,
    ) -> tuple[LweBatch, str]:
        operands = [values[wire] for wire in operation.inputs]
        # Gates work in the ±q/8 boolean encoding; LUT and linear operations
        # in the integer message encoding.  A wire crossing domains would
        # decode to garbage silently — the one thing a ground-truth backend
        # must never do — so mixing is rejected loudly.  Untyped passthrough
        # ciphertexts (tag "any") are the caller's responsibility.
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
            result = batch_gate(
                operation.name,
                tuple(operands),
                keys.bootstrapping_key,
                keys.keyswitching_key,
                params,
            )
            return result, _BOOLEAN
        if operation.kind == "lut":
            accumulator = LweBatch(
                sum(operand.masks for operand in operands),
                sum(operand.bodies for operand in operands),
                params,
            )
            entries = lut.entries
            bootstrapped = batch_programmable_bootstrap(
                accumulator,
                lambda m: int(entries[m % len(entries)]),
                keys.bootstrapping_key,
                lut.params,
                keys.keyswitching_key,
            )
            return bootstrapped.ciphertexts, _MESSAGE
        if operation.kind == "linear":
            coefficients = operation.coefficients or (1,) * len(operands)
            masks: np.ndarray | None = None
            bodies: np.ndarray | None = None
            for coefficient, operand in zip(coefficients, operands):
                if coefficient == 0:
                    continue
                term_masks = operand.masks * int(coefficient)
                term_bodies = operand.bodies * int(coefficient)
                masks = term_masks if masks is None else masks + term_masks
                bodies = term_bodies if bodies is None else bodies + term_bodies
            if masks is None or bodies is None:
                masks = np.zeros((len(operands[0]), operands[0].dimension), dtype=np.int64)
                bodies = np.zeros(len(operands[0]), dtype=np.int64)
            tag = tags[operation.inputs[0]] if operation.inputs else _MESSAGE
            return LweBatch(masks, bodies, params), tag
        raise ValueError(f"unknown operation kind {operation.kind!r}")


register_backend(ReferenceBackend.name, ReferenceBackend)
