"""Quickstart: the unified batch-first runtime in one script.

Walks the new front door of the reproduction: a :class:`repro.Session` owns
the keys and provides *batch* encrypt / decrypt / bootstrap (sized to the
paper's device x core batch geometry), and :func:`repro.run` executes one
workload definition on every backend — functionally on the real TFHE
implementation, cycle-level on the Strix simulator, and on the CPU / GPU
analytical baselines.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro import Session, run
from repro.sim.compiler import Netlist, full_adder_netlist
from repro.tfhe.lut import LookUpTable


def main() -> None:
    print("== Strix reproduction quickstart ==")

    # 1. A session owns the keys (client/server split) and the batch geometry.
    start = time.perf_counter()
    session = Session("TOY", seed=42)
    keys = session.generate_server_keys()
    print(
        f"Key generation took {time.perf_counter() - start:.2f} s "
        f"(evaluation keys: {keys.total_bytes / 1024:.0f} KiB)"
    )
    accelerator = session.accelerator
    print(
        f"Batch geometry: {accelerator.config.tvlp} cores x "
        f"{accelerator.core.core_batch_size(session.params)} LWEs/core = "
        f"{session.batch_capacity} LWEs/epoch"
    )
    print(f"Predicted per-PBS failure probability: {session.failure_probability:.1e}\n")

    # 2. Batch encryption and encrypted arithmetic.
    messages = [0, 1, 2, 3, 1, 2]
    ciphertexts = session.encrypt_batch(messages)
    total = ciphertexts[0] + ciphertexts[1]
    print(f"encrypt_batch({messages}) -> decrypt_batch = {session.decrypt_batch(ciphertexts)}")
    (decrypted_total,) = session.decrypt_batch([total])
    print(f"Enc({messages[0]}) + Enc({messages[1]}) decrypts to {decrypted_total}")

    # 3. Batch programmable bootstrapping: one function over many ciphertexts.
    p = session.params.message_modulus
    squared = session.bootstrap_batch(ciphertexts, lambda m: (m * m) % p)
    print(f"bootstrap_batch(x^2 mod {p}) = {session.decrypt_batch(squared)}")
    square_lut = LookUpTable.from_function(lambda m: (m * m) % p, session.params)
    assert session.decrypt_batch(session.bootstrap_batch(ciphertexts, square_lut)) == [
        (m * m) % p for m in messages
    ]

    # 4. Vectorized gate application: each call is a one-gate level, one
    #    stack cut into epochs (every output is a real bootstrap).
    lhs = session.encrypt_boolean_batch([True, True, False])
    rhs = session.encrypt_boolean_batch([True, False, False])
    for gate in ("and", "xor", "nand"):
        outputs = session.decrypt_boolean_batch(session.gate_batch(gate, lhs, rhs))
        print(f"gate_batch({gate!r:>7}, [T,T,F], [T,F,F]) = {outputs}")

    # 5. One netlist, every backend.  The 2-bit adder below computes 1 + 3.
    adder = full_adder_netlist(session.params, bits=2)
    inputs = {"a0": True, "a1": False, "b0": True, "b1": True}
    print("\n== One workload, three execution backends ==")
    functional = run(adder, backend="reference", session=session, inputs=inputs)
    bits = functional.outputs[0]
    value = int(bits["axb0"]) + 2 * int(bits["s1"]) + 4 * int(bits["c1"])
    print(f"reference (functional): 1 + 3 = {value}  [decrypted {bits}]")

    # Netlists are not only gates: a linear combination feeding one
    # programmable LUT (one PBS) computes (a + 2b)^2 mod p on integer wires.
    polynomial = Netlist(session.params, name="lut-after-linear")
    a, b = polynomial.add_input("a"), polynomial.add_input("b")
    mixed = polynomial.add_linear("a+2b", (a, b), coefficients=(1, 2))
    polynomial.add_lut("squared", mixed, function=lambda m: (m * m) % p)
    squared = run(polynomial, backend="reference", session=session, inputs={"a": 1, "b": 1})
    assert squared.outputs == [{"squared": (1 + 2 * 1) ** 2 % p}]
    print(f"reference (functional): (1 + 2*1)^2 mod {p} = {squared.outputs[0]['squared']}")

    # The adder netlist, rebound to parameter set I and batched over 1,024
    # independent instances, on the simulator and the analytical baselines.
    for backend in ("strix-sim", "gpu-analytical", "cpu-analytical"):
        result = run(adder, backend=backend, params="I", instances=1024)
        print(result.render())

    print("\nEvery gate output above was produced by a programmable bootstrap —")
    print("the operation Strix accelerates by three orders of magnitude over a CPU.")


if __name__ == "__main__":
    main()
