"""Encrypted boolean circuits: adders and comparators over TFHE gates.

TFHE's programmable bootstrapping makes arbitrary boolean logic possible on
encrypted data — the generality the paper contrasts against CKKS.  This
example adds and compares small encrypted integers bit by bit: each circuit
is a netlist the reference backend runs, every gate a real gate bootstrap,
and the script exits non-zero when an answer differs from plain arithmetic.
It then shows how long the same circuits would take on Strix versus the GPU
baseline.

Run with:  python examples/boolean_circuits.py
"""

from __future__ import annotations

from repro import Session, run
from repro.apps.boolean_circuits import equals_netlist, greater_than_netlist
from repro.params import PARAM_SET_I
from repro.sim.compiler import compile_netlist, full_adder_netlist


def operands(a: int, b: int, bits: int) -> dict[str, bool]:
    """The little-endian operand wires ``a{i}`` / ``b{i}`` of the circuit builders."""
    return {
        f"{name}{i}": bool(value >> i & 1)
        for name, value in (("a", a), ("b", b))
        for i in range(bits)
    }


def check(answer, expected, what: str) -> None:
    """Exit non-zero when a decrypted answer differs from its plaintext reference."""
    if answer != expected:
        raise SystemExit(f"{what} decrypted to {answer}, expected {expected}")


def functional_demo() -> None:
    print("== Encrypted 4-bit arithmetic (TOY parameters) ==")
    session = Session("TOY", seed=3)
    a, b, bits = 11, 6, 4

    adder = full_adder_netlist(session.params, bits)
    result = run(adder, backend="reference", session=session, inputs=operands(a, b, bits))
    total = sum(int(result.outputs[0][wire]) << i for i, wire in enumerate(adder.output_wires()))
    print(f"{a} + {b} = {total}   ({result.pbs_count} gate bootstraps, {result.latency_s:.2f} s)")
    check(total, a + b, f"{a} + {b}")

    for symbol, build, x, y, expected in (
        (">", greater_than_netlist, a, b, a > b),
        ("==", equals_netlist, b, b, True),
    ):
        netlist = build(session.params, bits)
        (wire,) = netlist.output_wires()
        answer = run(netlist, backend="reference", session=session, inputs=operands(x, y, bits))
        print(f"{x} {symbol} {y} -> {answer.outputs[0][wire]}")
        check(answer.outputs[0][wire], expected, f"{x} {symbol} {y}")
    print()


def acceleration_projection() -> None:
    print("== Projected execution of 1,024 encrypted 32-bit additions ==")
    graph = compile_netlist(full_adder_netlist(PARAM_SET_I, 32), instances=1024)
    strix = run(graph, backend="strix-sim")
    gpu = run(graph, backend="gpu-analytical")
    print(f"gate bootstraps:   {strix.pbs_count:,}")
    print(strix.render())
    print(gpu.render())
    print(f"speedup:           {gpu.latency_s / strix.latency_s:10.1f}x")


def main() -> None:
    functional_demo()
    acceleration_projection()


if __name__ == "__main__":
    main()
