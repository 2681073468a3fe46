"""Host seconds of the reference backend on three fixed netlists.

Each case is one ``run(netlist, backend="reference")`` call, timed with the
session's keys generated before the clock starts:

* ``lut-I`` — set I, one instance, 64 wires by 4 levels of one-input LUTs
  (256 PBS).  No multi-term linear operation feeds a LUT, so it decrypts
  (a predicted 2.4e-6 failures per PBS);
* ``mlp-SMALL`` / ``mlp-TOY`` — ``mlp_netlist`` over ``mlp_weights([16] * 4)``
  (48 LUTs behind 16-term dot products).

Prints one JSON line per case and repeat: host seconds, PBS, and whether
every output decrypted to its plaintext reference::

    python benchmarks/bench_reference.py                        # every case once
    python benchmarks/bench_reference.py --case mlp-TOY --repeat 3
"""

from __future__ import annotations

if __name__ == "__main__":  # script mode: make src/ importable before repro imports
    from harness import ensure_repro_importable

    ensure_repro_importable()

import argparse
import json
import time

from repro.apps.deep_nn import forward_plaintext, mlp_netlist, mlp_weights
from repro.params import TFHEParameters, get_parameters
from repro.runtime.api import run
from repro.runtime.session import Session
from repro.sim.compiler import Netlist

#: Wires and levels of the ``lut-I`` netlist.
LUT_WIDTH, LUT_DEPTH = 64, 4


def lut_case(params: TFHEParameters) -> tuple[Netlist, dict[str, int], dict[str, int]]:
    """``LUT_WIDTH`` chains of ``LUT_DEPTH`` increments, their inputs and expected outputs."""
    p = params.message_modulus
    netlist = Netlist(params, name=f"lut-{LUT_WIDTH}x{LUT_DEPTH}")
    inputs, expected = {}, {}
    for wire in range(LUT_WIDTH):
        chain = netlist.add_input(f"x{wire}")
        for level in range(LUT_DEPTH):
            chain = netlist.add_lut(f"l{level}_{wire}", chain, function=lambda m: (m + 1) % p)
        inputs[f"x{wire}"] = wire % p
        expected[chain] = (wire + LUT_DEPTH) % p
    return netlist, inputs, expected


def mlp_case(params: TFHEParameters) -> tuple[Netlist, dict[str, int], dict[str, int]]:
    """``mlp_netlist([16] * 4)``, one seeded image and its plaintext forward pass."""
    weights = mlp_weights([16] * 4, seed=0)
    image = [index % params.message_modulus for index in range(16)]
    outputs = forward_plaintext(params, weights, image)
    inputs = {f"x{index}": value for index, value in enumerate(image)}
    return mlp_netlist(params, weights), inputs, {f"y{i}": v for i, v in enumerate(outputs)}


CASES = {
    "lut-I": (lut_case, "I"),
    "mlp-SMALL": (mlp_case, "SMALL"),
    "mlp-TOY": (mlp_case, "TOY"),
}


def time_case(name: str) -> dict:
    """One timed reference run of case ``name``; keys are generated off the clock."""
    build, params_name = CASES[name]
    params = get_parameters(params_name)
    netlist, inputs, expected = build(params)
    session = Session(params, seed=0)
    session.generate_server_keys()
    start = time.perf_counter()
    result = run(netlist, backend="reference", session=session, inputs=inputs)
    seconds = time.perf_counter() - start
    correct = all(result.outputs[0][wire] == value for wire, value in expected.items())
    return {"case": name, "seconds": seconds, "pbs": result.pbs_count, "correct": correct}


def main() -> None:
    parser = argparse.ArgumentParser(description="reference backend host seconds")
    parser.add_argument("--case", choices=sorted(CASES), action="append")
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    for _ in range(args.repeat):
        for name in args.case or CASES:
            print(json.dumps(time_case(name)), flush=True)


if __name__ == "__main__":
    main()
