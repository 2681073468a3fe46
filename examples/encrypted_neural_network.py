"""Encrypted neural-network inference — the paper's motivating workload.

Two views of the Zama Deep-NN scenario (Section VI-C, Fig. 7):

1. A *functional* homomorphic MLP, built as a netlist and run on the
   reference backend: every activation is computed with a real programmable
   bootstrap (kept tiny so pure Python finishes quickly).  The script exits
   non-zero when a decrypted output differs from the plaintext reference.
2. The *performance* view: the full NN-20 / NN-50 / NN-100 models as
   computation graphs executed on the Strix simulator and the CPU / GPU
   baseline models — the data behind Fig. 7.

Run with:  python examples/encrypted_neural_network.py
"""

from __future__ import annotations

import itertools

from repro import Session, run
from repro.analysis.deep_nn_benchmark import deep_nn_benchmark
from repro.apps.deep_nn import ZAMA_DEEP_NN_MODELS, forward_plaintext, mlp_netlist, mlp_weights
from repro.params import DEEP_NN_PARAMETER_SETS


def functional_inference() -> None:
    """Run a real (tiny) homomorphic MLP on every input it accepts, in one stacked run."""
    print("== Functional homomorphic inference (TOY parameters) ==")
    session = Session("TOY", seed=11)
    weights = mlp_weights([4, 3, 2], weight_magnitude=1, seed=5)
    netlist = mlp_netlist(session.params, weights)

    space = [list(x) for x in itertools.product(range(session.params.message_modulus), repeat=4)]
    result = run(
        netlist,
        backend="reference",
        session=session,
        inputs=[{f"x{i}": value for i, value in enumerate(x)} for x in space],
    )
    encrypted = [[outputs[wire] for wire in netlist.output_wires()] for outputs in result.outputs]
    reference = [forward_plaintext(session.params, weights, x) for x in space]

    for x in ([1, 0, 1, 1], [0, 0, 3, 1]):
        row = space.index(x)
        print(f"inputs {x}: encrypted inference {encrypted[row]}, plaintext {reference[row]}")
    matches = sum(got == want for got, want in zip(encrypted, reference))
    print(
        f"{len(space)} inputs in one stacked run ({result.pbs_count:,} PBS, "
        f"{result.latency_s:.2f} s): {matches} match the plaintext reference\n"
    )
    if matches != len(space):
        raise SystemExit("encrypted inference differs from the plaintext reference")


def performance_projection() -> None:
    """Project the full Deep-NN models onto Strix and the baselines."""
    print("== Fig. 7 projection: Zama Deep-NN on CPU / GPU / Strix ==")
    # A single model is one `run()` call away (workloads resolve by name):
    nn20 = run("NN-20", backend="strix-sim")
    print(f"single NN-20 inference on Strix: {nn20.latency_ms:.1f} ms "
          f"({nn20.pbs_count:,} PBS)\n")
    result = deep_nn_benchmark(
        models=ZAMA_DEEP_NN_MODELS, parameter_sets=DEEP_NN_PARAMETER_SETS
    )
    print(result.render())
    cpu_low, cpu_high = result.speedup_range_vs_cpu()
    gpu_low, gpu_high = result.speedup_range_vs_gpu()
    print(
        f"\nStrix evaluates an encrypted {ZAMA_DEEP_NN_MODELS['NN-100'].depth}-layer network "
        f"{cpu_high:.0f}x faster than the CPU baseline and {gpu_high:.0f}x faster than the GPU."
    )


def main() -> None:
    functional_inference()
    performance_projection()


if __name__ == "__main__":
    main()
