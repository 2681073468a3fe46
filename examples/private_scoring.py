"""Privacy-preserving scoring: decision trees and encrypted counters.

A bank evaluates a (public) risk model on a customer's (private) data: the
customer submits encrypted features, the server runs each decision tree
homomorphically (a netlist on the reference backend) and accumulates the
trees' votes into an encrypted score with radix integer arithmetic — the
tree-based inference workload the paper cites as a key TFHE use case.
Finally the same workload is projected onto Strix to show what the
accelerator buys.  The script exits non-zero when a vote or the score
differs from the plaintext forest.

Run with:  python examples/private_scoring.py
"""

from __future__ import annotations

import time

from repro import Session, get_backend, run
from repro.apps.tree_inference import DecisionTree, tree_netlist
from repro.params import PARAM_SET_I, TOY_PARAMETERS
from repro.sim.compiler import compile_netlist
from repro.tfhe.integer import RadixIntegerCodec


def homomorphic_forest_scoring() -> None:
    print("== Homomorphic forest scoring (TOY parameters) ==")
    session = Session(TOY_PARAMETERS, seed=21)
    forest = [
        DecisionTree.random(depth=2, num_features=4, params=TOY_PARAMETERS, seed=seed)
        for seed in range(3)
    ]
    codec = RadixIntegerCodec(session.context, digit_bits=1, num_digits=3)

    customer_features = [1, 3, 0, 2]
    print(f"customer features (private): {customer_features}")
    features = {f"x{index}": value for index, value in enumerate(customer_features)}

    start = time.perf_counter()
    encrypted_score = codec.encrypt(0)
    votes = []
    total_pbs = 0
    for tree in forest:
        netlist = tree_netlist(tree, TOY_PARAMETERS)
        result = run(netlist, backend="reference", session=session, inputs=features)
        vote = result.outputs[0]["label"]  # (the run decrypts it; here only to narrate)
        votes.append(vote)
        total_pbs += result.pbs_count + codec.pbs_per_addition()
        encrypted_score = codec.add_scalar(encrypted_score, vote)
    elapsed = time.perf_counter() - start

    expected = [tree.predict(customer_features) for tree in forest]
    score = codec.decrypt(encrypted_score)
    print(f"per-tree votes:            {votes} (plaintext trees: {expected})")
    print(f"encrypted score decrypts to {score} (expected {sum(expected)})")
    print(f"work: {total_pbs} programmable bootstraps in {elapsed:.2f} s of pure Python\n")
    if votes != expected or score != sum(expected):
        raise SystemExit("encrypted scoring differs from the plaintext forest")


def acceleration_projection() -> None:
    print("== Projected scoring of 10,000 customers on a 100-tree forest ==")
    # Every complete depth-6 tree compiles to the same graph: one netlist
    # priced for 100 trees x 10,000 customers.
    tree = DecisionTree.random(depth=6, num_features=8, params=PARAM_SET_I)
    graph = compile_netlist(tree_netlist(tree, PARAM_SET_I), instances=100 * 10_000)
    strix = run(graph, backend="strix-sim")
    cpu = run(graph, backend=get_backend("cpu-analytical", threads=48))
    print(f"programmable bootstraps: {graph.total_pbs():,}")
    print(f"CPU (48 threads):        {cpu.latency_s:8.1f} s")
    print(
        f"Strix:                   {strix.latency_s:8.1f} s   "
        f"({cpu.latency_s / strix.latency_s:.0f}x faster)"
    )


def main() -> None:
    homomorphic_forest_scoring()
    acceleration_projection()


if __name__ == "__main__":
    main()
