"""Privacy-preserving scoring: a decision forest whose score stays encrypted.

A bank evaluates a (public) risk model on a customer's (private) data: the
customer submits encrypted features, and the server runs every decision tree
of the forest homomorphically and sums the trees' votes into an encrypted
score — one netlist on the reference backend, of which only the score is
ever decrypted.  This is the tree-based inference workload the paper cites
as a key TFHE use case.  Finally the same forest is projected onto Strix to
show what the accelerator buys.  The script exits non-zero when a score
differs from the plaintext forest's vote count.

Run with:  python examples/private_scoring.py
"""

from __future__ import annotations

import time

from repro import Session, get_backend, run
from repro.apps.tree_inference import DecisionTree, forest_netlist, tree_netlist
from repro.params import PARAM_SET_I, TOY_PARAMETERS
from repro.sim.compiler import compile_netlist

CUSTOMERS = 10_000


def homomorphic_forest_scoring() -> None:
    print("== Homomorphic forest scoring (TOY parameters) ==")
    session = Session(TOY_PARAMETERS, seed=21)
    forest = [
        DecisionTree.random(depth=2, num_features=4, params=TOY_PARAMETERS, seed=seed)
        for seed in range(3)
    ]
    customers = [[1, 3, 0, 2], [0, 1, 0, 1], [0, 0, 0, 0], [3, 3, 3, 3]]
    print(f"customer features (private): {customers}")

    start = time.perf_counter()
    # One stacked run scores every customer; only the score wire is decrypted.
    result = run(
        forest_netlist(forest, TOY_PARAMETERS),
        backend="reference",
        session=session,
        inputs=[{f"x{index}": value for index, value in enumerate(row)} for row in customers],
        outputs=["score"],
    )
    elapsed = time.perf_counter() - start

    scores = [outputs["score"] for outputs in result.outputs]
    expected = [sum(tree.predict(row) for tree in forest) for row in customers]
    print(f"encrypted scores decrypt to {scores} (plaintext forest: {expected})")
    print(f"work: {result.pbs_count} programmable bootstraps in {elapsed:.2f} s of pure Python\n")
    if scores != expected:
        raise SystemExit("encrypted scoring differs from the plaintext forest")


def acceleration_projection() -> None:
    # Set I's message modulus p = 4 holds at most three binary votes, so the
    # forest is the largest one forest_netlist accepts there.
    trees = PARAM_SET_I.message_modulus - 1
    print(f"== Projected scoring of {CUSTOMERS:,} customers on a {trees}-tree forest ==")
    forest = [
        DecisionTree.random(depth=6, num_features=8, params=PARAM_SET_I, seed=seed)
        for seed in range(trees)
    ]
    graph = compile_netlist(forest_netlist(forest, PARAM_SET_I), instances=CUSTOMERS)
    strix = run(graph, backend="strix-sim")
    cpu = run(graph, backend=get_backend("cpu-analytical", threads=48))
    print(f"programmable bootstraps: {graph.total_pbs():,}")
    print(f"CPU (48 threads):        {cpu.latency_s:8.1f} s")
    print(
        f"Strix:                   {strix.latency_s:8.1f} s   "
        f"({cpu.latency_s / strix.latency_s:.0f}x faster)"
    )
    # The trees' levels batch together: the forest costs what one tree costs
    # over every tree's customers, plus the linear sum of the votes.
    flat = compile_netlist(tree_netlist(forest[0], PARAM_SET_I), instances=trees * CUSTOMERS)
    flat_strix = run(flat, backend="strix-sim")
    print(
        f"one tree over {trees * CUSTOMERS:,} customers: {flat.total_pbs():,} PBS, "
        f"{flat_strix.latency_s:.1f} s on Strix"
    )


def main() -> None:
    homomorphic_forest_scoring()
    acceleration_projection()


if __name__ == "__main__":
    main()
