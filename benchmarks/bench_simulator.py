"""Cycle-level simulator records: modeled latencies and the kernel oracle.

Writes ``BENCH_sim.json``: the modeled latency of representative workload
graphs on the Strix model, the Table V PBS throughput of paper sets I–IV,
and the batch-kernels-equal-the-scalar-oracle bit.  Every record is
deterministic and nothing here reads a clock — what scheduling costs on the
host is the observatory's ``sim.scheduler.*`` metrics::

    python benchmarks/bench_simulator.py
"""

from __future__ import annotations

if __name__ == "__main__":  # script mode: make src/ importable before repro imports
    from harness import ensure_repro_importable

    ensure_repro_importable()

from repro.apps.deep_nn import ZAMA_DEEP_NN_MODELS, deep_nn_netlist
from repro.apps.workloads import pbs_batch_graph
from repro.arch.accelerator import StrixAccelerator
from repro.params import DEEP_NN_N1024, PARAM_SET_I
from repro.runtime.session import Session
from repro.sim.compiler import compile_netlist
from repro.sim.scheduler import StrixScheduler

#: Batch size of the ``kernel/*`` bit-exactness record: the paper's
#: epoch-level gate batch.
KERNEL_BENCH_BATCH = 64


def main() -> None:
    """Record the deterministic model outputs in ``BENCH_sim.json``."""
    import argparse

    from harness import BenchReport

    from repro.params import PAPER_PARAMETER_SETS

    parser = argparse.ArgumentParser(description="cycle-level simulator benchmark")
    parser.add_argument(
        "--output", default=None, help="output path (default: BENCH_sim.json)"
    )
    args = parser.parse_args()

    runner = StrixScheduler(StrixAccelerator())
    accelerator = StrixAccelerator()
    report = BenchReport("sim")
    # Deterministic model outputs: these must not drift between commits
    # unless the performance model itself changed, which is exactly what the
    # regression gate (check_regression.py) exists to catch.
    batch_schedule = runner.run(pbs_batch_graph(PARAM_SET_I, 4096))
    report.add(
        "sim/pbs_batch_4096/latency", batch_schedule.total_time_s, "s"
    )
    nn_schedule = runner.run(
        compile_netlist(deep_nn_netlist(ZAMA_DEEP_NN_MODELS["NN-100"], DEEP_NN_N1024))
    )
    report.add("sim/deep_nn_100/latency", nn_schedule.total_time_s, "s")
    report.add("sim/deep_nn_100/epochs", nn_schedule.total_epochs, "epochs")
    for params in PAPER_PARAMETER_SETS.values():
        performance = accelerator.pbs_performance(params)
        report.add(
            f"sim/pbs_throughput/{params.name}",
            performance.throughput_pbs_per_s,
            "PBS/s",
        )
    # kernel/* family: a batch-64 gate bootstrap on the real TFHE substrate,
    # batch API against the per-ciphertext oracle.  Deterministic — it flips
    # to 0.0 if the batch kernels ever diverge from the scalar reference,
    # which the regression gate treats as a hard failure.  (Kernel wall
    # clock is the observatory's ``pbs-*`` workloads, not a record here.)
    session = Session("TOY", seed=0)
    lhs = session.encrypt_boolean_batch(bool(i & 1) for i in range(KERNEL_BENCH_BATCH))
    rhs = session.encrypt_boolean_batch(bool(i & 2) for i in range(KERNEL_BENCH_BATCH))
    gates = session.gates()
    bit_exact = all(
        (a.mask == b.mask).all() and a.body == b.body
        for a, b in zip(
            session.gate_batch("and", lhs, rhs),
            [gates.and_(left, right) for left, right in zip(lhs, rhs)],
        )
    )
    report.add("kernel/gate_bootstrap_batch64/bit_exact", float(bit_exact), "bool")
    path = report.write(args.output)
    print(f"[saved {len(report.records)} records to {path}]")


if __name__ == "__main__":
    main()
