"""Perf observatory: run one workload, every workload, or the A/A self-check.

The driver's form (one process per workload run, last stdout line is the
result object)::

    python3 benchmarks/observatory/run.py --workload pbs-small-single \\
        --seed 3 --seconds 10 --trace 0

Every metric of every workload, untraced and traced, as ``name value unit``
lines; exits non-zero when any check fails::

    python3 benchmarks/observatory/run.py --all

Run-to-run agreement of the same commit against the bounds in
``BENCHMARK.json``::

    python3 benchmarks/observatory/run.py --aa
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
for _path in (HERE, REPO_ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from observatory.catalog import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    Metric,
    workload_names,
)


def pin_process() -> None:
    """Fix the two process-wide settings that otherwise decide the numbers.

    Called by the command line before numpy is imported; importing this
    module changes nothing.

    * One BLAS/OpenMP thread: the sandbox has two cores and the wire
      workload runs client and server in one process.
    * glibc's *dynamic* mmap threshold: a numpy temporary above it is
      mmap'd, zero-filled and unmapped on every use, one below it is
      recycled from the heap, and the threshold rises as a process frees
      large blocks.  Whether ``pbs-set-I-batch64`` (1-2 MB temporaries in
      the blind-rotation loop) ran 2.7 s or 3.9 s per call depended on what
      the process had allocated *before* — so the thresholds are pinned at
      the values a long-lived process converges to.
    """
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 25)  # M_MMAP_THRESHOLD = 32 MiB, its dynamic maximum
        libc.mallopt(-1, 1 << 28)  # M_TRIM_THRESHOLD: never hand the heap top back
    except (OSError, AttributeError):
        pass  # not glibc: nothing to pin


def run_workload(name: str, seed: int, seconds: float, traced: bool, scale: float = 1.0):
    """Run one workload in this process; returns its :class:`Result`."""
    from observatory import pbs, serve_sim, wire
    from observatory.common import Options

    runners = {
        **dict.fromkeys(pbs.SPECS, pbs.run),
        **dict.fromkeys(serve_sim.SPECS, serve_sim.run),
        "wire-open-loop": wire.run,
    }
    return runners[name](name, Options(seed=seed, seconds=seconds, traced=traced, scale=scale))


def reported(result, traced: bool) -> dict[str, dict]:
    """The metrics object of the result line: every metric of the run's kind."""
    if not traced:
        return {m.name: {"value": result.metrics[m.name], "unit": m.unit} for m in END_TO_END}
    # A layer the workload never enters did no work: its counters read 0.
    return {m.name: {"value": result.metrics.get(m.name, 0.0), "unit": m.unit} for m in PER_LAYER}


def _single(args: argparse.Namespace) -> int:
    traced = bool(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, traced, args.scale)
    metrics = reported(result, traced)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} scale {args.scale:g}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.9g} {entry['unit']}")
    diagnostics = dict(result.notes)
    if not traced:
        diagnostics.update({k: v for k, v in result.metrics.items() if k.startswith("harness.")})
    for name, value in sorted(diagnostics.items()):
        print(f"# {name} {value:.9g}")
    for problem in result.problems:
        print(f"# FAILED CHECK: {problem}")
    if args.trace_out and result.recorder is not None:
        print(f"# wrote {result.recorder.write_jsonl(args.trace_out)} spans to {args.trace_out}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if result.correct else 1


def _spawn(name: str, seed: int, seconds: float, trace: int, scale: float) -> tuple[int, dict]:
    """One workload run in its own process; returns (exit code, result object)."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", str(scale),
    ]  # fmt: skip
    done = subprocess.run(command, capture_output=True, text=True, timeout=180)
    if done.returncode not in (0, 1) or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{name} (trace {trace}) exited with code {done.returncode}")
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def _all(args: argparse.Namespace) -> int:
    status = 0
    for name in workload_names():
        for trace in (0, 1):
            code, outcome = _spawn(name, args.seed, args.seconds, trace, args.scale)
            status |= code
            verdict = "ok" if outcome["correct"] else "FAILED"
            print(
                f"== {name} seed {args.seed} trace {trace}: {verdict}, "
                f"{outcome['failed']} failed of {outcome['attempted']} attempted"
            )
            for metric, entry in outcome["metrics"].items():
                print(f"{metric} {entry['value']:.9g} {entry['unit']}")
    return status


def relative_worsening(metric: Metric, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / abs(first) if first else float(second != first)
    return change if metric.better == "lower" else -change


def _aa(args: argparse.Namespace) -> int:
    """Every workload twice, in alternating order; both values against the bound."""
    names = workload_names()
    rounds = [{}, {}]
    status = 0
    for index, order in enumerate((names, list(reversed(names)))):
        for name in order:
            code, outcome = _spawn(name, args.seed, args.seconds, 0, args.scale)
            status |= code
            rounds[index][name] = outcome["metrics"]
    print(
        f"{'workload':24s} {'metric':26s} {'run A':>14s} {'run B':>14s} "
        f"{'diff':>8s} bound  verdict"
    )
    for name in names:
        for metric in END_TO_END:
            first = rounds[0][name][metric.name]["value"]
            second = rounds[1][name][metric.name]["value"]
            difference = abs(relative_worsening(metric, first, second))
            within = difference <= metric.bound
            status |= 0 if within else 2
            print(
                f"{name:24s} {metric.name:26s} {first:14.6g} {second:14.6g} "
                f"{difference:8.2%} {metric.bound:5.2f}  {'within' if within else 'outside'}"
            )
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=workload_names(), help="run one workload here")
    mode.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    mode.add_argument("--aa", action="store_true", help="every workload twice, against the bounds")
    parser.add_argument("--seed", type=int, default=1, help="generates every input")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = per-layer run")
    parser.add_argument("--scale", type=float, default=1.0, help="shrink sizes (smoke test only)")
    parser.add_argument("--trace-out", metavar="PATH", help="write the traced run's spans as JSONL")
    args = parser.parse_args(argv)
    if args.workload:
        pin_process()
        return _single(args)
    return _all(args) if args.all else _aa(args)


if __name__ == "__main__":
    sys.exit(main())
