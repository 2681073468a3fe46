"""Bench-regression gate: diff ``BENCH_*.json`` against a previous commit.

The benchmark scripts leave machine-readable artifacts (``BENCH_serve.json``,
``BENCH_sim.json``) at the repository root; this script compares a freshly
generated file against the version a previous commit recorded and fails when
any shared record drifted beyond a tolerance — the perf-trajectory check the
ROADMAP asks CI to run.

Every record is a deterministic model output (simulated latencies,
throughputs, percentiles, counters, bit-exactness flags): any drift is a real
behaviour change, and one ``--tolerance`` judges them all.  Wall-clock numbers
are not in these files — ``benchmarks/observatory/`` measures them.

Usage::

    python benchmarks/check_regression.py --current BENCH_serve.json \
        --baseline-ref HEAD~1
    python benchmarks/check_regression.py --current /tmp/BENCH_sim.json \
        --baseline old/BENCH_sim.json --tolerance 0.05

A missing baseline (first commit, file not yet recorded at the ref) is
reported and tolerated — there is nothing to regress against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

#: Relative drift tolerated on a record.
DEFAULT_TOLERANCE = 0.05


def load_records(document: dict) -> dict[str, dict]:
    """Index a ``BENCH_*.json`` document by record name."""
    if document.get("schema") != 1:
        raise ValueError(f"unsupported benchmark schema: {document.get('schema')!r}")
    return {record["name"]: record for record in document["records"]}


def load_baseline(ref: str | None, path: str | None, current_name: str) -> dict | None:
    """Baseline document from an explicit path or a git ref (``None`` if absent)."""
    if path is not None:
        baseline_path = Path(path)
        if not baseline_path.exists():
            return None
        return json.loads(baseline_path.read_text())
    assert ref is not None
    result = subprocess.run(
        ["git", "show", f"{ref}:{current_name}"],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parent.parent,
    )
    if result.returncode != 0:
        return None
    return json.loads(result.stdout)


def relative_drift(current: float, baseline: float) -> float:
    """Symmetric relative change between two record values."""
    if baseline == current:
        return 0.0
    scale = max(abs(baseline), abs(current), 1e-30)
    return abs(current - baseline) / scale


def compare(
    current: dict[str, dict], baseline: dict[str, dict], tolerance: float
) -> tuple[list[str], list[str]]:
    """Diff two record sets; returns ``(violations, notes)``."""
    violations: list[str] = []
    notes: list[str] = []
    for name in sorted(set(current) | set(baseline)):
        if name not in baseline:
            notes.append(f"new record {name} (no baseline)")
            continue
        if name not in current:
            notes.append(f"record {name} disappeared from the current run")
            continue
        new, old = current[name], baseline[name]
        drift = relative_drift(float(new["value"]), float(old["value"]))
        line = (
            f"{name}: {old['value']:.6g} -> {new['value']:.6g} "
            f"({drift:+.1%} drift, budget {tolerance:.0%})"
        )
        if drift > tolerance:
            violations.append(line)
        else:
            notes.append(f"ok {line}")
    return violations, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current", required=True, help="freshly generated BENCH_*.json to judge"
    )
    parser.add_argument(
        "--baseline", default=None, help="explicit baseline file to diff against"
    )
    parser.add_argument(
        "--baseline-ref",
        default="HEAD~1",
        help="git ref whose committed artifact is the baseline (default: HEAD~1)",
    )
    parser.add_argument(
        "--name",
        default=None,
        help="artifact name at the ref (default: the --current file's basename)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="relative drift allowed on a record",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="also print records within budget"
    )
    args = parser.parse_args()

    current_path = Path(args.current)
    current = load_records(json.loads(current_path.read_text()))
    name = args.name or current_path.name
    baseline_document = load_baseline(args.baseline_ref, args.baseline, name)
    if baseline_document is None:
        source = args.baseline or f"{args.baseline_ref}:{name}"
        print(f"[check_regression] no baseline at {source}; nothing to regress against")
        return 0
    baseline = load_records(baseline_document)

    violations, notes = compare(current, baseline, tolerance=args.tolerance)
    if args.verbose:
        for note in notes:
            print(f"[check_regression] {note}")
    else:
        for note in notes:
            if not note.startswith("ok "):
                print(f"[check_regression] {note}")
    if violations:
        print(
            f"[check_regression] {len(violations)} record(s) drifted beyond "
            f"tolerance against {args.baseline or args.baseline_ref}:"
        )
        for violation in violations:
            print(f"  REGRESSION {violation}")
        return 1
    print(
        f"[check_regression] {len(current)} record(s) checked against "
        f"{args.baseline or args.baseline_ref}: within tolerance"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
