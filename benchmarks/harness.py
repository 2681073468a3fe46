"""Bench-record harness: collect named records, write ``BENCH_*.json``.

A :class:`BenchReport` collects the named model outputs a generator computes
and writes one ``BENCH_<suite>.json`` at the repository root — the artifact
``check_regression.py`` diffs against the previous commit.  It reads no
clock: the records are a function of the code, so regenerating an artifact
(under the same interpreter version, which the header names) leaves it
byte-identical unless the model moved.  Wall-clock numbers are
``benchmarks/observatory/``'s job.

Schema (version 1)::

    {"schema": 1, "suite": "serve", "python": "3.12.3",
     "records": [{"name": ..., "value": ..., "unit": ..., ...extras}]}
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Any

#: Repository root (``benchmarks/`` lives directly under it).
REPO_ROOT = Path(__file__).resolve().parent.parent


def ensure_repro_importable() -> None:
    """Make ``src/`` importable when a benchmark runs as a plain script."""
    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


class BenchReport:
    """Collects benchmark records for one suite and serializes them."""

    def __init__(self, suite: str):
        self.suite = suite
        self.records: list[dict[str, Any]] = []

    def add(self, name: str, value: float, unit: str, **extra: Any) -> None:
        """Record one named model output (latencies, throughputs, counters...)."""
        self.records.append({"name": name, "value": value, "unit": unit, **extra})

    def to_dict(self) -> dict[str, Any]:
        """The full JSON document."""
        return {
            "schema": 1,
            "suite": self.suite,
            "python": platform.python_version(),
            "records": self.records,
        }

    def write(self, path: str | Path | None = None) -> Path:
        """Write ``BENCH_<suite>.json`` (at the repo root by default)."""
        target = Path(path) if path else REPO_ROOT / f"BENCH_{self.suite}.json"
        target.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return target
