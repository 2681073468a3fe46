"""Perf-trajectory harness: run benchmark callables, write ``BENCH_*.json``.

A :class:`BenchReport` collects named records (timed callables or externally
computed metrics) and writes one ``BENCH_<suite>.json`` at the repository
root — the artifact CI uploads and future PRs diff against.

Schema (version 1)::

    {"schema": 1, "suite": "serve", "created_unix": ..., "python": "3.12.3",
     "records": [{"name": ..., "value": ..., "unit": ..., ...extras}]}
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable

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
        """Record one named metric (timings, throughputs, percentiles...)."""
        self.records.append({"name": name, "value": value, "unit": unit, **extra})

    def time(
        self, name: str, fn: Callable[[], Any], repeats: int = 3, **extra: Any
    ) -> float:
        """Time ``fn`` (best of ``repeats``), record it, return the seconds.

        The record carries ``timed: true`` so cross-commit comparisons
        (``check_regression.py``) can tell wall-clock measurements — noisy
        across runners — from deterministic model outputs.
        """
        best = min(self._once(fn) for _ in range(max(1, repeats)))
        self.add(name, best, "s", timed=True, **extra)
        return best

    @staticmethod
    def _once(fn: Callable[[], Any]) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    def to_dict(self) -> dict[str, Any]:
        """The full JSON document."""
        return {
            "schema": 1,
            "suite": self.suite,
            "created_unix": int(time.time()),
            "python": platform.python_version(),
            "records": self.records,
        }

    def write(self, path: str | Path | None = None) -> Path:
        """Write ``BENCH_<suite>.json`` (at the repo root by default)."""
        target = Path(path) if path else REPO_ROOT / f"BENCH_{self.suite}.json"
        target.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return target
