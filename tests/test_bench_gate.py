"""The bench gate that is left: ``check_regression.py`` and the committed artifacts.

``BENCH_*.json`` holds only deterministic model outputs (wall clock lives in
``benchmarks/observatory/``), so one tolerance judges every record.  No test
here reads a clock or runs a generator; CI's ``bench-smoke`` job does that.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import check_regression  # noqa: E402
from harness import BenchReport  # noqa: E402

#: The wall-clock records ISSUE 19 deleted and the stage-plan cache's three
#: counters ISSUE 23 deleted with the cache; none may come back.
DELETED_RECORDS = {
    "plan_cache/warm_hits",
    "plan_cache/warm_misses",
    "plan_cache/p99_latency",
    "plan_cache/cold_simulate",
    "plan_cache/warm_simulate",
    "plan_cache/overhead_reduction",
    "cost_cache/cold_simulate",
    "cost_cache/warm_simulate",
    "cost_cache/speedup",
    "cost_cache/warm_batches_per_s",
    "net/replay/transport_overhead",
    "net/live/rtt_p50",
    "net/live/rtt_p99",
    "net/live/requests_per_s",
    "sim/schedule_pbs_batch_4096",
    "sim/schedule_deep_nn_100",
    "sim/pbs_performance_sweep",
}


def _records(**values: float) -> dict[str, dict]:
    report = BenchReport("gate")
    for name, value in values.items():
        report.add(name, value, "s")
    return check_regression.load_records(report.to_dict())


def test_drift_above_the_tolerance_is_a_violation_and_at_it_is_ok():
    baseline = _records(above=100.0, at=100.0, below=100.0, equal=3.5)
    current = _records(above=111.0, at=110.0, below=109.0, equal=3.5)
    # relative_drift is symmetric: |new - old| / max(|new|, |old|).
    tolerance = check_regression.relative_drift(110.0, 100.0)
    violations, notes = check_regression.compare(current, baseline, tolerance)
    assert [line.split(":")[0] for line in violations] == ["above"]
    assert sorted(note.split(":")[0] for note in notes) == ["ok at", "ok below", "ok equal"]


def test_new_and_disappeared_records_are_notes_not_violations():
    violations, notes = check_regression.compare(
        _records(kept=1.0, added=2.0), _records(kept=1.0, gone=3.0), tolerance=0.0
    )
    assert violations == []
    assert "new record added (no baseline)" in notes
    assert "record gone disappeared from the current run" in notes


def test_tolerance_zero_passes_on_equal_values(tmp_path, monkeypatch, capsys):
    report = BenchReport("gate")
    report.add("a/latency", 0.125, "s", extra={"nested": [1, 2]})
    report.add("a/count", 7, "count")
    current, baseline = report.write(tmp_path / "now.json"), report.write(tmp_path / "then.json")
    argv = ["check_regression.py", "--current", str(current), "--baseline", str(baseline)]
    monkeypatch.setattr(sys, "argv", [*argv, "--tolerance", "0"])
    assert check_regression.main() == 0
    assert "2 record(s) checked" in capsys.readouterr().out
    # ... and fails, at the same tolerance, once one value moves at all.
    report.records[0]["value"] = 0.125000001
    report.write(current)
    assert check_regression.main() == 1
    assert "REGRESSION a/latency" in capsys.readouterr().out


def test_a_report_is_a_function_of_its_records():
    assert sorted(BenchReport("gate").to_dict()) == ["python", "records", "schema", "suite"]


@pytest.mark.parametrize("artifact, count", [("BENCH_serve.json", 148), ("BENCH_sim.json", 8)])
def test_committed_artifacts_hold_only_deterministic_records(artifact, count):
    document = json.loads((REPO_ROOT / artifact).read_text())
    assert "created_unix" not in document
    records = check_regression.load_records(document)
    assert len(records) == len(document["records"]) == count
    assert not [name for name, record in records.items() if "timed" in record]
    assert not DELETED_RECORDS & set(records)
