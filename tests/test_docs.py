"""Tier-1 enforcement of the docs contract: every guide snippet runs.

``README.md`` and the ``docs/*.md`` guides promise runnable code blocks; CI additionally
executes ``docs/check_snippets.py``, but having the same check in the test
suite means a doc-breaking rename fails `pytest` locally before it ever
reaches CI.  Each snippet runs in a fresh namespace, parametrized by file
and block; the test id carries no line number, so editing prose above a
snippet does not rename its test (the traceback still says ``file:line``).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"
sys.path.insert(0, str(DOCS))

from check_snippets import documents, extract_snippets, run_snippet  # noqa: E402

SNIPPETS = [snippet for path in documents() for snippet in extract_snippets(path)]


def test_docs_exist_and_carry_snippets():
    names = {path.name for path in DOCS.glob("*.md")}
    assert {
        "serving.md",
        "cost_models.md",
        "key_memory.md",
        "performance.md",
        "networking.md",
        "resilience.md",
    } <= names
    assert len(SNIPPETS) >= 17


@pytest.mark.parametrize(
    "label, source",
    SNIPPETS,
    ids=[re.sub(r":\d+ ", " ", label) for label, _ in SNIPPETS],
)
def test_docs_snippet_runs(label, source):
    run_snippet(label, source)


def test_readme_record_counts_match_the_artifacts():
    """The record counts README.md states are the artifacts' own, so they cannot drift."""
    readme = (ROOT / "README.md").read_text()
    pattern = r"`BENCH_serve\.json`\s+\((\d+) records\) and `BENCH_sim\.json` \((\d+)\)"
    stated = re.search(pattern, readme)
    assert stated, "README.md no longer states the two artifacts' record counts"
    for name, count in zip(("BENCH_serve.json", "BENCH_sim.json"), stated.groups()):
        records = json.loads((ROOT / name).read_text())["records"]
        assert int(count) == len(records), f"README.md: {name} ({count}), holds {len(records)}"
