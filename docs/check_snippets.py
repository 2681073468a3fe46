"""Docs snippet gate: every ``python`` block in ``README.md`` and ``docs/*.md`` must run.

The guides promise that their code blocks work as-is; this script keeps the
promise mechanical.  It extracts every fenced ```python block from the README
and every markdown file under ``docs/``, compiles it, and executes it in a fresh
namespace with ``src/`` importable — so a renamed kwarg, a moved module or
a stale assertion in the prose fails CI instead of a reader.

Usage::

    python docs/check_snippets.py            # README.md and all docs/*.md
    python docs/check_snippets.py serving.md # one file

``tests/test_docs.py`` runs the same extraction in the tier-1 suite.
"""

from __future__ import annotations

import re
import sys
import time
from pathlib import Path

#: Repository root (``docs/`` lives directly under it).
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Fenced python code blocks: ```python ... ``` (non-greedy, multiline).
_FENCE = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def ensure_repro_importable() -> None:
    """Make ``src/`` importable when the checker runs as a plain script."""
    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def documents() -> list[Path]:
    """``README.md`` and every guide under ``docs/``."""
    return [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]


def extract_snippets(path: Path) -> list[tuple[str, str]]:
    """``(label, source)`` for every python block in one markdown file."""
    text = path.read_text()
    snippets = []
    for index, match in enumerate(_FENCE.finditer(text)):
        line = text[: match.start()].count("\n") + 2  # first code line
        snippets.append((f"{path.name}:{line} (block {index + 1})", match.group(1)))
    return snippets


def run_snippet(label: str, source: str) -> None:
    """Compile and execute one snippet in a fresh namespace."""
    code = compile(source, label, "exec")
    exec(code, {"__name__": f"docs_snippet_{abs(hash(label))}"})


def main(argv: list[str]) -> int:
    ensure_repro_importable()
    targets = [REPO_ROOT / "docs" / name for name in argv] if argv else documents()
    failures = 0
    total = 0
    for path in targets:
        for label, source in extract_snippets(path):
            total += 1
            start = time.perf_counter()
            try:
                run_snippet(label, source)
            except Exception as error:  # noqa: BLE001 - report and keep going
                failures += 1
                print(f"[docs] FAIL {label}: {type(error).__name__}: {error}")
            else:
                elapsed = time.perf_counter() - start
                print(f"[docs] ok   {label} ({elapsed:.2f}s)")
    if failures:
        print(f"[docs] {failures}/{total} snippet(s) failed")
        return 1
    print(f"[docs] all {total} snippet(s) ran cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
