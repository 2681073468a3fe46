"""Run every entry point of the program under a tracer, then check what none of them ran.

    python tests/reach/run.py    # trace every entry point (≈ 3 min), then check

Each entry point runs as a subprocess with this directory (whose ``sitecustomize`` records
every code object a process enters) and ``src`` on ``PYTHONPATH``.  A public function of
``src/repro`` (top-level function or non-underscore method of a top-level class, the names
``tests/test_reachability.py`` enumerates, less ``@abstractmethod`` s) is *run* when a record
maps to it.  The check holds when the unrun functions are exactly what ``REFERENCES`` lists:

* every unrun public function is covered by an entry — the entry names it, its class or its
  module — and every entry says why it is kept;
* no entry covers a public function that an entry point ran, and every entry covers at least
  one public function: such an entry is deleted.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE.parent))

from test_reachability import MODULES, REFERENCES, covers, public_functions  # noqa: E402

OBSERVATORY_WORKLOADS = (
    "pbs-set-I-batch64",
    "pbs-small-single",
    "serve-sim-analytical",
    "serve-sim-event",
    "wire-open-loop",
)


def entry_points(out: Path) -> list[list[str]]:
    """Every command a user or CI runs, each writing what it produces under ``out``."""
    python, netload = sys.executable, [sys.executable, "-m", "repro.apps.netload"]
    return [
        *([python, str(path)] for path in sorted((ROOT / "examples").glob("*.py"))),
        [python, "docs/check_snippets.py"],
        [*netload, "--smoke"],
        [*netload, "--smoke", "--json", "--trace-out", str(out / "spans.jsonl"),
         "--chrome-out", str(out / "trace.json")],
        [*netload, "--mode", "live", "--duration", "0.5", "--rate", "500"],
        [python, "benchmarks/bench_reference.py"],
        [python, "benchmarks/bench_serve.py", "--output", str(out / "BENCH_serve.json")],
        [python, "benchmarks/bench_simulator.py", "--output", str(out / "BENCH_sim.json")],
        *([python, "benchmarks/observatory/run.py", "--workload", name, "--seconds", "1",
           "--trace", "1"] for name in OBSERVATORY_WORKLOADS),
    ]  # fmt: skip


def trace(records: Path) -> None:
    """Run every entry point with the recorder on; exits on the first that fails."""
    path = os.pathsep.join([str(HERE), str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path.rstrip(os.pathsep), "REACH_OUT": str(records)}
    with tempfile.TemporaryDirectory() as out:
        for command in entry_points(Path(out)):
            start = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
            shown = " ".join(Path(part).name if os.sep in part else part for part in command[1:])
            print(f"{time.perf_counter() - start:7.1f} s  {shown}", flush=True)
            if done.returncode:
                output = f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
                sys.exit(f"{shown} exited with code {done.returncode}:\n{output}")


def function_lines(tree: ast.Module) -> dict[int, str]:
    """The qualified name of each function of a module, keyed by its code's first line.

    A decorated function's code object starts at its first decorator, not at ``def``.
    """
    lines = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    lines[first] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return lines


def entered(records: Path, src: Path, modules: dict[str, ast.Module]) -> set[str]:
    """``module.qualified name`` of every function a record under ``records`` entered."""
    names = {module: function_lines(tree) for module, tree in modules.items()}
    found = set()
    for record in records.glob("*.txt"):
        for line in record.read_text().splitlines():
            filename, first = line.rsplit(":", 1)
            module = ".".join(Path(filename).relative_to(src).with_suffix("").parts)
            if int(first) in names.get(module, {}):
                found.add(f"{module}.{names[module][int(first)]}")
    return found


def check(ran: set[str], modules=MODULES, references=REFERENCES) -> list[str]:
    """What is wrong with ``references`` given the functions that ran; empty when it holds."""
    functions = {
        f"{module}.{name}" for module, tree in modules.items() for name in public_functions(tree)
    }
    unrun = functions - ran
    problems = [f"no reason given: {name}" for name, why in references.items() if not why.strip()]
    problems += [
        f"no entry point runs it and REFERENCES does not list it: {name}"
        for name in sorted(unrun)
        if not any(covers(entry, name) for entry in references)
    ]
    problems += [
        f"listed but an entry point runs {name} (delete the entry {entry})"
        for entry in sorted(references)
        for name in sorted(ran & functions)
        if covers(entry, name)
    ]
    problems += [
        f"listed but covers no public function: {entry}"
        for entry in sorted(references)
        if not any(covers(entry, name) for name in functions)
    ]
    return problems


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        records = Path(scratch).resolve()
        trace(records)
        problems = check(entered(records, SRC, MODULES))
    print(f"{time.perf_counter() - start:7.1f} s  in all")
    print("\n".join(problems) or f"REFERENCES ({len(REFERENCES)} entries) is what nothing runs")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
