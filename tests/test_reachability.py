"""``src/repro`` keeps only modules that something other than a test imports.

Reached: imported by a file under ``src/`` / ``examples/`` / ``benchmarks/`` or a
python block of ``docs/`` / ``README.md``, or guarded by ``__main__``.  A package
``__init__`` counts only for a re-exported *name* such a file imports from it, and
for a module that registers itself at import (a bare module-level call).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Orphans kept on purpose.  Each is asserted to still be one, so the entry is
#: deleted the day the module gains a caller.
EXCEPTIONS = {
    "repro.tfhe.noise": "ROADMAP item 3 gives it its job or shrinks it",
    "repro.fft.reference": "slow reference of the transform tests and of ROADMAP item 3(b)",
}


def _name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


SOURCES = {path: ast.parse(path.read_text()) for path in SRC.rglob("*.py")}
INITS = {_name(path): tree for path, tree in SOURCES.items() if path.name == "__init__.py"}
MODULES = {_name(path): tree for path, tree in SOURCES.items() if path.name != "__init__.py"}


def _imports(tree: ast.AST):
    """``(module, name)`` per imported name; ``name`` is None for ``import module``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from ((node.module, alias.name) for alias in node.names)


def _resolve(module: str, name: str | None) -> str | None:
    """The module under ``src/repro`` that ``from module import name`` reaches."""
    if module in MODULES:
        return module
    if name is None or module not in INITS or f"{module}.{name}" in INITS:
        return None
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    for source, exported in _imports(INITS[module]):
        if exported == name:
            return _resolve(source, name)
    return None


def _reached() -> set[str | None]:
    callers = list(MODULES.values())
    for folder in ("examples", "benchmarks"):
        callers += [ast.parse(path.read_text()) for path in (ROOT / folder).rglob("*.py")]
    for page in [ROOT / "README.md", *(ROOT / "docs").glob("*.md")]:
        callers += map(ast.parse, re.findall(r"```python\n(.*?)```", page.read_text(), flags=re.S))
    reached = {_resolve(*imported) for tree in callers for imported in _imports(tree)}
    for name, tree in MODULES.items():
        if any(isinstance(n, ast.If) and "__main__" in ast.dump(n.test) for n in tree.body):
            reached.add(name)
    for init in INITS.values():
        for target in {_resolve(*imported) for imported in _imports(init)} - {None}:
            body = MODULES[target].body
            if any(isinstance(n, ast.Expr) and isinstance(n.value, ast.Call) for n in body):
                reached.add(target)
    return reached


def test_every_module_has_a_caller_that_is_not_a_test():
    orphans = set(MODULES) - _reached()
    assert orphans == set(EXCEPTIONS), (
        f"no caller outside tests/: {sorted(orphans - set(EXCEPTIONS))}; "
        f"excepted but reached (delete the entry): {sorted(set(EXCEPTIONS) - orphans)}"
    )
