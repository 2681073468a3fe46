"""``src/repro`` keeps only modules and public names that something other than a test uses.

A module is reached when a file under ``src/`` / ``examples/`` / ``benchmarks/`` or a
python block of ``docs/`` / ``README.md`` imports it, or it is guarded by ``__main__``.
A package ``__init__`` counts only for a re-exported *name* such a file imports from
it, and for a module that registers itself at import (a bare module-level call).

A public name — top-level function, class or assignment, non-underscore method — is
reached when the same files hold a ``Name`` / ``Attribute`` / ``from … import``
reference to it outside its own definition and outside a package ``__init__``'s
re-export.  References are matched by identifier, never by text: a docstring mention
is not a caller, any ``x.reset()`` is a caller of every ``reset``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Orphans kept on purpose.  Each is asserted to still be one, so the entry is
#: deleted the day the module gains a caller.
EXCEPTIONS = {
    "repro.fft.reference": (
        "slow reference of the transform tests and of the item "
        "'The paper's seven sets bootstrap', slice (a)"
    ),
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


def _outside_callers() -> list[ast.AST]:
    """Every file that is neither a test nor under ``src/``, parsed."""
    callers = []
    for folder in ("examples", "benchmarks"):
        callers += [ast.parse(path.read_text()) for path in (ROOT / folder).rglob("*.py")]
    for page in [ROOT / "README.md", *(ROOT / "docs").glob("*.md")]:
        callers += map(ast.parse, re.findall(r"```python\n(.*?)```", page.read_text(), flags=re.S))
    return callers


def _reached() -> set[str | None]:
    callers = list(MODULES.values()) + _outside_callers()
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


#: Public names only tests reference, kept because tests compare a fast path against
#: them (or, where the reason says so, because they are an entry point for input from
#: outside the program).  Each is asserted to still be test-only, so the entry is
#: deleted the day the name gains a caller.
REFERENCES = {
    "repro.apps.workloads.gate_workload_graph": "graph fixture of the scheduler and layout tests",
    "repro.apps.workloads.lut_pipeline_graph": "graph fixture of the scheduler and partition tests",
    "repro.apps.workloads.random_layered_graph": "seeded graph fixture of the property tests",
    "repro.fft.reference.naive_dft": "O(N^2) oracle of the transforms",
    "repro.fft.reference.naive_idft": "O(N^2) oracle of the transforms",
    "repro.fft.reference.naive_negacyclic_convolution": "exact oracle of every polynomial product",
    "repro.fft.reference.naive_negacyclic_rotation": "exact oracle of monomial_multiply",
    "repro.fft.registry.clear_transform_caches": "fixture: the cache-counter tests start from zero",
    "repro.runtime.backend.unregister_backend": "fixture: undoes register_backend after a test",
    "repro.serve.cluster.StrixCluster.batch_service_s": "closed form dispatch is compared to",
    "repro.tfhe.blind_rotate.blind_rotate_plaintext": "plaintext oracle of blind rotation",
    "repro.tfhe.decomposition.decompose_folded": "one-shot form compared to decompose",
    "repro.tfhe.decomposition.decomposition_error_bound": "bound the decomposition tests assert",
    "repro.tfhe.decomposition.recompose": "inverse the decomposition tests round-trip through",
    "repro.tfhe.context.TFHEContext.decrypt_boolean": "scalar oracle of decrypt_boolean_batch",
    "repro.tfhe.context.TFHEContext.encrypt_boolean": "scalar oracle of encrypt_boolean_batch",
    "repro.tfhe.gates.GateBootstrapper.mux": "scalar oracle of Session.gate_batch('mux')",
    "repro.tfhe.gates.GateBootstrapper.nor": "scalar oracle of Session.gate_batch('nor')",
    "repro.tfhe.gates.GateBootstrapper.not_": "scalar oracle of Session.gate_batch('not')",
    "repro.tfhe.gates.GateBootstrapper.xnor": "scalar oracle of Session.gate_batch('xnor')",
    "repro.tfhe.gates.GateBootstrapper.xor": "scalar oracle of Session.gate_batch('xor')",
    "repro.tfhe.serialization.lwe_batch_from_bytes": "outside-input parser, the one-datapath item",
    "repro.tfhe.torus.absolute_distance": "error metric of the noise tests",
}


def _references(tree: ast.AST, imports: bool = True) -> Counter:
    """How often each identifier is read, written or imported under ``tree``."""
    seen = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute):
            seen[node.attr] += 1
        elif imports and isinstance(node, ast.ImportFrom):
            seen.update(alias.name for alias in node.names)
    return seen


def _public_names(tree: ast.Module):
    """``(qualified name, identifier, defining node)`` per public name of a module."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, functions) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name, member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, target.id, node


def test_every_public_name_has_a_caller_that_is_not_a_test():
    used = Counter()
    for tree in [*MODULES.values(), *_outside_callers()]:
        used.update(_references(tree))
    for init in INITS.values():  # what an __init__ *does* counts, what it re-exports does not
        used.update(_references(init, imports=False))
    orphans = {
        f"{module}.{qualified}"
        for module, tree in MODULES.items()
        for qualified, identifier, node in _public_names(tree)
        if used[identifier] == _references(node)[identifier]
    }
    assert all(REFERENCES.values()), "every kept reference says why it is one"
    assert orphans == set(REFERENCES), (
        f"no caller outside tests/: {sorted(orphans - set(REFERENCES))}; "
        f"listed but called (delete the entry): {sorted(set(REFERENCES) - orphans)}"
    )
