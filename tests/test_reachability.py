"""``src/repro`` keeps only modules and public names that something other than a test uses.

``REFERENCES`` below is the one table of public names that no entry point of the program
runs.  ``tests/reach/run.py`` checks it by execution; this file checks it statically and
fast, by identifier: every module and public name that nothing outside ``tests/`` refers
to must be covered by an entry, and every entry must name a public name and say why.

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

#: The one table of public names that no entry point of the program runs, each with the
#: reason it is kept.  An entry is a module, a class or a function, and covers every public
#: function under it.  ``tests/reach/run.py`` runs every entry point under a tracer and
#: asserts that the public functions none of them entered are exactly what these entries
#: cover (an ``@abstractmethod`` needs no entry); the tests below are its static half.
REFERENCES = {
    # -- oracles: the slow definitions fast paths are compared against --------------------
    "repro.fft.reference": "O(N^2) and exact oracles of the transforms and polynomial products",
    "repro.serve.cluster.StrixCluster.batch_service_s": "closed form dispatch is compared to",
    "repro.tfhe.blind_rotate.blind_rotate_plaintext": "plaintext oracle of blind rotation",
    "repro.tfhe.decomposition.decompose_folded": "one-shot form compared to decompose",
    "repro.tfhe.decomposition.recompose": "inverse the decomposition tests round-trip through",
    "repro.tfhe.context.TFHEContext.decrypt_boolean": "scalar oracle of decrypt_boolean_batch",
    "repro.tfhe.context.TFHEContext.encrypt_boolean": "scalar oracle of encrypt_boolean_batch",
    "repro.tfhe.context.TFHEContext.encrypt": "scalar oracle of Session.encrypt_batch",
    "repro.tfhe.encoding.encode": "scalar oracle of the batch encoders",
    "repro.tfhe.encoding.encode_boolean": "scalar oracle of the batch encoders",
    "repro.tfhe.encoding.decode_boolean": "scalar oracle of the batch decoders",
    "repro.tfhe.gates.GateBootstrapper.andny": "scalar oracle of Session.gate_batch('andny')",
    "repro.tfhe.gates.GateBootstrapper.mux": "scalar oracle of Session.gate_batch('mux')",
    "repro.tfhe.gates.GateBootstrapper.nor": "scalar oracle of Session.gate_batch('nor')",
    "repro.tfhe.gates.GateBootstrapper.not_": "scalar oracle of Session.gate_batch('not')",
    "repro.tfhe.gates.GateBootstrapper.or_": "scalar oracle of Session.gate_batch('or')",
    "repro.tfhe.gates.GateBootstrapper.xnor": "scalar oracle of Session.gate_batch('xnor')",
    "repro.tfhe.gates.GateBootstrapper.xor": "scalar oracle of Session.gate_batch('xor')",
    "repro.tfhe.ggsw.GgswCiphertext": "scalar oracle of the bootstrapping key and its transform",
    "repro.tfhe.ggsw.cmux": "scalar oracle of the batch CMux",
    "repro.tfhe.ggsw.external_product": "scalar oracle of the batch external product",
    "repro.tfhe.glwe.GlweCiphertext.copy": "scalar GLWE helper of the kernel tests",
    "repro.tfhe.glwe.GlweCiphertext.encrypt": "scalar oracle of GLWE encryption",
    "repro.tfhe.glwe.GlweCiphertext.phase": "scalar oracle of the GLWE phase",
    "repro.tfhe.batch.types.GlweBatch": "GLWE stack the kernel tests build from scalar ciphertexts",
    "repro.tfhe.keys.LweSecretKey.encrypt": "scalar oracle of batch LWE encryption",
    "repro.tfhe.lwe.LweCiphertext.copy": "scalar LWE helper of the kernel tests",
    "repro.tfhe.lwe.LweCiphertext.encrypt": "scalar oracle of batch LWE encryption",
    "repro.tfhe.lwe.LweCiphertext.scalar_multiply": "scalar oracle of linear_combination",
    "repro.tfhe.polynomial.add": "scalar oracle of the polynomial tests",
    "repro.tfhe.polynomial.integer_multiply": "scalar oracle of the transform product",
    # -- fixtures, bounds and accessors the tests read -----------------------------------
    "repro.apps.workloads.gate_workload_graph": "graph fixture of the scheduler and layout tests",
    "repro.apps.workloads.lut_pipeline_graph": "graph fixture of the scheduler and partition tests",
    "repro.apps.workloads.random_layered_graph": "seeded graph fixture of the property tests",
    "repro.fft.registry.clear_transform_caches": "fixture: the cache-counter tests start from zero",
    "repro.obs.trace.Tracer.clear": "fixture: empties a tracer between runs",
    "repro.registry.Registry.unregister": "fixture: unregister_backend undoes register_backend",
    "repro.runtime.backend.unregister_backend": "fixture: undoes register_backend after a test",
    "repro.tfhe.decomposition.decomposition_error_bound": "bound the decomposition tests assert",
    "repro.tfhe.torus.absolute_distance": "error metric of the noise tests",
    "repro.params.TFHEParameters.bootstrapping_key_bytes": "Table IV key size the tests check",
    "repro.params.TFHEParameters.ggsw_ciphertext_bytes": "Table IV key size the tests check",
    "repro.params.TFHEParameters.glwe_ciphertext_bytes": "Table IV key size the tests check",
    "repro.arch.area_power.ChipCost.component": "Table III row lookup of the area tests",
    "repro.arch.hsc.PipelineTiming.utilization": "per-unit utilization of the HSC tests",
    "repro.net.client.NetClient.stats": "blocking scrape of the wire and metrics tests",
    "repro.obs.metrics.Gauge.inc": "gauge semantics the metric tests check",
    "repro.obs.metrics.Gauge.value": "gauge semantics the metric tests check",
    "repro.obs.metrics.Metric.samples": "interface every instrument overrides",
    "repro.obs.trace.Span.latency_s": "span latency the tracing tests read",
    "repro.sched.partition.StagePlan.stages": "stage count the partition tests read",
    "repro.sim.graph.ComputationGraph.node": "node lookup of the graph tests",
    # -- refusal-only: run when a peer sends what the protocol refuses --------------------
    "repro.net.protocol.ErrorReply.code_name": "refusal-only: names an ERROR reply's code",
    "repro.net.protocol.Frame.type_name": "refusal-only: names a refused frame's type",
    "repro.net.protocol.decode_error": "refusal-only: no entry point is sent an ERROR frame",
    "repro.net.protocol.encode_error": "refusal-only: no entry point sends an ERROR frame",
    "repro.tfhe.serialization.lwe_batch_from_bytes": "outside-input parser, the one-datapath item",
    # -- option values no pass selects yet, each kept for the ROADMAP item it names -------
    "repro.obs.trace.StageSpan.to_dict": (
        "option value: layout='pipeline' with tracing; kept for 'The benchmark PR', slice (g)"
    ),
    "repro.sched.layouts.ElasticLayout.runtime_stats": (
        "option value: layout='elastic' stats; kept for 'The benchmark PR', slice (g)"
    ),
    "repro.sched.memo.ScheduleCache.stage_cost": (
        "option value: layout='pipeline' priced by event; kept for 'Serving prices what the "
        "scheduler prices'"
    ),
    "repro.sched.memo.graph_signature": (
        "option value: layout='pipeline' priced by event; kept for 'Serving prices what the "
        "scheduler prices'"
    ),
    "repro.serve.queue.RequestQueue.oldest_for_tenant": (
        "option value: shed-oldest per tenant; kept for 'The benchmark PR', since the "
        "observatory's traced serve pass wraps it by name"
    ),
}


def covers(entry: str, name: str) -> bool:
    """Whether table entry ``entry`` (module, class or function) covers public name ``name``."""
    return name == entry or name.startswith(entry + ".")


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
    unlisted = orphans - set(REFERENCES)
    assert not unlisted, f"no caller outside tests/ and not in REFERENCES: {sorted(unlisted)}"


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


def public_functions(tree: ast.Module):
    """Qualified name of each public function of a module that can run (not abstract)."""
    for qualified, _, node in _public_names(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if "abstractmethod" not in " ".join(map(ast.unparse, node.decorator_list)):
                yield qualified


def test_every_table_entry_names_a_public_name_and_says_why():
    names = set(MODULES) | {
        f"{module}.{qualified}"
        for module, tree in MODULES.items()
        for qualified, _, _ in _public_names(tree)
    }
    assert not [entry for entry, why in REFERENCES.items() if not why.strip()], "no reason"
    assert set(REFERENCES) <= names, f"not a public name: {sorted(set(REFERENCES) - names)}"


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
    unlisted = {name for name in orphans if not any(covers(entry, name) for entry in REFERENCES)}
    assert not unlisted, f"no caller outside tests/ and not in REFERENCES: {sorted(unlisted)}"

