"""Dead-code ratchet: every public top-level function or class of
``parisi_lab``, and every public method or property of a public class, is
referenced by name in ``src/`` or ``perfbench/`` outside its own
definition, or is listed in ``ALLOWED`` with the reason it stays.  A
top-level name counts as referenced by its bare name, an import, a string or
``<module>.<name>``; an attribute of any other object with the same name
(``RsSolution.overlap`` for ``sk.overlap``) does not.  Methods are listed as
``Class.method``; a method counts as referenced wherever its name is, as a
bare name or as an attribute, whatever the owner.
The package ``__init__.py`` does not count as a caller: its imports and its
``__all__`` strings re-export a name without using it.  A helper that only
its own tests call is dead; delete it with its tests instead of listing
it.

A second ratchet covers imports: every name a module imports is loaded in
that module, except the few that only the benchmark's tracer looks up
there."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "parisi_lab"

ALLOWED = {
    "simulate_control_value": "independent route: control values that lower-bound the PDE",
    "diagonal_outer": "per-mode outer optimum, the general saddle solver's reference",
    "outer_maximize": "outer search of the sup-inf, tested against the closed form",
    "hamiltonian": "per-configuration reference for the enumeration's energy table",
    "overlap": "per-configuration overlap matrix, the reference test_variance_identity uses",
    "AprioriMeasure.to_json_dict": "inverse of from_json_dict, which reads CLI measures; tests round-trip it",
    "OverlapConstraint.ball": "overlap-ball constraint; tests bound constrained free energies with it",
    "PdeSolution.feedback": "optimal control of the verification argument, fed to simulate_control_value",
}


def _names(tree) -> Counter:
    """References a subtree makes: loaded names, imported names and
    whole-identifier strings (perfbench looks entry points up by string)
    under the name itself; an attribute ``owner.attr`` under ``.attr``, and
    under ``owner.attr`` too when the owner is a bare name.  A stored name,
    such as a dataclass field, refers to nothing."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found["." + node.attr] += 1
            if isinstance(node.value, ast.Name):
                found[f"{node.value.id}.{node.attr}"] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found[node.value] += 1
    return found


def _unreferenced() -> set[str]:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files if path.name != "__init__.py"}
    references = sum((_names(tree) for tree in trees.values()), Counter())
    definitions = {}
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # A top-level name by itself or through its module; a method by
            # itself or as an attribute of anything.
            definitions[node.name] = (node, (node.name, f"{path.stem}.{node.name}"))
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        definitions[f"{node.name}.{method.name}"] = (method, (method.name, "." + method.name))
    return {
        key
        for key, (node, keys) in definitions.items()
        if sum(references[k] for k in keys) <= sum(_names(node)[k] for k in keys)
    }


def test_every_public_definition_has_a_caller_or_a_reason():
    unreferenced = _unreferenced()
    dead = unreferenced - set(ALLOWED)
    assert not dead, "no caller in src/ or perfbench/: delete it, or give a reason in ALLOWED"
    assert not set(ALLOWED) - unreferenced, "now has a caller: drop it from ALLOWED"


# Names imported into a module that no code there loads.  perfbench/spans.py
# wraps an entry point in every namespace that holds it, so each must stay
# importable from the module named.
BENCHMARK_IMPORTS = {
    "cli.local_functional": "spans.install target recursion.local_functional, looked up in cli",
    "pde.propagate_segment": "spans.install target recursion.propagate, looked up in pde",
    "saddle.eigh_jacobi": "spans.install target matrices.eigh_jacobi, looked up in saddle",
    "saddle.local_functional": "spans.install target saddle.local_functional",
}


def _unused_imports() -> set[str]:
    """``module.name`` for every name a package module (``__init__.py``
    aside) binds by an import and never loads."""
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.add(f"{path.stem}.{bound}")
    return unused


def test_every_import_is_loaded_or_serves_the_benchmark():
    assert _unused_imports() == set(BENCHMARK_IMPORTS)
