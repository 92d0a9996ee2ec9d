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

A field ratchet covers data: every public field of a public dataclass is
read somewhere in ``src/`` or ``perfbench/``, or is listed in ``ALLOWED``
as ``Class.field`` with the reason it stays.  A field counts as read
wherever an attribute of its name is loaded, whatever the owner, as a
method does; a value that is only stored is dead.

A last ratchet covers imports: every name a module imports is loaded in
that module, except the few that only the benchmark's tracer looks up
there."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "parisi_lab"

ALLOWED = {
    "simulate_control_value": "independent route: control values that lower-bound the PDE",
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


def _trees() -> dict:
    """Syntax tree of every module in ``src/`` and ``perfbench/`` but the
    package ``__init__.py``, by path."""
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text()) for path in files if path.name != "__init__.py"}


def _unreferenced() -> set[str]:
    trees = _trees()
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
    assert not set(ALLOWED) - unreferenced - _unread_fields(), "now has a caller or reader: drop it from ALLOWED"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(target, ast.Name) and target.id == "dataclass"
        for target in (dec.func if isinstance(dec, ast.Call) else dec for dec in node.decorator_list)
    )


def _unread_fields() -> set[str]:
    """``Class.field`` for every public field of a public dataclass in the
    package that no code in ``src/`` or ``perfbench/`` reads.  A field is
    read wherever an attribute of its name is loaded, whatever the owner; a
    bare name, a keyword or a string does not count."""
    trees = _trees()
    loaded = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {
        f"{cls.name}.{stmt.target.id}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_") and _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and not stmt.target.id.startswith("_") and stmt.target.id not in loaded
    }


def test_every_public_field_is_read_or_has_a_reason():
    unread = _unread_fields() - set(ALLOWED)
    assert not unread, f"nothing reads {sorted(unread)}: delete the field, or give a reason in ALLOWED"


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
