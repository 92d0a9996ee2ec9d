"""Dead-code ratchet: every public top-level function or class of
``parisi_lab``, and every public method or property of a public class, is
referenced by name in ``src/`` or ``perfbench/`` outside its own
definition, or is listed in ``ALLOWED`` with the reason it stays.  Methods
are listed as ``Class.method``; a method counts as referenced wherever its
name is, whatever the owner.
The package ``__init__.py`` does not count as a caller: its imports and its
``__all__`` strings re-export a name without using it.  A helper that only
its own tests call is dead; delete it with its tests instead of listing
it."""

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
    "AprioriMeasure.to_json_dict": "inverse of from_json_dict, which reads CLI measures; tests round-trip it",
    "SpinSpace.from_measure": "spin space of a discrete measure; tests enumerate hypercube spins with it",
    "OverlapConstraint.ball": "overlap-ball constraint; tests bound constrained free energies with it",
    "PdeSolution.feedback": "optimal control of the verification argument, fed to simulate_control_value",
}


def _names(tree) -> Counter:
    """Identifiers a subtree refers to: names, attributes, imported names and
    whole-identifier strings (perfbench looks entry points up by string)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
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
            definitions[node.name] = node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        definitions[f"{node.name}.{method.name}"] = method
    return {
        key for key, node in definitions.items() if references[node.name] <= _names(node)[node.name]
    }


def test_every_public_definition_has_a_caller_or_a_reason():
    unreferenced = _unreferenced()
    dead = unreferenced - set(ALLOWED)
    assert not dead, "no caller in src/ or perfbench/: delete it, or give a reason in ALLOWED"
    assert not set(ALLOWED) - unreferenced, "now has a caller: drop it from ALLOWED"
