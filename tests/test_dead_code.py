"""Dead-code ratchet: every public top-level function or class of
``parisi_lab`` is referenced by name in ``src/`` or ``perfbench/`` outside
its own definition, is exported through ``__all__``, or is listed in
``ALLOWED`` with the reason it stays.  A helper that only its own tests call
is dead; delete it with its tests instead of listing it."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "parisi_lab"

ALLOWED = {
    "hopf_cole_segment": "alias of propagate_segment; perfbench instruments pde's import of it",
    "simulate_control_value": "independent route: control values that lower-bound the PDE",
    "stationarity_residual": "finite-difference check of the saddle solver's optimum",
    "diagonal_outer": "per-mode outer optimum, the general saddle solver's reference",
    "outer_maximize": "outer grid search of the sup-inf, tested against the closed form",
    "hamiltonian": "per-configuration reference for the enumeration's energy table",
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
    trees = {path: ast.parse(path.read_text()) for path in files}
    references = sum((_names(tree) for tree in trees.values()), Counter())
    exported = set()
    definitions = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                definitions.append(node)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= set(ast.literal_eval(node.value))
    return {
        node.name
        for node in definitions
        if node.name not in exported and references[node.name] <= _names(node)[node.name]
    }


def test_every_public_definition_has_a_caller_or_a_reason():
    unreferenced = _unreferenced()
    dead = unreferenced - set(ALLOWED)
    assert not dead, "no caller in src/ or perfbench/: delete it, or give a reason in ALLOWED"
    assert not set(ALLOWED) - unreferenced, "now has a caller: drop it from ALLOWED"
