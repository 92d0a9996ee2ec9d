"""Options ratchet: every defaulted parameter of a public top-level function
and every defaulted public field of a public dataclass in ``parisi_lab`` is
set by some call in ``src/`` or ``perfbench/``, by keyword or by position
(``cls(...)`` inside the class and ``dataclasses.replace`` count), or is
listed in ``ALLOWED`` with the reason it stays.  A value that no caller sets
is a constant: write it as one instead of listing it."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "parisi_lab"

ALLOWED = {
    "cli.main.argv": "command-line arguments: tests pass them, the console script reads sys.argv",
    "pde.simulate_control_value.paths": "tests size the Monte Carlo estimate of a control value",
    "pde.simulate_control_value.seed": "seed",
    "saddle.diagonal_outer.seed": "seed",
    "sk.superadditivity_experiment.constraint": "tests bound constrained free energies",
    "sk.superadditivity_experiment.space": "tests bound other spin spaces",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _owners():
    """Public top-level functions and public dataclasses: name -> (module,
    ordered parameter names, defaulted parameter names, is a dataclass)."""
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args]
                defaulted = names[len(names) - len(args.defaults):] if args.defaults else []
                defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                owners[node.name] = (path.stem, names + [a.arg for a in args.kwonlyargs], defaulted, False)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_") and _is_dataclass(node):
                fields = [
                    s for s in node.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                    and not s.target.id.startswith("_")
                ]
                names = [s.target.id for s in fields]
                defaulted = [s.target.id for s in fields if s.value is not None]
                owners[node.name] = (path.stem, names, defaulted, True)
    return owners


def _set_by_calls(owners) -> dict[str, set[str]]:
    """Owner name -> the parameters some call in src/ or perfbench/ sets.
    A ``*args`` or ``**kwargs`` expansion counts as setting every parameter
    it can reach."""
    setters = defaultdict(set)

    def record(owner, call):
        names = owners[owner][1]
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        setters[owner].update(names if starred else names[: len(call.args)])
        for kw in call.keywords:
            setters[owner].update(names if kw.arg is None else [kw.arg])

    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        tree = ast.parse(path.read_text())
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name in owners:
                for call in ast.walk(cls):
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "cls":
                        record(cls.name, call)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "replace":
                # dataclasses.replace(obj, field=...): obj's type is not known
                # here, so its keywords count for every dataclass.
                for owner, (_, names, _, is_dataclass) in owners.items():
                    if is_dataclass:
                        setters[owner].update(kw.arg for kw in call.keywords if kw.arg in names)
            elif name in owners:
                record(name, call)
    return setters


def _unset() -> set[str]:
    owners = _owners()
    setters = _set_by_calls(owners)
    return {
        f"{module}.{owner}.{param}"
        for owner, (module, _, defaulted, _) in owners.items()
        for param in defaulted
        if param not in setters[owner]
    }


def test_every_defaulted_option_has_a_caller_or_a_reason():
    unset = _unset()
    assert not unset - set(ALLOWED), "no caller sets it: make it a constant, or give a reason in ALLOWED"
    assert not set(ALLOWED) - unset, "now set by a caller, or gone: drop it from ALLOWED"
