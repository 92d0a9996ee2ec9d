import json

import numpy as np

from parisi_lab import acceptance, recursion
from parisi_lab.cli import _jsonable, run_config
from parisi_lab.measures import AprioriMeasure, EvalConfig, TerminalCondition
from parisi_lab.paths import DiscretePath, MonotoneChain, UnitPartition, path_to_json
from parisi_lab.seeds import derive_seed


def test_jsonable_converts_numpy_scalars_and_arrays():
    details = {
        "passed": np.bool_(True),
        "error": np.float64(1.5e-7),
        "count": np.int64(3),
        "grid": np.array([0.25, 0.5]),
        "nested": [np.bool_(False), (np.float64(2.0), np.arange(2))],
    }
    out = json.loads(json.dumps(_jsonable(details)))
    assert out == {
        "passed": True,
        "error": 1.5e-7,
        "count": 3,
        "grid": [0.25, 0.5],
        "nested": [False, [2.0, [0, 1]]],
    }
    assert type(out["passed"]) is bool


def test_eval_runs_the_recursion_once(tmp_path, monkeypatch):
    path = DiscretePath(
        UnitPartition.from_interior([0.25, 0.6]),
        MonotoneChain([[[0.0]], [[0.3]], [[0.7]], [[1.0]]]),
    )
    config = {
        "command": "eval",
        "seed": 7,
        "beta": 0.5,
        "measure": {"kind": "rademacher"},
        "path": json.loads(path_to_json(path)),
    }
    calls = []
    original = recursion.recursion_from_levels

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(recursion, "recursion_from_levels", counted)
    assert run_config(config, tmp_path, None, 1) == 0
    assert len(calls) == 1
    monkeypatch.undo()

    rows = [json.loads(line) for line in (tmp_path / "evaluations.jsonl").read_text().splitlines()]
    assert [r["op"] for r in rows] == ["recursion_value", "local_functional"]
    tc = TerminalCondition(0.5, np.zeros((1, 1)), AprioriMeasure.rademacher())
    cfg = EvalConfig(seed=derive_seed(7, "eval"))
    expected = recursion.local_functional(path.partition, path.chain, tc, cfg)
    assert rows[1]["value"] == expected.value
    assert rows[0]["value"] == recursion.recursion_value(path.partition, path.chain, tc, cfg).value


def test_verify_all_writes_its_artifacts(tmp_path, monkeypatch):
    # Several checks report numpy bools, in "passed" and in their details.
    def numpy_typed(seed):
        details = {"within": np.bool_(True), "error": np.float64(1e-9)}
        return acceptance.CheckResult("numpy typed", np.bool_(True), 0.0, details)

    monkeypatch.setattr(acceptance, "ALL_CHECKS", [acceptance.check_pde_vs_recursion, numpy_typed])
    assert run_config({"command": "verify-all"}, tmp_path, None, 1) == 0
    rows = json.loads((tmp_path / "acceptance.json").read_text())
    assert [r["passed"] for r in rows] == [True, True]
    assert rows[1]["details"] == {"within": True, "error": 1e-9}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["artifacts"] == ["acceptance.json", "acceptance.txt"]


def test_verify_all_runs_real_checks(tmp_path, monkeypatch):
    checks = [
        acceptance.check_gaussian_closed_forms,
        acceptance.check_pde_vs_recursion,
        acceptance.check_cascade_identities,
    ]
    monkeypatch.setattr(acceptance, "ALL_CHECKS", checks)
    assert run_config({"command": "verify-all"}, tmp_path, None, 1) == 0
    rows = json.loads((tmp_path / "acceptance.json").read_text())
    assert [r["name"] for r in rows] == [
        "1 gaussian closed forms",
        "4 recursion vs pde",
        "5 cascade identities",
    ]
    for row, check in zip(rows, checks):
        direct = check(acceptance.DEFAULT_MASTER_SEED)
        assert row["passed"] is True
        assert row["details"] == json.loads(json.dumps(_jsonable(direct.details)))


def test_checks_6_and_10_pass_at_the_default_seed():
    representation = acceptance.check_cascade_representation(acceptance.DEFAULT_MASTER_SEED)
    convexity = acceptance.check_convexity_monotonicity(acceptance.DEFAULT_MASTER_SEED)
    assert representation.passed and convexity.passed
    # Check 10's convexity margin is strict: above three times its refinement error.
    assert convexity.details["convexity_margin"] > 3.0 * convexity.details["convexity_err"] > 0.0


def test_verify_all_is_reproducible_and_records_its_seed(tmp_path, monkeypatch):
    seen = []

    def stub(seed):
        seen.append(seed)
        # A runtime that differs on every call must not reach the artifacts.
        return acceptance.CheckResult("stub", True, float(len(seen)), {"seed": seed})

    monkeypatch.setattr(acceptance, "ALL_CHECKS", [stub])
    runs = [
        ("first", {"command": "verify-all"}, None, 1),
        ("second", {"command": "verify-all"}, None, 2),
        ("zero", {"command": "verify-all", "seed": 0}, None, 1),
        ("override", {"command": "verify-all", "seed": 0}, 5, 1),
    ]
    for name, config, override, workers in runs:
        assert run_config(config, tmp_path / name, override, workers) == 0
    assert seen == [acceptance.DEFAULT_MASTER_SEED, acceptance.DEFAULT_MASTER_SEED, 0, 5]

    def files(name):
        return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

    assert files("first") == files("second")
    assert files("first")["acceptance.txt"] == b"[PASS] stub\n"
    for name, *_ in runs:
        manifest = json.loads(files(name)["manifest.json"])
        details = json.loads(files(name)["acceptance.json"])[0]["details"]
        assert manifest["master_seed"] == details["seed"]
