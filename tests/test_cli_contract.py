"""The documented CLI contract: every command runs on a tiny config with exit
0, a rerun writes byte-identical files, and malformed configs exit 2."""

import json

import numpy as np
import pytest

from parisi_lab.cli import main, run_config
from parisi_lab.paths import DiscretePath, MonotoneChain, UnitPartition, path_to_json
from parisi_lab.seeds import derive_seed
from parisi_lab.sk import OverlapConstraint, SpinSpace, disorder_average

PATH = json.loads(
    path_to_json(
        DiscretePath(
            UnitPartition.from_interior([0.25, 0.6]),
            MonotoneChain([[[0.0]], [[0.3]], [[0.7]], [[1.0]]]),
        )
    )
)
RADEMACHER = {"kind": "rademacher"}


def _isotropic_path(d):
    """x = (0.5), Q = 0, I/2, I in dimension d."""
    chain = MonotoneChain([np.zeros((d, d)), 0.5 * np.eye(d), np.eye(d)])
    return json.loads(path_to_json(DiscretePath(UnitPartition.from_interior([0.5]), chain)))


# Three interior points: four Monte Carlo levels of 128 samples each.
DEEP_PATH = json.loads(
    path_to_json(
        DiscretePath(
            UnitPartition.from_interior([0.2, 0.5, 0.8]),
            MonotoneChain([[[0.0]], [[0.1]], [[0.3]], [[0.6]], [[1.0]]]),
        )
    )
)

TINY = {
    "eval": {"command": "eval", "beta": 0.5, "measure": RADEMACHER, "path": PATH},
    "pde": {"command": "pde", "beta": 0.5, "measure": RADEMACHER, "path": PATH, "spacing": 0.05},
    "rpc": {"command": "rpc", "weights": [0.25, 0.6], "branching": 8, "replicas": 32},
    "sk_average": {"command": "sk", "experiment": "average", "n_sites": 6, "replicas": 4},
    "sk_concentration": {"command": "sk", "experiment": "concentration", "n_sites": 8, "replicas": 200},
    # Below N = 8 the default thresholds stop where the replicas can still
    # resolve the bound.
    "sk_concentration_n6": {"command": "sk", "experiment": "concentration", "n_sites": 6,
                            "replicas": 200},
    "sk_superadditivity": {"command": "sk", "experiment": "superadditivity", "n_sites": 2,
                           "m_sites": 3, "replicas": 20},
    "gaussian": {"command": "gaussian", "c": 3.0, "u": 0.5, "beta": 1.0, "levels": 1},
    "saddle": {"command": "saddle", "beta": 0.5, "levels": 1, "u": [[1.0]], "restarts": 1,
               "max_evals": 30},
}


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("label", sorted(TINY))
def test_command_exits_zero_and_reruns_identically(label, tmp_path):
    config = dict(TINY[label], seed=11)
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_config(config, first, None, 1) == 0
    assert run_config(config, second, None, 1) == 0
    written = _files(first)
    assert "manifest.json" in written and len(written) >= 2
    assert written == _files(second)
    # Artifacts hold plain numbers, not numpy reprs such as np.float64(0.5).
    assert not [name for name, payload in written.items() if b"np." in payload]
    manifest = json.loads(written["manifest.json"])
    assert manifest["master_seed"] == 11
    assert manifest["artifacts"] == sorted(set(written) - {"manifest.json"})


def test_free_energy_csv_equals_disorder_average(tmp_path):
    run_config(dict(TINY["sk_average"], seed=11), tmp_path, None, 1)
    header, *rows = (tmp_path / "free_energy.csv").read_text().splitlines()
    assert header == "N,beta,seed,estimate,se"
    mean, se, vals = disorder_average(
        6, 1.0, OverlapConstraint.everything(), SpinSpace.ising(), 4, derive_seed(11, "sk-average")
    )
    assert np.array_equal([float(row.split(",")[3]) for row in rows[:-1]], vals)
    assert rows[-1] == f"6,1.0,mean,{mean!r},{se!r}"
    assert float(rows[-1].split(",")[3]) == mean


@pytest.mark.parametrize(
    "config, message",
    [
        ({"command": "teleport", "seed": 1}, "unknown command: 'teleport'"),
        ({"command": "rpc", "seed": 1, "weights": [0.5], "colour": "red"}, "unknown keys for rpc: colour"),
        ({"command": "rpc", "weights": [0.5]}, "missing key: seed"),
        ({"command": "sk", "seed": 1, "experiment": "magic"}, "unknown keys for sk: experiment='magic'"),
        ({"seed": 1}, "missing key: command"),
        ({"command": "gaussian", "seed": 1, "u": 0.5}, "missing key: c"),
        ({"command": "eval", "seed": 1, "measure": {"kind": "potts"}, "path": PATH},
         "unknown measure kind: 'potts'"),
        ({"command": "eval", "seed": 1, "measure": {"kind": "gaussian", "shift": [0.0]}, "path": PATH},
         "missing key in gaussian measure: precision"),
        ({"command": "eval", "seed": 1, "measure": {"kind": "discrete", "points": [[1.0]], "weights": [-1.0]},
          "path": PATH}, "invalid discrete measure: weights must be positive"),
        ({"command": "rpc", "seed": 1, "weights": [0.6, 0.25]},
         "invalid cascade: weights must be strictly increasing"),
        ({"command": "rpc", "seed": 1}, "missing key: weights"),
        ({"command": "saddle", "seed": 1, "measure": {"kind": "hypercube", "d": 2},
          "u": [[0.6, 0.2], [0.2, 0.5]], "restarts": 1, "max_evals": 5},
         "lies outside the convex hull"),
        ({"command": "sk", "experiment": "average", "n_sites": 30, "replicas": 2, "seed": 1},
         "states exceed the enumeration budget"),
        ({"command": "eval", "seed": 1, "measure": RADEMACHER, "path": DEEP_PATH, "engine": "monte_carlo"},
         "Monte Carlo points exceed the budget"),
        ({"command": "eval", "seed": 1, "measure": RADEMACHER, "path": PATH, "tilt": [[1, 2]]},
         "tilt must hold 1x1 = 1 entries, got 2"),
        ({"command": "eval", "seed": 1, "measure": RADEMACHER, "path": PATH, "beta": -0.5},
         "beta must be nonnegative"),
        ({"command": "eval", "seed": 1, "measure": RADEMACHER, "path": PATH, "engine": "bogus"},
         "unknown engine 'bogus'"),
        ({"command": "eval", "seed": 1, "measure": {"kind": "gaussian", "precision": [[1.0]], "shift": [0.0]},
          "path": PATH, "tilt": [[5.0]]}, "tilted Gaussian integral diverges"),
        ({"command": "eval", "seed": 1, "measure": {"kind": "hypercube", "d": 3}, "path": PATH},
         "path dimension 1 differs from the measure dimension 3"),
        ({"command": "pde", "seed": 1, "measure": {"kind": "hypercube", "d": 2}, "path": PATH},
         "path dimension 1 differs from the measure dimension 2"),
        ({"command": "eval", "seed": 1, "measure": {"kind": "hypercube", "d": 2}, "path": PATH,
          "tilt": [[0.0, 1.0], [2.0, 0.0]]}, "matrix is not symmetric"),
        ({"command": "eval", "seed": 1, "measure": {"kind": "hypercube", "d": 3}, "path": _isotropic_path(3)},
         "quadrature engine supports d <= 2, got d = 3"),
        ({"command": "pde", "seed": 1, "measure": {"kind": "hypercube", "d": 2}, "path": _isotropic_path(2)},
         "pde solves one-dimensional problems, got d = 2"),
        ({"command": "eval", "seed": 1, "measure": RADEMACHER, "path": {"x": PATH["x"], "U": PATH["U"]}},
         "missing key in path: Q"),
        ({"command": "eval", "seed": 1, "measure": RADEMACHER, "path": PATH, "tilt": "abc"},
         "tilt must be a 1x1 matrix of numbers"),
        ({"command": "eval", "seed": 1, "measure": RADEMACHER, "path": dict(PATH, x=[0.0, 0.6, 0.25, 1.0])},
         "invalid path: partition values must be strictly increasing"),
        ({"command": "eval", "seed": 1, "measure": RADEMACHER, "path": [0.25, 0.6]},
         "path must be an object with keys x, Q and U"),
        ({"command": "eval", "seed": 1, "measure": RADEMACHER, "path": PATH, "beta": "abc"},
         "beta must be a number, got 'abc'"),
        ({"command": "gaussian", "seed": 1, "c": "abc", "u": 0.5}, "c must be a number, got 'abc'"),
        ({"command": "sk", "seed": 1, "n_sites": "x"}, "n_sites must be a number, got 'x'"),
        ({"command": "pde", "seed": 1, "measure": RADEMACHER, "path": PATH, "spacing": "q"},
         "spacing must be a number, got 'q'"),
        ({"command": "gaussian", "seed": 1, "c": 3.0, "u": 0.5, "levels": "a"},
         "levels must be a number, got 'a'"),
        ({"command": "gaussian", "seed": 1, "c": 3.0, "u": 0.5, "levels": 0},
         "levels must be at least 1, got 0"),
        ({"command": "gaussian", "seed": 1, "c": 3.0, "u": -0.5}, "c and u must be positive"),
        ({"command": "gaussian", "seed": 1, "c": 0.0, "u": 0.5}, "c and u must be positive"),
        ({"command": "sk", "seed": 1, "n_sites": 4, "replicas": 1}, "replicas must be at least 2"),
        ({"command": "rpc", "seed": 1, "weights": [0.25, 0.6], "branching": 8, "replicas": 1},
         "replicas must be at least 2"),
        ({"command": "eval", "seed": 1, "measure": "x", "path": PATH},
         "measure must be an object with a key kind, got 'x'"),
        ({"command": "saddle", "seed": 1, "u": "abc"}, "u must be a 1x1 matrix of numbers"),
        ({"command": "saddle", "seed": 1, "u": [[1.0, 0.5]]}, "u must hold 1x1 = 1 entries, got 2"),
        ({"command": "sk", "seed": 1, "n_sites": 0, "replicas": 2}, "n_sites must be at least 1, got 0"),
        ({"command": "sk", "seed": 1, "n_sites": -2, "replicas": 2}, "n_sites must be at least 1, got -2"),
        ({"command": "sk", "seed": 1, "experiment": "superadditivity", "n_sites": 2, "m_sites": 0,
          "replicas": 2}, "m_sites must be at least 1, got 0"),
        ({"command": "saddle", "seed": 1, "levels": -1}, "levels must be at least 0, got -1"),
        ({"command": "saddle", "seed": 1, "restarts": 0}, "restarts must be at least 1, got 0"),
        ({"command": "saddle", "seed": 1, "max_evals": 0}, "max_evals must be at least 1, got 0"),
        ({"command": "rpc", "seed": 1, "weights": {"a": 1}}, "invalid cascade: "),
        ({"command": "gaussian", "seed": 1, "c": 3.0, "u": 0.5, "beta": -1},
         "beta must be nonnegative, got -1.0"),
        ({"command": "saddle", "seed": 1, "beta": -1}, "beta must be nonnegative, got -1.0"),
        ({"command": "pde", "seed": 1, "measure": RADEMACHER, "path": PATH, "spacing": 0},
         "invalid pde problem: spacing must be positive, got 0.0"),
        ({"command": "pde", "seed": 1, "measure": RADEMACHER, "path": PATH, "spacing": -0.1},
         "invalid pde problem: spacing must be positive, got -0.1"),
        ({"command": "gaussian", "seed": 1, "c": 3.0, "u": 0.5, "h": "nan"},
         "h must be a finite number, got 'nan'"),
        ({"command": "saddle", "seed": 1, "measure": {"kind": "hypercube", "d": 0}},
         "d must be at least 1, got 0"),
        ({"command": "rpc", "seed": 1, "weights": [0.2, 0.5], "branching": 100000, "replicas": 2},
         "10000000000 cascade leaves exceed the budget of 16777216"),
        ({"command": "rpc", "seed": 1, "weights": [float("nan")]},
         "invalid cascade: weights must be strictly increasing"),
        ({"command": "eval", "seed": 1, "measure": RADEMACHER, "path": PATH, "tilt": [[float("inf")]]},
         "tilt must hold finite numbers"),
        ({"command": "sk", "seed": 1, "n_sites": float("inf")}, "n_sites must be a number, got inf"),
        ({"command": "pde", "seed": 1, "measure": RADEMACHER, "path": PATH, "spacing": 1e-4},
         "grid points exceeds the budget of 16777216 cells"),
        ({"command": "sk", "seed": 1, "beta": -1}, "beta must be nonnegative, got -1.0"),
        ({"command": "eval", "seed": 1, "measure": {"kind": "discrete", "points": "ab", "weights": [1.0]},
          "path": PATH}, "invalid discrete measure: could not convert string to float"),
        ({"command": "rpc", "seed": 1.5, "weights": [0.5]}, "seed must be an integer, got 1.5"),
    ],
)
def test_bad_config_exits_two(config, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert err.count("\n") == 1


def test_unreadable_config_exits_two(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
