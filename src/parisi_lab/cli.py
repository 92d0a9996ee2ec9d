"""Batch front door: JSON config in, CSV/JSON artifacts plus a manifest out.

Exit codes: 0 success, 1 assertion/check failure, 2 configuration error,
including a config whose work exceeds an engine's budget (``sk.BudgetError``,
raised by the enumeration, Monte Carlo, cascade and PDE engines) and a PDE
whose solve does not converge (``pde.PdeError``).
Manifests contain the config hash, derived seeds and artifact list but no
timestamps, so rerunning the same config and seed writes byte-identical
output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from parisi_lab import __version__, acceptance, gaussian
from parisi_lab.matrices import MatrixError
from parisi_lab.measures import AprioriMeasure, EvalConfig, MeasureError, TerminalCondition
from parisi_lab.paths import DiscretePath, PathError, path_from_json, path_to_json
from parisi_lab.pde import PdeError, PdeProblem, solve_parisi_pde
# local_functional is no longer called here.  It stays in this namespace
# because perfbench/spans.py instruments cli.local_functional.
from parisi_lab.recursion import (  # noqa: F401
    evaluation_record,
    functional_from_recursion,
    local_functional,
    recursion_value,
)
from parisi_lab.saddle import SaddleProblem, SelfOverlapError, inner_minimize
from parisi_lab.seeds import derive_seed
from parisi_lab.sk import (
    BudgetError,
    OverlapConstraint,
    concentration_experiment,
    disorder_average,
    superadditivity_experiment,
)
from parisi_lab.cascades import CascadeSpec, overlap_distribution_check, pair_sum_check


class ConfigError(ValueError):
    pass


def _required(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"missing key: {key}")
    return config[key]


def _number(key: str, value, kind=float):
    """The value of config key ``key`` as a finite ``kind`` (float or int).
    An int is never truncated from a float with a fractional part, and a
    JSON boolean is not a number."""
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc
    if kind is float and not np.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if kind is int and isinstance(value, float) and number != value:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return number


def _beta(config: dict) -> float:
    """The config value beta (default 1), at least 0."""
    beta = _number("beta", config.get("beta", 1.0))
    if beta < 0.0:
        raise ConfigError(f"beta must be nonnegative, got {beta!r}")
    return beta


def _count(config: dict, key: str, default: int, least: int) -> int:
    """The integer config value ``key``, at least ``least``."""
    value = _number(key, config.get(key, default), int)
    if value < least:
        raise ConfigError(f"{key} must be at least {least}, got {value}")
    return value


def _refuse_booleans(key: str, value) -> None:
    """Raise if an array under config key ``key`` or its nested keys holds a
    JSON boolean, which numpy reads as 0 or 1; path.allow_equal is no array."""
    if isinstance(value, dict):
        for name, item in value.items():
            _refuse_booleans(f"{key}.{name}" if key else name, item)
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, bool):
                raise ConfigError(f"{key} must hold numbers, got {item!r}")
            _refuse_booleans(key, item)


def _matrix(key: str, value, d: int) -> np.ndarray:
    """The value of config key ``key`` as a d x d matrix of floats."""
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a {d}x{d} matrix of numbers") from exc
    if m.size != d * d:
        raise ConfigError(f"{key} must hold {d}x{d} = {d * d} entries, got {m.size}")
    if not np.all(np.isfinite(m)):
        raise ConfigError(f"{key} must hold finite numbers")
    return m.reshape(d, d)


def _measure_from(config: dict) -> AprioriMeasure:
    spec = config.get("measure", {"kind": "rademacher"})
    if not isinstance(spec, dict):
        raise ConfigError(f"measure must be an object with a key kind, got {spec!r}")
    kind = spec.get("kind")
    if kind == "rademacher":
        return AprioriMeasure.rademacher()
    if kind == "hypercube":
        return AprioriMeasure.hypercube(_count(spec, "d", 1, 1))
    if kind not in ("discrete", "gaussian"):
        raise ConfigError(f"unknown measure kind: {kind!r}")
    try:
        return AprioriMeasure.from_json_dict(spec)
    except KeyError as exc:
        raise ConfigError(f"missing key in {kind} measure: {exc.args[0]}") from exc
    except (TypeError, ValueError) as exc:  # MeasureError, MatrixError, or entries not numbers
        raise ConfigError(f"invalid {kind} measure: {exc}") from exc


def _path_from(config: dict, mu: AprioriMeasure) -> DiscretePath:
    try:
        path = path_from_json(json.dumps(_required(config, "path")))
    except KeyError as exc:
        raise ConfigError(f"missing key in path: {exc.args[0]}") from exc
    except TypeError as exc:
        raise ConfigError("path must be an object with keys x, Q and U") from exc
    except PathError as exc:
        raise ConfigError(f"invalid path: {exc}") from exc
    if path.dim != mu.dim:
        raise ConfigError(f"path dimension {path.dim} differs from the measure dimension {mu.dim}")
    return path


def _terminal_from(config: dict, mu: AprioriMeasure) -> TerminalCondition:
    d = mu.dim
    tilt = _matrix("tilt", config.get("tilt", np.zeros((d, d))), d)
    try:
        tc = TerminalCondition(_beta(config), tilt, mu)
        # g at the origin raises if the tilted Gaussian integral diverges
        # (precision - 2 tilt not positive definite), before any evaluation.
        tc(np.zeros(d))
    except (MeasureError, MatrixError) as exc:
        raise ConfigError(f"invalid terminal condition: {exc}") from exc
    return tc


def _quadrature_dim(mu: AprioriMeasure) -> None:
    """Refuse a measure of d > 2, which the quadrature engine cannot grid."""
    if mu.dim > 2:
        raise ConfigError(f"quadrature engine supports d <= 2, got d = {mu.dim}; eval's monte_carlo runs any d")


# Each handler takes (config, master seed, workers) and returns
# (artifacts by file name, exit status).


def _run_eval(config: dict, master: int, workers: int):
    mu = _measure_from(config)
    tc = _terminal_from(config, mu)
    path = _path_from(config, mu)
    try:
        cfg = EvalConfig(engine=config.get("engine", "quadrature"), seed=derive_seed(master, "eval"))
    except MeasureError as exc:
        raise ConfigError(f"invalid eval config: {exc}") from exc
    if cfg.engine == "quadrature":
        _quadrature_dim(mu)
    rec = recursion_value(path.partition, path.chain, tc, cfg)
    loc = functional_from_recursion(path.partition, path.chain, tc, rec)
    lines = [
        evaluation_record("recursion_value", {"path": path_to_json(path)}, rec, cfg.seed),
        evaluation_record("local_functional", {"path": path_to_json(path)}, loc, cfg.seed),
    ]
    return {"evaluations.jsonl": "\n".join(lines) + "\n"}, 0


def _run_pde(config: dict, master: int, workers: int):
    mu = _measure_from(config)
    tc = _terminal_from(config, mu)
    path = _path_from(config, mu)
    if mu.dim != 1:
        raise ConfigError(f"pde solves one-dimensional problems, got d = {mu.dim}")
    spacing = _number("spacing", config.get("spacing", 0.01))
    try:
        problem = PdeProblem(path, tc, spacing=spacing)
    except ValueError as exc:
        raise ConfigError(f"invalid pde problem: {exc}") from exc
    sol = solve_parisi_pde(problem)
    rec = recursion_value(path.partition, path.chain, tc, EvalConfig())
    summary = {"pde_origin": sol.at_origin(), "recursion": rec.value,
               "difference": abs(sol.at_origin() - rec.value)}
    return {"solution.csv": sol.to_csv(), "summary.json": json.dumps(summary)}, 0


def _run_rpc(config: dict, master: int, workers: int):
    weights = _required(config, "weights")
    branching = _number("branching", config.get("branching", 128), int)
    try:
        spec = CascadeSpec(np.asarray(weights, dtype=float), branching)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid cascade: {exc}") from exc
    replicas = _count(config, "replicas", 256, 2)
    dist = overlap_distribution_check(spec, replicas, derive_seed(master, "rpc-dist"))
    pairs = pair_sum_check(spec, replicas, derive_seed(master, "rpc-pairs"))
    artifacts = {"overlap_distribution.csv": dist.to_csv(), "pair_sums.csv": pairs.to_csv()}
    return artifacts, 0 if dist.within(3.0) and pairs.within(3.0) else 1


# sk experiment -> the keys it reads besides "command", "seed" and "experiment"
SK_EXPERIMENTS = {
    "average": {"n_sites", "beta", "replicas"},
    "concentration": {"n_sites", "beta", "replicas"},
    "superadditivity": {"n_sites", "m_sites", "beta", "replicas"},
}


def _run_sk(config: dict, master: int, workers: int):
    experiment = config.get("experiment", "average")
    if not isinstance(experiment, str) or experiment not in SK_EXPERIMENTS:
        raise ConfigError(f"unknown keys for sk: experiment={experiment!r}")
    unknown = sorted(set(config) - SK_EXPERIMENTS[experiment] - {"command", "seed", "experiment"})
    if unknown:
        raise ConfigError(f"unknown keys for sk experiment {experiment}: {', '.join(unknown)}")
    beta = _beta(config)
    replicas = _count(config, "replicas", 200, 2)
    n_sites = _count(config, "n_sites", 8, 1)
    if experiment == "average":
        mean, se, vals = disorder_average(
            n_sites, beta, OverlapConstraint(), AprioriMeasure.rademacher(),
            replicas, derive_seed(master, "sk-average"),
        )
        rows = ["N,beta,seed,estimate,se"]
        rows += [f"{n_sites},{beta!r},{i},{v!r}," for i, v in enumerate(vals.tolist())]
        rows.append(f"{n_sites},{beta!r},mean,{mean!r},{se!r}")
        return {"free_energy.csv": "\n".join(rows) + "\n"}, 0
    if experiment == "concentration":
        table = concentration_experiment(n_sites, beta, replicas, derive_seed(master, "sk-conc"))
        return {"tails.csv": table.to_csv()}, 0 if table.all_below_bound() else 1
    if experiment == "superadditivity":
        m_sites = _count(config, "m_sites", n_sites, 1)
        margin, se = superadditivity_experiment(
            n_sites, m_sites, beta, replicas, derive_seed(master, "sk-super")
        )
        csv = f"N,M,beta,margin,se\n{n_sites},{m_sites},{beta!r},{margin!r},{se!r}\n"
        return {"margin.csv": csv}, 1 if margin < -3.0 * se else 0


def _run_gaussian(config: dict, master: int, workers: int):
    c = _number("c", _required(config, "c"))
    u = _number("u", _required(config, "u"))
    h = _number("h", config.get("h", 0.0))
    beta = _beta(config)
    levels = _count(config, "levels", 1, 1)
    if not (c > 0.0 and u > 0.0):
        raise ConfigError(f"c and u must be positive, got c = {c!r}, u = {u!r}")
    rep = gaussian.equivalence_check(c, u, h, beta, levels, seed=derive_seed(master, "gaussian"))
    sol = gaussian.optimal_self_overlap(c, beta)
    rs = gaussian.optimal_overlap(u, beta)
    closed = (
        "c,u,beta,q_star,regime,closed_value,inf_parisi,inf_cs,gap\n"
        f"{c!r},{u!r},{beta!r},{rs.overlap!r},{rs.regime},"
        f"{gaussian.closed_form_value(c, u, beta)!r},"
        f"{rep.parisi_value!r},{rep.cs_value!r},{rep.gap!r}\n"
    )
    self_overlap = {"diverges": sol.diverges, "u_star": sol.self_overlap, "value": sol.value}
    return {"closed_forms.csv": closed, "self_overlap.json": json.dumps(self_overlap)}, 0


def _run_saddle(config: dict, master: int, workers: int):
    mu = _measure_from(config)
    _quadrature_dim(mu)
    problem = SaddleProblem(
        beta=_beta(config),
        mu=mu,
        levels=_count(config, "levels", 2, 0),
        restarts=_count(config, "restarts", 3, 1),
        max_evals=_count(config, "max_evals", 1500, 1),
        seed=derive_seed(master, "saddle"),
        engine=EvalConfig(grid_points=801),
    )
    u = _matrix("u", config.get("u", [[1.0]]), mu.dim)
    try:
        result = inner_minimize(u, problem)
    except SelfOverlapError as exc:
        raise ConfigError(str(exc)) from exc
    return {"saddle.json": result.to_json()}, 0


def _run_verify_all(config: dict, master: int, workers: int):
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda check: check(master), acceptance.ALL_CHECKS))
    for res in results:
        print(res.line())
    # Runtimes go to stdout only, so that a rerun writes identical files.
    artifacts = {
        "acceptance.txt": "".join(res.verdict() + "\n" for res in results),
        "acceptance.json": json.dumps(
            _jsonable([{"name": r.name, "passed": r.passed, "details": r.details} for r in results])
        ),
    }
    return artifacts, 0 if all(r.passed for r in results) else 1


# command -> (keys allowed besides "command" and "seed", handler)
COMMANDS = {
    "eval": ({"beta", "tilt", "measure", "path", "engine"}, _run_eval),
    "pde": ({"beta", "tilt", "measure", "path", "spacing"}, _run_pde),
    "rpc": ({"weights", "branching", "replicas"}, _run_rpc),
    "sk": ({"experiment"}.union(*SK_EXPERIMENTS.values()), _run_sk),
    "gaussian": ({"c", "u", "h", "beta", "levels"}, _run_gaussian),
    "saddle": ({"beta", "levels", "u", "measure", "restarts", "max_evals"}, _run_saddle),
    "verify-all": (set(), _run_verify_all),
}


def run_config(config: dict, out_dir: Path, seed_override: int | None, workers: int) -> int:
    if "command" not in config:
        raise ConfigError("missing key: command")
    command = config["command"]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command: {command!r}")
    allowed, handler = COMMANDS[command]
    unknown = sorted(set(config) - allowed - {"command", "seed"})
    if unknown:
        raise ConfigError(f"unknown keys for {command}: {', '.join(unknown)}")
    _refuse_booleans("", config)
    master = config.get("seed") if seed_override is None else seed_override
    if master is None:
        if command != "verify-all":
            raise ConfigError("missing key: seed (stochastic commands require a master seed)")
        master = acceptance.DEFAULT_MASTER_SEED
    master = _number("seed", master, int)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts, status = handler(config, master, workers)

    for name, payload in artifacts.items():
        (out_dir / name).write_text(payload)
    blob = json.dumps(config, sort_keys=True)
    manifest = {
        "config": config,
        "config_hash": hashlib.sha256(blob.encode()).hexdigest(),
        "master_seed": master,
        "version": __version__,
        "artifacts": sorted(artifacts),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return status


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="parisi-lab", description=__doc__)
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("command", nargs="?", help="command shortcut (e.g. verify-all)")
    args = parser.parse_args(argv)

    if args.config is not None:
        try:
            config = json.loads(args.config.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    elif args.command:
        config = {"command": args.command}
    else:
        parser.print_usage(file=sys.stderr)
        return 2

    out_dir = args.out or Path(os.environ.get("PARISI_LAB_OUT", "parisi_lab_out"))
    try:
        return run_config(config, Path(out_dir), args.seed, max(args.workers, 1))
    except (ConfigError, BudgetError, PdeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
