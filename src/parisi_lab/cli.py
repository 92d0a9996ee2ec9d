"""Batch front door: JSON config in, CSV/JSON artifacts plus a manifest out.

Exit codes: 0 success, 1 assertion/check failure, 2 configuration error.
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

from parisi_lab import __version__, acceptance
from parisi_lab.measures import AprioriMeasure, EvalConfig, TerminalCondition
from parisi_lab.paths import DiscretePath, path_from_json, path_to_json
from parisi_lab.pde import PdeProblem, solve_parisi_pde
# local_functional is no longer called here.  It stays in this namespace
# because perfbench/spans.py instruments cli.local_functional.
from parisi_lab.recursion import (  # noqa: F401
    evaluation_record,
    functional_from_recursion,
    local_functional,
    recursion_value,
)
from parisi_lab.saddle import SaddleProblem, inner_minimize
from parisi_lab.seeds import derive_seed
from parisi_lab.sk import (
    OverlapConstraint,
    SpinSpace,
    concentration_experiment,
    disorder_average,
    superadditivity_experiment,
)
from parisi_lab.cascades import CascadeSpec, overlap_distribution_check, pair_sum_check


class ConfigError(ValueError):
    pass


_COMMON_KEYS = {"command", "seed"}
_SCHEMAS = {
    "eval": {"beta", "tilt", "measure", "path", "engine"},
    "pde": {"beta", "tilt", "measure", "path", "spacing"},
    "rpc": {"weights", "branching", "replicas"},
    "sk": {"experiment", "n_sites", "m_sites", "beta", "replicas"},
    "gaussian": {"c", "u", "h", "beta", "levels"},
    "saddle": {"beta", "levels", "u", "measure", "restarts", "max_evals"},
    "verify-all": set(),
}


def _check_keys(config: dict) -> str:
    if "command" not in config:
        raise ConfigError("missing key: command")
    command = config["command"]
    if command not in _SCHEMAS:
        raise ConfigError(f"unknown command: {command!r}")
    allowed = _SCHEMAS[command] | _COMMON_KEYS
    unknown = sorted(set(config) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys for {command}: {', '.join(unknown)}")
    return command


def _measure_from(config: dict) -> AprioriMeasure:
    spec = config.get("measure", {"kind": "rademacher"})
    if spec.get("kind") == "rademacher":
        return AprioriMeasure.rademacher()
    if spec.get("kind") == "hypercube":
        return AprioriMeasure.hypercube(int(spec.get("d", 1)))
    return AprioriMeasure.from_json_dict(spec)


def _path_from(config: dict) -> DiscretePath:
    return path_from_json(json.dumps(config["path"]))


def _terminal_from(config: dict, mu: AprioriMeasure) -> TerminalCondition:
    d = mu.dim
    tilt = np.asarray(config.get("tilt", np.zeros((d, d))), dtype=float)
    return TerminalCondition(float(config.get("beta", 1.0)), tilt.reshape(d, d), mu)


def run_config(config: dict, out_dir: Path, seed_override: int | None, workers: int) -> int:
    command = _check_keys(config)
    master = int(config.get("seed", 0)) if seed_override is None else seed_override
    if command != "verify-all" and "seed" not in config and seed_override is None:
        raise ConfigError("missing key: seed (stochastic commands require a master seed)")
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, str] = {}
    status = 0

    if command == "eval":
        mu = _measure_from(config)
        tc = _terminal_from(config, mu)
        path = _path_from(config)
        engine = config.get("engine", "quadrature")
        cfg = EvalConfig(engine=engine, seed=derive_seed(master, "eval"))
        rec = recursion_value(path.partition, path.chain, tc, cfg)
        loc = functional_from_recursion(path.partition, path.chain, tc, rec)
        lines = [
            evaluation_record("recursion_value", {"path": path_to_json(path)}, rec, cfg.seed),
            evaluation_record("local_functional", {"path": path_to_json(path)}, loc, cfg.seed),
        ]
        artifacts["evaluations.jsonl"] = "\n".join(lines) + "\n"

    elif command == "pde":
        mu = _measure_from(config)
        tc = _terminal_from(config, mu)
        path = _path_from(config)
        problem = PdeProblem.from_path(path, tc, spacing=float(config.get("spacing", 0.01)))
        sol = solve_parisi_pde(problem)
        rec = recursion_value(path.partition, path.chain, tc, EvalConfig())
        artifacts["solution.csv"] = sol.to_csv()
        artifacts["summary.json"] = json.dumps(
            {"pde_origin": sol.at_origin(), "recursion": rec.value,
             "difference": abs(sol.at_origin() - rec.value)}
        )

    elif command == "rpc":
        spec = CascadeSpec(np.asarray(config["weights"], dtype=float), int(config.get("branching", 128)))
        replicas = int(config.get("replicas", 256))
        dist = overlap_distribution_check(spec, replicas, derive_seed(master, "rpc-dist"))
        pairs = pair_sum_check(spec, replicas, derive_seed(master, "rpc-pairs"))
        artifacts["overlap_distribution.csv"] = dist.to_csv()
        artifacts["pair_sums.csv"] = pairs.to_csv()
        if not (dist.within(3.0) and pairs.within(3.0)):
            status = 1

    elif command == "sk":
        experiment = config.get("experiment", "average")
        beta = float(config.get("beta", 1.0))
        replicas = int(config.get("replicas", 200))
        n_sites = int(config.get("n_sites", 8))
        space = SpinSpace.ising()
        if experiment == "average":
            mean, se, vals = disorder_average(
                n_sites, beta, OverlapConstraint.everything(), space,
                replicas, derive_seed(master, "sk-average"),
            )
            rows = ["N,beta,seed,estimate,se"]
            rows += [f"{n_sites},{beta!r},{i},{v!r}," for i, v in enumerate(vals)]
            rows.append(f"{n_sites},{beta!r},mean,{mean!r},{se!r}")
            artifacts["free_energy.csv"] = "\n".join(rows) + "\n"
        elif experiment == "concentration":
            table = concentration_experiment(n_sites, beta, replicas, derive_seed(master, "sk-conc"))
            artifacts["tails.csv"] = table.to_csv()
            if not table.all_below_bound():
                status = 1
        elif experiment == "superadditivity":
            m_sites = int(config.get("m_sites", n_sites))
            margin, se = superadditivity_experiment(
                n_sites, m_sites, beta, replicas, derive_seed(master, "sk-super")
            )
            artifacts["margin.csv"] = f"N,M,beta,margin,se\n{n_sites},{m_sites},{beta!r},{margin!r},{se!r}\n"
            if margin < -3.0 * se:
                status = 1
        else:
            raise ConfigError(f"unknown keys for sk: experiment={experiment!r}")

    elif command == "gaussian":
        from parisi_lab import gaussian

        c = float(config["c"])
        u = float(config["u"])
        h = float(config.get("h", 0.0))
        beta = float(config.get("beta", 1.0))
        levels = int(config.get("levels", 1))
        rep = gaussian.equivalence_check(c, u, h, beta, levels, seed=derive_seed(master, "gaussian"))
        sol = gaussian.optimal_self_overlap(c, beta)
        rs = gaussian.optimal_overlap(u, beta)
        artifacts["closed_forms.csv"] = (
            "c,u,beta,q_star,regime,closed_value,inf_parisi,inf_cs,gap\n"
            f"{c!r},{u!r},{beta!r},{rs.overlap!r},{rs.regime},"
            f"{gaussian.closed_form_value(c, u, beta)!r},"
            f"{rep.parisi_value!r},{rep.cs_value!r},{rep.gap!r}\n"
        )
        artifacts["self_overlap.json"] = json.dumps(
            {"diverges": sol.diverges, "u_star": sol.self_overlap, "value": sol.value}
        )

    elif command == "saddle":
        mu = _measure_from(config)
        beta = float(config.get("beta", 1.0))
        problem = SaddleProblem(
            beta=beta,
            mu=mu,
            levels=int(config.get("levels", 2)),
            restarts=int(config.get("restarts", 3)),
            max_evals=int(config.get("max_evals", 1500)),
            seed=derive_seed(master, "saddle"),
            engine=EvalConfig(grid_points=801),
        )
        u = np.asarray(config.get("u", [[1.0]]), dtype=float)
        res = inner_minimize(u, problem)
        artifacts["saddle.json"] = res.to_json()

    elif command == "verify-all":
        seed = master if master else acceptance.DEFAULT_MASTER_SEED
        lines = []
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(lambda c: c(seed), acceptance.ALL_CHECKS))
        else:
            results = [c(seed) for c in acceptance.ALL_CHECKS]
        for res in results:
            lines.append(res.line())
            print(res.line())
        if not all(r.passed for r in results):
            status = 1
        artifacts["acceptance.txt"] = "\n".join(lines) + "\n"
        artifacts["acceptance.json"] = json.dumps(
            _jsonable([{"name": r.name, "passed": r.passed, "details": r.details} for r in results])
        )

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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
