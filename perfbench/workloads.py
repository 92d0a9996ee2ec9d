"""The benchmark's workloads: generated inputs, timed operations and the
reference check of each operation.

Every input comes from the workload seed through ``seeds.derive_seed``; the
library receives only the generated inputs.  Each operation calls the
library through its module attribute at call time, so the traced run sees
the wrapped function.  A check returns ``None`` when the output agrees with
its reference and a reason otherwise.  Every tolerance is the one an existing
acceptance check or test states.

saddle_sk      Nelder-Mead saddle solves for the Rademacher measure (check 7
               settings): thousands of small d=1 recursion evals, so per-call
               overhead in g, the splines and the optimizer dominates.
recursion_ref  Few large recursion evals against the Gaussian closed form,
               plus one d=2 hypercube instance by quadrature and by Monte
               Carlo: spline sweeps, the discrete g on big grids, memory.
cli_routes     Every cheap CLI command through ``cli.run_config``, each run
               twice to check byte-identical reruns: the front door, which
               a recursion or saddle optimization should not move.
"""

from __future__ import annotations

import filecmp
import json
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from parisi_lab import cli, gaussian, recursion, saddle
from parisi_lab.matrices import MatrixError, sym_sqrt
from parisi_lab.measures import AprioriMeasure, EvalConfig, MeasureError, TerminalCondition
from parisi_lab.paths import DiscretePath, MonotoneChain, PathError, UnitPartition, path_to_json
from parisi_lab.seeds import derive_seed


@dataclass(frozen=True)
class Op:
    name: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    saddle_grid: int = 801
    saddle_evals: int = 1200
    gauss_d1: int = 14
    gauss_d2: int = 3
    gauss_config: EvalConfig = EvalConfig(nodes=24, grid_points=1601, grid_points_2d=161)
    # 16 nodes per axis and 48 Monte Carlo samples instead of the defaults
    # (32 and 128) keep the hypercube pair near 5 s instead of 20 s; 24
    # replicas, as in test_quadrature_vs_monte_carlo, keep the standard
    # error itself reliable.
    cube_config: EvalConfig = EvalConfig(nodes=16, samples=48, replicas=24)
    pde_spacing: float = 0.005
    rpc_branching: int = 128
    rpc_replicas: int = 256
    sk_average_sites: int = 16
    sk_average_replicas: int = 8
    sk_concentration_sites: int = 8
    sk_replicas: int = 200
    superadditivity_sites: int = 4
    gaussian_levels: int = 2


FULL = Sizes()
TINY = Sizes(
    saddle_grid=101,
    saddle_evals=30,
    gauss_d1=3,
    gauss_d2=1,
    gauss_config=EvalConfig(nodes=8, grid_points=101, grid_points_2d=33),
    cube_config=EvalConfig(nodes=8, grid_points=101, grid_points_2d=33, samples=16, replicas=4),
    pde_spacing=0.05,
    rpc_branching=8,
    rpc_replicas=32,
    sk_average_sites=6,
    sk_average_replicas=3,
    superadditivity_sites=2,
    gaussian_levels=1,
)


@dataclass
class Context:
    """Run-time state the operations share: a scratch directory inside the
    checkout, the ``Path`` type handed to the CLI (a traced one in the traced
    pass) and results that a later check compares against."""

    scratch: Path
    path_type: type = Path
    results: dict = field(default_factory=dict)
    runs: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    named: dict[str, str]         # named end-to-end timing -> op kind
    build: Callable               # (seed, sizes, ctx) -> (ops, warm-up callable)


# ---------------------------------------------------------------------------
# saddle_sk


def _rs_value(beta: float) -> float:
    """log 2 + beta^2/2: the replica-symmetric value at high temperature and
    the annealed bound at every temperature (counting measure on {-1, 1})."""
    return math.log(2.0) + 0.5 * beta**2


def _check_saddle(beta: float, res) -> str | None:
    if beta == 0.5:
        # Tolerance of test_sk_inner_matches_rs_value.
        if abs(res.value - _rs_value(beta)) > 2e-4:
            return f"value {res.value!r} differs from the RS value by more than 2e-4"
    elif res.value > _rs_value(beta):
        return f"value {res.value!r} exceeds the annealed bound {_rs_value(beta)!r}"
    return None


def _build_saddle_sk(seed: int, sizes: Sizes, ctx: Context):
    mu = AprioriMeasure.rademacher()
    engine = EvalConfig(grid_points=sizes.saddle_grid)
    ops = []
    for beta in (0.5, 1.5):
        problem = saddle.SaddleProblem(
            beta=beta,
            mu=mu,
            levels=2,
            engine=engine,
            restarts=1,
            max_evals=sizes.saddle_evals,
            seed=derive_seed(seed, f"saddle_sk/beta={beta}"),
        )
        ops.append(
            Op(
                f"solve beta={beta}",
                "solve",
                lambda p=problem: saddle.inner_minimize([[1.0]], p),
                lambda res, b=beta: _check_saddle(b, res),
            )
        )
    x = UnitPartition.from_interior([1.0 / 3.0, 2.0 / 3.0])
    chain = MonotoneChain([[[0.0]], [[1.0 / 3.0]], [[2.0 / 3.0]], [[1.0]]])
    tc = TerminalCondition(0.5, np.zeros((1, 1)), mu)

    def warm_up():
        recursion.local_functional(x, chain, tc, engine)

    return ops, warm_up


# ---------------------------------------------------------------------------
# recursion_ref


def _random_chain(rng: np.random.Generator, d: int, n: int, u: np.ndarray) -> MonotoneChain:
    """Loewner-monotone chain of n+1 random increments ending exactly at u."""
    if d == 1:
        incs = [u * f for f in rng.dirichlet(np.ones(n + 1))]
    else:
        u_half = sym_sqrt(u)
        bs = [w @ w.T + 0.05 * np.eye(d) for w in rng.normal(size=(n + 1, d, d))]
        w_eig, v_eig = np.linalg.eigh(sum(bs))
        s_inv_half = v_eig @ np.diag(1.0 / np.sqrt(w_eig)) @ v_eig.T
        incs = [u_half @ s_inv_half @ b @ s_inv_half @ u_half for b in bs]
    mats = [np.zeros((d, d))]
    for inc in incs:
        mats.append(mats[-1] + 0.5 * (inc + inc.T))
    mats[-1] = u
    return MonotoneChain(mats, allow_equal=True)


def _random_psd(rng: np.random.Generator, d: int, low: float, high: float) -> np.ndarray:
    basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return basis @ np.diag(rng.uniform(low, high, d)) @ basis.T


def _gaussian_instance(rng: np.random.Generator, d: int, n: int):
    """Feasible random Gaussian instance, drawn as in acceptance check 2;
    redraws until every level precision is positive definite."""
    for _ in range(200):
        beta = rng.uniform(0.3, 1.1)
        c = _random_psd(rng, d, 2.5, 5.0)
        h = rng.normal(scale=0.3, size=d)
        tilt = rng.normal(scale=0.1, size=(d, d))
        tilt = 0.5 * (tilt + tilt.T)
        chain = _random_chain(rng, d, n, _random_psd(rng, d, 0.2, 0.9))
        x = UnitPartition.from_interior(np.sort(rng.uniform(0.05, 0.95, n)))
        try:
            gaussian.level_precisions(x, chain, tilt, c, beta)
            tc = TerminalCondition(beta, tilt, AprioriMeasure.gaussian(c, h))
        except (gaussian.FeasibilityError, MeasureError, MatrixError, PathError):
            continue
        return x, chain, tc, (x, chain, tilt, c, h, beta)
    raise RuntimeError("could not draw a feasible Gaussian instance")


def _check_closed_form(closed_args, res) -> str | None:
    closed = gaussian.closed_form_recursion(*closed_args)
    # Tolerance of acceptance check 2.
    if not abs(res.value - closed) <= 1e-6:
        return f"quadrature {res.value!r} vs closed form {closed!r}"
    return None


def _build_recursion_ref(seed: int, sizes: Sizes, ctx: Context):
    rng = np.random.default_rng(derive_seed(seed, "recursion_ref/gaussian"))
    ops = []
    # The level counts cycle through 1, 2, 3 in each dimension, so every seed
    # does the same amount of work; only the instance values vary.
    for d, count in ((1, sizes.gauss_d1), (2, sizes.gauss_d2)):
        for k in range(count):
            n = 1 + k % 3
            x, chain, tc, closed_args = _gaussian_instance(rng, d, n)
            ops.append(
                Op(
                    f"gauss d={d} #{k} n={n}",
                    f"eval_gauss_d{d}",
                    lambda x=x, chain=chain, tc=tc: recursion.recursion_value(x, chain, tc, sizes.gauss_config),
                    lambda res, a=closed_args: _check_closed_form(a, res),
                )
            )

    cube_rng = np.random.default_rng(derive_seed(seed, "recursion_ref/hypercube"))
    tilt = cube_rng.normal(scale=0.1, size=(2, 2))
    tc = TerminalCondition(cube_rng.uniform(0.3, 1.1), 0.5 * (tilt + tilt.T), AprioriMeasure.hypercube(2))
    chain = _random_chain(cube_rng, 2, 2, _random_psd(cube_rng, 2, 0.2, 0.9))
    x = UnitPartition.from_interior(np.sort(cube_rng.uniform(0.05, 0.95, 2)))
    quad_cfg = sizes.cube_config
    mc_cfg = replace(quad_cfg, engine="monte_carlo", seed=derive_seed(seed, "recursion_ref/mc"))

    def check_quadrature(res) -> str | None:
        ctx.results["cube_quadrature"] = res.value
        return None if np.isfinite(res.value) else f"quadrature value {res.value!r}"

    def check_monte_carlo(res) -> str | None:
        quad = ctx.results.pop("cube_quadrature", None)
        if quad is None:
            return "no quadrature value to compare with"
        # Agreement in standard errors of test_quadrature_vs_monte_carlo.
        if not abs(res.value - quad) <= 3.0 * res.std_error:
            return f"monte carlo {res.value!r} +- {res.std_error!r} vs quadrature {quad!r}"
        return None

    ops.append(Op("cube d=2 quadrature", "eval_cube_d2",
                  lambda: recursion.recursion_value(x, chain, tc, quad_cfg), check_quadrature))
    ops.append(Op("cube d=2 monte_carlo", "eval_mc",
                  lambda: recursion.recursion_value(x, chain, tc, mc_cfg), check_monte_carlo))
    return ops, ops[0].call


# ---------------------------------------------------------------------------
# cli_routes


def _check_path() -> dict:
    """Path of acceptance check 4: x = (0.25, 0.6), Q = 0, 0.3, 0.7, 1."""
    path = DiscretePath(
        UnitPartition.from_interior([0.25, 0.6]),
        MonotoneChain([[[0.0]], [[0.3]], [[0.7]], [[1.0]]]),
    )
    return json.loads(path_to_json(path))


def _cli_configs(sizes: Sizes) -> list[tuple[str, dict]]:
    rademacher = {"kind": "rademacher"}
    return [
        ("eval", {"command": "eval", "beta": 0.5, "measure": rademacher, "path": _check_path(),
                  "engine": "quadrature"}),
        ("pde", {"command": "pde", "beta": 0.5, "measure": rademacher, "path": _check_path(),
                 "spacing": sizes.pde_spacing}),
        ("rpc", {"command": "rpc", "weights": [0.25, 0.6], "branching": sizes.rpc_branching,
                 "replicas": sizes.rpc_replicas}),
        ("sk_average", {"command": "sk", "experiment": "average", "n_sites": sizes.sk_average_sites,
                        "replicas": sizes.sk_average_replicas}),
        ("sk_concentration", {"command": "sk", "experiment": "concentration",
                              "n_sites": sizes.sk_concentration_sites, "replicas": sizes.sk_replicas}),
        ("sk_superadditivity", {"command": "sk", "experiment": "superadditivity",
                                "n_sites": sizes.superadditivity_sites,
                                "m_sites": sizes.superadditivity_sites, "replicas": sizes.sk_replicas}),
        ("gaussian", {"command": "gaussian", "c": 3.0, "u": 0.5, "beta": 1.0,
                      "levels": sizes.gaussian_levels}),
    ]


def _run_cli(ctx: Context, label: str, config: dict):
    ctx.runs += 1
    out = ctx.scratch / f"{label}-{ctx.runs}"
    status = cli.run_config(config, ctx.path_type(out), None, 1)
    return status, out


def _same_files(first: Path, second: Path) -> bool:
    names = sorted(p.name for p in first.iterdir())
    if names != sorted(p.name for p in second.iterdir()):
        return False
    return all(filecmp.cmp(first / name, second / name, shallow=False) for name in names)


def _build_cli_routes(seed: int, sizes: Sizes, ctx: Context):
    ops = []
    for label, config in _cli_configs(sizes):
        config = {**config, "seed": derive_seed(seed, f"cli_routes/{label}")}

        def check_first(result, label=label) -> str | None:
            status, out = result
            ctx.results[label] = out
            if status != 0:
                return f"exit status {status}"
            if label == "pde":
                summary = json.loads((out / "summary.json").read_text())
                # Tolerance of acceptance check 4.
                if not summary["difference"] <= 1e-3:
                    return f"pde differs from the recursion by {summary['difference']!r}"
            return None

        def check_rerun(result, label=label) -> str | None:
            status, out = result
            first = ctx.results.pop(label, None)
            try:
                if status != 0:
                    return f"exit status {status}"
                if first is None:
                    return "no first run to compare with"
                if not _same_files(first, out):
                    return "rerun with the same seed wrote different bytes"
                return None
            finally:
                for directory in (first, out):
                    if directory is not None:
                        shutil.rmtree(directory, ignore_errors=True)

        call = lambda label=label, config=config: _run_cli(ctx, label, config)
        ops.append(Op(f"cli {label}", f"cli_{label}", call, check_first))
        ops.append(Op(f"cli {label} rerun", f"cli_{label}", call, check_rerun))

    def warm_up():
        ops[0].check(ops[0].call())
        ops[1].check(ops[1].call())

    return ops, warm_up


WORKLOADS = {
    w.name: w
    for w in (
        Workload("saddle_sk", {"solve_s": "solve"}, _build_saddle_sk),
        Workload(
            "recursion_ref",
            {"eval_gauss_d2_s": "eval_gauss_d2", "eval_cube_d2_s": "eval_cube_d2", "eval_mc_s": "eval_mc"},
            _build_recursion_ref,
        ),
        Workload(
            "cli_routes",
            {"cli_pde_s": "cli_pde", "cli_sk_s": "cli_sk_average", "cli_gaussian_s": "cli_gaussian"},
            _build_cli_routes,
        ),
    )
}
