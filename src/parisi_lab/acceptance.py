"""Acceptance suite: one callable per criterion, shared by pytest and the CLI.

Every check returns a CheckResult with the measured quantities in ``details``
so failures are diagnosable from the verify-all table alone.  All randomness
derives from the master seed; rerunning with the same seed reproduces every
number bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from parisi_lab import gaussian
from parisi_lab.cascades import CascadeSpec, overlap_distribution_check, pair_sum_check, representation_vs_recursion
from parisi_lab.measures import AprioriMeasure, EvalConfig, TerminalCondition
from parisi_lab.paths import DiscretePath, MonotoneChain, UnitPartition, chain_from_blocks
from parisi_lab.pde import PdeProblem, convexity_probe, solve_parisi_pde
from parisi_lab.recursion import Level, lipschitz_witness, recursion_from_levels, recursion_value
from parisi_lab.saddle import INFEASIBLE, SaddleProblem, diagonal_inner, inner_minimize
from parisi_lab.seeds import derive_seed
from parisi_lab.sk import (
    OverlapConstraint,
    SpinSpace,
    concentration_experiment,
    disorder_average,
    superadditivity_experiment,
)

DEFAULT_MASTER_SEED = 20240


@dataclass
class CheckResult:
    name: str
    passed: bool
    runtime: float
    details: dict = field(default_factory=dict)

    def verdict(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"

    def line(self) -> str:
        return f"{self.verdict()} ({self.runtime:.1f}s)"


def _timed(fn):
    def wrapper(seed: int) -> CheckResult:
        t0 = time.time()
        res = fn(seed)
        res.runtime = time.time() - t0
        return res

    return wrapper


@_timed
def check_gaussian_closed_forms(seed: int) -> CheckResult:
    """Closed-form anchor values reproduce exact arithmetic to 1e-10."""
    target = math.log(1.5) - 0.25  # beta^2 u^2 + log(cu) - cu + 1 at (3, 1/2, 1)
    val = gaussian.closed_form_value(3.0, 0.5, 1.0)
    sol = gaussian.optimal_self_overlap(3.0, 1.0)
    ok = abs(val - target) <= 1e-10 and sol.self_overlap == 0.5 and abs(sol.value - target) <= 1e-10
    return CheckResult(
        "1 gaussian closed forms",
        bool(ok),
        0.0,
        {"value": val, "target": target, "u_star": sol.self_overlap},
    )


def _random_gaussian_instance(rng: np.random.Generator, d: int, n: int):
    """Feasible random instance (x, chain, tilt, C, h, beta); retries until
    all level precisions are positive definite."""
    for _ in range(200):
        beta = rng.uniform(0.3, 1.1)
        q_basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
        c = q_basis @ np.diag(rng.uniform(2.5, 5.0, d)) @ q_basis.T
        h = rng.normal(scale=0.3, size=d)
        tilt = rng.normal(scale=0.1, size=(d, d))
        tilt = 0.5 * (tilt + tilt.T)
        u_basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
        u = u_basis @ np.diag(rng.uniform(0.2, 0.9, d)) @ u_basis.T
        # Drawn for every d, so that the later draws keep their order.
        fracs = rng.dirichlet(np.ones(n + 1))
        if d == 1:
            blocks = fracs.reshape(-1, 1, 1)
        else:
            blocks = [w @ w.T + 0.05 * np.eye(d) for w in rng.normal(size=(n + 1, d, d))]
        chain, _ = chain_from_blocks(u, blocks)
        x = UnitPartition.from_interior(np.sort(rng.uniform(0.05, 0.95, n)))
        try:
            gaussian.level_precisions(x, chain, tilt, c, beta)
            mu = AprioriMeasure.gaussian(c, h)
            TerminalCondition(beta, tilt, mu)
        except INFEASIBLE:
            continue
        return x, chain, tilt, c, h, beta
    raise RuntimeError("could not draw a feasible Gaussian instance")


@_timed
def check_recursion_vs_closed_form(seed: int) -> CheckResult:
    """Quadrature recursion equals the Gaussian closed form to 1e-6."""
    rng = np.random.default_rng(derive_seed(seed, "rec-vs-closed"))
    worst = 0.0
    rows = []
    for d in [1] * 14 + [2] * 6:
        n = int(rng.integers(1, 4))
        x, chain, tilt, c, h, beta = _random_gaussian_instance(rng, d, n)
        mu = AprioriMeasure.gaussian(c, h)
        tc = TerminalCondition(beta, tilt, mu)
        cfg = EvalConfig(nodes=24, grid_points=1601, grid_points_2d=161)
        rec = recursion_value(x, chain, tc, cfg).value
        closed = gaussian.closed_form_recursion(x, chain, tilt, c, h, beta)
        diff = abs(rec - closed)
        worst = max(worst, diff)
        rows.append({"d": d, "n": n, "diff": diff})
    return CheckResult(
        "2 recursion vs closed form", worst <= 1e-6, 0.0, {"worst": worst, "rows": rows}
    )


@_timed
def check_equivalence(seed: int) -> CheckResult:
    """Scalar variational and Crisanti-Sommers forms share their infimum."""
    s = derive_seed(seed, "equivalence")
    rep1 = gaussian.equivalence_check(3.0, 0.5, 0.0, 1.0, 1, seed=s)
    rep2 = gaussian.equivalence_check(3.0, 0.5, 0.0, 1.0, 2, seed=s)
    collapse = abs(rep2.parisi_value - rep1.parisi_value)
    ok = rep1.gap <= 1e-4 and rep2.gap <= 1e-4 and collapse <= 1e-4
    return CheckResult(
        "3 equivalence of scalar functionals",
        bool(ok),
        0.0,
        {
            "gap_n1": rep1.gap,
            "gap_n2": rep2.gap,
            "collapse": collapse,
            "value": rep1.parisi_value,
        },
    )


@_timed
def check_pde_vs_recursion(seed: int) -> CheckResult:
    """Finite-difference solution matches the recursion; error drops >= 3x
    under one grid halving."""
    mu = AprioriMeasure.rademacher()
    tc = TerminalCondition(0.5, np.zeros((1, 1)), mu)
    x = UnitPartition.from_interior([0.25, 0.6])
    chain = MonotoneChain([[[0.0]], [[0.3]], [[0.7]], [[1.0]]])
    path = DiscretePath(x, chain)
    rec = recursion_value(x, chain, tc, EvalConfig()).value
    sol_coarse = solve_parisi_pde(PdeProblem(path, tc, spacing=0.01))
    sol_fine = solve_parisi_pde(PdeProblem(path, tc, spacing=0.005))
    e_coarse = abs(sol_coarse.at_origin() - rec)
    e_fine = abs(sol_fine.at_origin() - rec)
    ok = e_coarse <= 1e-3 and e_fine <= e_coarse / 3.0
    return CheckResult(
        "4 recursion vs pde",
        bool(ok),
        0.0,
        {"recursion": rec, "error_h01": e_coarse, "error_h005": e_fine},
    )


@_timed
def check_cascade_identities(seed: int) -> CheckResult:
    """Overlap distribution and pair-sum identities within 3 SE."""
    spec = CascadeSpec([0.25, 0.6], branching=128)
    dist = overlap_distribution_check(spec, replicas=256, seed=derive_seed(seed, "rpc-dist"))
    sums = pair_sum_check(spec, replicas=256, seed=derive_seed(seed, "rpc-pairs"))
    ok = dist.within(3.0) and sums.within(3.0)
    return CheckResult(
        "5 cascade identities",
        bool(ok),
        0.0,
        {"dist_sigma": dist.max_sigma, "pair_sigma": sums.max_sigma},
    )


@_timed
def check_cascade_representation(seed: int) -> CheckResult:
    """Cascade average reproduces the recursion within 3 SE."""
    mu = AprioriMeasure.rademacher()
    chain = MonotoneChain([[[0.0]], [[0.3]], [[0.7]], [[1.0]]])
    spec = CascadeSpec([0.25, 0.6], branching=128)
    rows = []
    ok = True
    for i, beta in enumerate([0.5, 1.0]):
        tc = TerminalCondition(beta, np.zeros((1, 1)), mu)
        est, se, rec = representation_vs_recursion(
            spec, chain, tc, replicas=256, seed=derive_seed(seed, f"rpc-rep-{i}")
        )
        sigma = abs(est - rec) / se
        ok = ok and sigma <= 3.0
        rows.append({"beta": beta, "estimate": est, "se": se, "recursion": rec, "sigma": sigma})
    return CheckResult("6 cascade representation", bool(ok), 0.0, {"rows": rows})


@_timed
def check_finite_size_bound(seed: int) -> CheckResult:
    """Disorder-averaged free energy sits below the variational value, with
    the gap shrinking as the system grows."""
    betas = [0.5, 1.0, 1.5]
    sizes = [8, 12, 16]
    mu = AprioriMeasure.rademacher()
    saddle_vals = {}
    for beta in betas:
        prob = SaddleProblem(
            beta=beta,
            mu=mu,
            levels=2,
            engine=EvalConfig(grid_points=801),
            restarts=3,
            max_evals=1200,
            seed=derive_seed(seed, f"saddle-{beta}"),
        )
        saddle_vals[beta] = inner_minimize([[1.0]], prob).value
    rows = []
    ok = True
    for n_sites in sizes:
        means, ses, _ = disorder_average(
            n_sites, np.array(betas), OverlapConstraint.everything(), SpinSpace.ising(),
            200, derive_seed(seed, f"bound-N{n_sites}"),
        )
        for b, beta in enumerate(betas):
            rows.append(
                {
                    "N": n_sites,
                    "beta": beta,
                    "mean": float(means[b]),
                    "se": float(ses[b]),
                    "saddle": saddle_vals[beta],
                    "gap": saddle_vals[beta] - float(means[b]),
                }
            )
    for beta in betas:
        series = [r for r in rows if r["beta"] == beta]
        for r in series:
            ok = ok and r["mean"] <= r["saddle"] + 3.0 * r["se"]
        for a, b in zip(series[:-1], series[1:]):
            slack = 3.0 * math.hypot(a["se"], b["se"])
            ok = ok and b["gap"] <= a["gap"] + slack
    return CheckResult("7 finite-size upper bound", bool(ok), 0.0, {"rows": rows})


@_timed
def check_concentration(seed: int) -> CheckResult:
    """Empirical tails below the Gaussian concentration bound (95% binomial
    upper confidence at every grid point)."""
    table = concentration_experiment(8, 1.0, 2000, derive_seed(seed, "concentration"))
    return CheckResult(
        "8 concentration",
        table.all_below_bound(),
        0.0,
        {"worst_ratio": float(np.max(table.upper_conf / table.bound))},
    )


@_timed
def check_superadditivity(seed: int) -> CheckResult:
    """Free-energy superadditivity margin nonnegative within 3 SE."""
    margin, se = superadditivity_experiment(4, 4, 0.7, 400, derive_seed(seed, "superadd"))
    return CheckResult(
        "9 superadditivity", margin >= -3.0 * se, 0.0, {"margin": margin, "se": se}
    )


class _SoftPlus:
    dim = 1

    def __call__(self, pts):
        y = np.asarray(pts)[:, 0]
        return np.logaddexp(0.0, y)


@_timed
def check_convexity_monotonicity(seed: int) -> CheckResult:
    """Strict convexity in the weight profile, monotonicity in weights and in
    the terminal condition, and the Lipschitz bound on path pairs."""
    rng = np.random.default_rng(derive_seed(seed, "convexity"))
    details: dict = {}

    # strict midpoint convexity for a smooth convex increasing terminal
    steps = np.linspace(0.0, 1.0, 11)
    prof1 = (steps, steps[:-1])
    prof2 = (steps, steps[:-1] ** 2)
    gammas = np.linspace(0.0, 1.0, 5)
    rep = convexity_probe(1.0, prof1, prof2, gammas, _SoftPlus(), EvalConfig(grid_points=801))
    conv_ok = rep.min_interior_margin > 3.0 * rep.numeric_error
    details["convexity_margin"] = rep.min_interior_margin
    details["convexity_err"] = rep.numeric_error

    # monotonicity in the weight profile on random instances
    mu = AprioriMeasure.rademacher()
    mono_x_ok = True
    worst_x = 0.0
    for _ in range(20):
        beta = rng.uniform(0.2, 1.0)
        tc = TerminalCondition(beta, np.zeros((1, 1)), mu)
        cuts = np.sort(rng.uniform(0.1, 0.9, 3))
        seg = np.diff(np.concatenate(([0.0], cuts, [1.0])))
        w_hi = np.sort(rng.uniform(0.0, 1.0, 4))
        w_lo = w_hi * rng.uniform(0.3, 1.0, 4)
        cfg = EvalConfig(grid_points=801)
        v_lo = recursion_from_levels(tc, [Level(w, np.array([[sv]])) for w, sv in zip(w_lo, seg)], cfg).value
        v_hi = recursion_from_levels(tc, [Level(w, np.array([[sv]])) for w, sv in zip(w_hi, seg)], cfg).value
        worst_x = max(worst_x, v_lo - v_hi)
        mono_x_ok = mono_x_ok and v_lo <= v_hi + 1e-8
    details["mono_x_worst"] = worst_x

    # monotonicity in the terminal condition
    class Bumped:
        dim = 1

        def __init__(self, base, bump):
            self.base = base
            self.bump = bump

        def __call__(self, pts):
            y = np.asarray(pts)[:, 0]
            return np.asarray(self.base(pts)) + self.bump * (1.0 + np.tanh(y)) / 2.0

    mono_g_ok = True
    worst_g = 0.0
    for _ in range(20):
        beta = rng.uniform(0.2, 1.0)
        tc = TerminalCondition(beta, np.zeros((1, 1)), mu)
        bump = rng.uniform(0.05, 0.5)
        cuts = np.sort(rng.uniform(0.1, 0.9, 2))
        seg = np.diff(np.concatenate(([0.0], cuts, [1.0])))
        weights = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 1.0, 2))))
        levels = [Level(w, np.array([[sv]])) for w, sv in zip(weights, seg)]
        cfg = EvalConfig(grid_points=801)
        v1 = recursion_from_levels(tc, levels, cfg).value
        v2 = recursion_from_levels(Bumped(tc, bump), levels, cfg).value
        worst_g = max(worst_g, v1 - v2)
        mono_g_ok = mono_g_ok and v1 <= v2 + 1e-8
    details["mono_g_worst"] = worst_g

    # Lipschitz witness on random path pairs
    lip_ok = True
    worst_ratio = 0.0
    for _ in range(50):
        beta = rng.uniform(0.2, 1.0)
        tc = TerminalCondition(beta, np.zeros((1, 1)), mu)
        n = int(rng.integers(1, 3))
        x1 = UnitPartition.from_interior(np.sort(rng.uniform(0.1, 0.9, n)))
        x2 = UnitPartition.from_interior(np.sort(rng.uniform(0.1, 0.9, n)))
        q1 = np.sort(rng.uniform(0.05, 0.95, n))
        q2 = np.sort(rng.uniform(0.05, 0.95, n))
        mk = lambda qs: MonotoneChain(
            [np.zeros((1, 1))] + [[[q]] for q in qs] + [np.ones((1, 1))]
        )
        p1 = DiscretePath(x1, mk(q1))
        p2 = DiscretePath(x2, mk(q2))
        lhs, rhs = lipschitz_witness(p1, p2, tc, EvalConfig(grid_points=801))
        lip_ok = lip_ok and lhs <= rhs + 1e-10
        if rhs > 0:
            worst_ratio = max(worst_ratio, lhs / rhs)
    details["lipschitz_worst_ratio"] = worst_ratio

    ok = conv_ok and mono_x_ok and mono_g_ok and lip_ok
    return CheckResult("10 convexity and monotonicity", bool(ok), 0.0, details)


@_timed
def check_diagonal_consistency(seed: int) -> CheckResult:
    """Sum of per-mode closed forms equals the diagonal-scenario optimum."""
    target = gaussian.diagonal_value([3.0, 4.0], [0.5, 0.5], 1.0)
    res = diagonal_inner([3.0, 4.0], [0.5, 0.5], 1.0, 2, seed=derive_seed(seed, "diag"))
    diff = abs(res.value_paired - target)
    return CheckResult(
        "11 diagonal-scenario consistency",
        diff <= 2e-3,
        0.0,
        {"optimized": res.value_paired, "closed_form": target, "diff": diff},
    )


ALL_CHECKS = [
    check_gaussian_closed_forms,
    check_recursion_vs_closed_form,
    check_equivalence,
    check_pde_vs_recursion,
    check_cascade_identities,
    check_cascade_representation,
    check_finite_size_bound,
    check_concentration,
    check_superadditivity,
    check_convexity_monotonicity,
    check_diagonal_consistency,
]

