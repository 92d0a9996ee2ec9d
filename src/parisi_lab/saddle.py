"""Sup-inf driver for the variational bound.

Inner problem: minimize the local functional over unit-interval weights,
a Loewner-monotone chain ending at U, and the symmetric tilt matrix.  The
chain is parameterized through PSD factor fractions

    dQ[k] = U^{1/2} S^{-1/2} B_k S^{-1/2} U^{1/2},  B_k = G_k G_k^T + eps I,
    S = sum_k B_k,

so monotonicity and the terminal constraint hold exactly for every parameter
vector.  The inner solver is L-BFGS-B on the analytic gradient: the
recursion's first-order formula (``recursion.local_functional_gradient``)
pulled back through this parameterization.  Outer problem: maximize the
inner value over an explicit grid of admissible self-overlap matrices.  The
diagonal Gaussian scenario splits into scalar problems per eigenmode, which
``gaussian.minimize_parisi_1d`` solves with L-BFGS-B on exact gradients too.

For a discrete measure, U must lie in the convex hull of {s s^T : s in the
support}; outside it the inner infimum is -infinity and ``inner_minimize``
raises ``SelfOverlapError``.  Evaluations use the quadrature engine, so the
optimization is fully deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog, minimize

from parisi_lab.gaussian import PAIR_SCALE, REJECTED_VALUE, FeasibilityError, minimize_parisi_1d
from parisi_lab.matrices import MatrixError, eigh_jacobi, project_psd, sym_sqrt
from parisi_lab.measures import AprioriMeasure, EvalConfig, MeasureError, TerminalCondition
from parisi_lab.paths import MonotoneChain, PathError, UnitPartition
from parisi_lab.recursion import FunctionalGradient, local_functional, local_functional_gradient

# Errors that mark a parameter vector as infeasible.  The inner objective
# rejects such a point with a large value and a zero gradient; any other
# exception is a bug and propagates.
INFEASIBLE = (FeasibilityError, MeasureError, MatrixError, PathError)


class SelfOverlapError(ValueError):
    """Raised when the terminal self-overlap U is not admissible for the measure."""


@dataclass(frozen=True)
class SaddleProblem:
    beta: float
    mu: AprioriMeasure
    levels: int = 2
    engine: EvalConfig = field(default_factory=EvalConfig)
    restarts: int = 5
    max_evals: int = 2500
    seed: int = 0

    @property
    def dim(self) -> int:
        return self.mu.dim


@dataclass
class SaddleResult:
    value: float
    partition: UnitPartition
    chain: MonotoneChain
    tilt: np.ndarray
    self_overlap: np.ndarray
    evaluations: int
    restarts_used: int
    all_restart_values: list
    value_paired: float | None = None  # doubled-units value for closed-form layers
    rejections: dict = field(default_factory=dict)  # rejected evals by error type
    restart_evaluations: list = field(default_factory=list)  # objective evals per restart
    nit: list = field(default_factory=list)  # L-BFGS-B iterations per restart
    # Per restart: stopped by a tolerance at a feasible point (an infeasible
    # start has a zero gradient and stops at once, unconverged).
    converged: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "value": self.value,
                "value_paired": self.value_paired,
                "x": self.partition.values.tolist(),
                "Q": [q.tolist() for q in self.chain.matrices],
                "tilt": self.tilt.tolist(),
                "U": self.self_overlap.tolist(),
                "evaluations": self.evaluations,
                "restart_values": self.all_restart_values,
                "restart_evaluations": self.restart_evaluations,
                "nit": self.nit,
                "converged": self.converged,
            }
        )


def _tri_indices(d: int):
    return np.tril_indices(d)


def _unpack(theta: np.ndarray, d: int, n: int, u_mat: np.ndarray, u_half: np.ndarray):
    """Parameter vector -> (partition, chain, tilt, pullback), where
    ``pullback`` maps a ``FunctionalGradient`` at that point to the gradient
    in theta by the chain rule."""
    ntri = d * (d + 1) // 2
    tri = _tri_indices(d)
    gaps_raw = theta[: n + 1]
    pos = 0 + n + 1
    facs = []
    for _ in range(n + 1):
        fac = np.zeros((d, d))
        fac[tri] = theta[pos : pos + ntri]
        facs.append(fac)
        pos += ntri
    tilt = np.zeros((d, d))
    tilt[tri] = theta[pos : pos + ntri]
    tilt = 0.5 * (tilt + tilt.T)
    pos += ntri

    e = np.exp(gaps_raw - gaps_raw.max())
    x = np.concatenate(([0.0], np.cumsum(e) / e.sum()))
    x[-1] = 1.0
    partition = UnitPartition(x)

    eps = 1e-8
    bs = [f @ f.T + eps * np.eye(d) for f in facs]
    s = sum(bs)
    w, v = eigh_jacobi(s)
    root = np.sqrt(np.maximum(w, 1e-14))
    s_inv_half = v @ np.diag(1.0 / root) @ v.T
    mats = [np.zeros((d, d))]
    for b in bs:
        inc = u_half @ s_inv_half @ b @ s_inv_half @ u_half
        mats.append(mats[-1] + 0.5 * (inc + inc.T))
    mats[-1] = u_mat  # exact terminal, kills accumulated rounding
    chain = MonotoneChain(mats, allow_equal=True)

    def pullback(grad: FunctionalGradient) -> np.ndarray:
        out = np.empty_like(theta)
        # x_k = sum_{i<k} p_i with p = softmax(gaps_raw); Q[k] = sum_{i<k} dQ_i.
        p = e / e.sum()
        g_p = np.concatenate((np.cumsum(grad.x[::-1])[::-1], [0.0]))
        out[: n + 1] = p * (g_p - p @ g_p)
        g_inc = np.concatenate((np.cumsum(grad.chain[::-1], axis=0)[::-1], np.zeros((1, d, d))))
        g_inc = [u_half @ g @ u_half for g in g_inc]
        # S^{-1/2} pulls back through the Daleckii-Krein divided differences
        # of t^{-1/2}: (a^-1 - b^-1) / (a^2 - b^2) = -1 / (a b (a + b)).
        g_root = sum(g @ s_inv_half @ b + b @ s_inv_half @ g for g, b in zip(g_inc, bs))
        divided = -1.0 / (root[:, None] * root[None, :] * (root[:, None] + root[None, :]))
        g_s = v @ (divided * (v.T @ g_root @ v)) @ v.T
        pos = n + 1
        for g, fac in zip(g_inc, facs):
            g_b = s_inv_half @ g @ s_inv_half + g_s
            out[pos : pos + ntri] = (2.0 * g_b @ fac)[tri]
            pos += ntri
        out[pos:] = grad.tilt[tri]
        return out

    return partition, chain, tilt, pullback


def _check_self_overlap(u_mat: np.ndarray, mu: AprioriMeasure) -> None:
    """Raise SelfOverlapError if U has the wrong shape or, for discrete mu,
    lies outside conv{s s^T : s in supp mu}: there -<tilt, U> + X_0 is
    unbounded below in the tilt.  Membership is a linear feasibility
    problem in the convex weights of the support points."""
    d = mu.dim
    if u_mat.shape != (d, d):
        raise SelfOverlapError("self-overlap shape disagrees with the measure dimension")
    if mu.kind != "discrete":
        return
    tri = _tri_indices(d)
    outer = np.array([np.outer(s, s)[tri] for s in mu.points]).T
    a_eq = np.vstack((outer, np.ones(len(mu.points))))
    b_eq = np.concatenate((u_mat[tri], [1.0]))
    res = linprog(np.zeros(len(mu.points)), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise SelfOverlapError(
            f"self-overlap {u_mat.tolist()} lies outside the convex hull of s s^T over the "
            "support; the inner infimum is -infinity there"
        )


def inner_minimize(u_matrix, problem: SaddleProblem) -> SaddleResult:
    """Infimum of the local functional at fixed terminal self-overlap.

    Raises SelfOverlapError when U is not admissible for the measure (see
    ``_check_self_overlap``).  ``problem.max_evals`` is L-BFGS-B's
    ``maxfun``, which scipy checks between iterations, so a restart may end
    a few evaluations past it."""
    u_mat = project_psd(np.atleast_2d(np.asarray(u_matrix, dtype=float)))
    _check_self_overlap(u_mat, problem.mu)
    d = problem.dim
    n = problem.levels
    u_half = sym_sqrt(u_mat)
    ntri = d * (d + 1) // 2
    size = (n + 1) + (n + 1) * ntri + ntri
    evals = 0
    rejections: dict[str, int] = {}

    def objective(theta: np.ndarray):
        nonlocal evals
        evals += 1
        try:
            part, chain, tilt, pullback = _unpack(theta, d, n, u_mat, u_half)
            tc = TerminalCondition(problem.beta, tilt, problem.mu)
            result, grad = local_functional_gradient(part, chain, tc, problem.engine)
        except INFEASIBLE as exc:
            kind = type(exc).__name__
            rejections[kind] = rejections.get(kind, 0) + 1
            return REJECTED_VALUE, np.zeros(size)
        return result.value, pullback(grad)

    # Feasible symmetric start: uniform gaps, equal increments, zero tilt.
    base = np.zeros(size)
    idx = n + 1
    diag_entries = np.zeros((d, d))
    diag_entries[np.diag_indices(d)] = 1.0
    tri_template = diag_entries[_tri_indices(d)]
    for _ in range(n + 1):
        base[idx : idx + ntri] = tri_template
        idx += ntri

    rng = np.random.default_rng(problem.seed)
    starts = [base]
    for _ in range(problem.restarts - 1):
        starts.append(base + rng.normal(scale=0.4, size=size))

    best = None
    restart_values, restart_evals, nit, converged = [], [], [], []
    for s0 in starts:
        before = evals
        res = minimize(
            objective, s0, jac=True, method="L-BFGS-B", options={"maxfun": problem.max_evals}
        )
        restart_values.append(float(res.fun))
        restart_evals.append(evals - before)
        nit.append(int(res.nit))
        converged.append(bool(res.success and res.fun < REJECTED_VALUE))
        if best is None or res.fun < best.fun:
            best = res
    part, chain, tilt, _ = _unpack(best.x, d, n, u_mat, u_half)
    return SaddleResult(
        value=float(best.fun),
        partition=part,
        chain=chain,
        tilt=tilt,
        self_overlap=u_mat,
        evaluations=evals,
        restarts_used=len(starts),
        all_restart_values=restart_values,
        value_paired=float(PAIR_SCALE * best.fun),
        rejections=dict(sorted(rejections.items())),
        restart_evaluations=restart_evals,
        nit=nit,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Diagonal (Gaussian) scenario: per-eigenmode scalar problems


@dataclass(frozen=True)
class DiagonalSaddleResult:
    value: float          # free-energy scale
    value_paired: float   # doubled-units sum of per-mode optima
    per_mode: tuple
    u_eigs: np.ndarray


def diagonal_inner(c_eigs, u_eigs, beta: float, levels: int, seed: int = 0) -> DiagonalSaddleResult:
    """Per-eigenmode infimum for a Gaussian measure diagonal in a shared basis.

    The d-dimensional problem decouples into scalar problems per eigenmode of
    (C, U); the paired-units optimum is the sum of scalar minima and the
    free-energy scale value is half of it.
    """
    cs = np.asarray(c_eigs, dtype=float)
    us = np.asarray(u_eigs, dtype=float)
    opts = tuple(
        minimize_parisi_1d(c, u, 0.0, beta, levels, seed=seed) for c, u in zip(cs, us)
    )
    total = float(sum(o.value for o in opts))
    return DiagonalSaddleResult(total / PAIR_SCALE, total, opts, us)


def diagonal_outer(
    c_eigs,
    beta: float,
    levels: int,
    u_grids,
    seed: int = 0,
    refine: int = 2,
) -> DiagonalSaddleResult:
    """Maximize the per-mode infima over per-mode self-overlap grids.

    The paired objective is a sum of independent per-mode terms, so the outer
    search also decouples: each mode scans its grid and then golden-refines
    around the best point.  A refinement round repeats u values solved
    before (always its end points), so each mode solves every exact u once.
    """
    cs = np.asarray(c_eigs, dtype=float)
    best_us = []
    for c, grid in zip(cs, u_grids):
        solved: dict[float, float] = {}

        def infimum(u, c=c) -> float:
            if float(u) not in solved:
                solved[float(u)] = minimize_parisi_1d(c, u, 0.0, beta, levels, seed=seed).value
            return solved[float(u)]

        grid = np.asarray(grid, dtype=float)
        vals = [infimum(u) for u in grid]
        j = int(np.argmax(vals))
        lo = grid[max(j - 1, 0)]
        hi = grid[min(j + 1, grid.size - 1)]
        for _ in range(refine):
            mid = np.linspace(lo, hi, 5)
            vals_m = [infimum(u) for u in mid]
            jj = int(np.argmax(vals_m))
            lo = mid[max(jj - 1, 0)]
            hi = mid[min(jj + 1, mid.size - 1)]
        best_us.append(0.5 * (lo + hi))
    return diagonal_inner(cs, np.asarray(best_us), beta, levels, seed=seed)


# ---------------------------------------------------------------------------
# Outer maximization and stationarity diagnostics


def outer_maximize(problem: SaddleProblem, grid) -> SaddleResult:
    """Best inner value over an explicit list of self-overlap matrices."""
    best = None
    for u in grid:
        res = inner_minimize(u, problem)
        if best is None or res.value > best.value:
            best = res
    return best


def stationarity_residual(result: SaddleResult, problem: SaddleProblem, step: float = 1e-4):
    """Central finite-difference gradient of the functional at the reported
    minimizer with respect to the chain matrices and the tilt; infinity norm.

    Chain perturbations touch one interior matrix entry at a time (kept
    symmetric); increments may lose strict definiteness under perturbation,
    which the engine tolerates.
    """
    d = problem.dim
    part = result.partition
    mats = result.chain.matrices.copy()
    tilt = result.tilt

    def value(ms, tl) -> float:
        chain = MonotoneChain(ms, allow_equal=True)
        tc = TerminalCondition(problem.beta, tl, problem.mu)
        return local_functional(part, chain, tc, problem.engine).value

    residuals = []
    for k in range(1, mats.shape[0] - 1):
        for i in range(d):
            for j in range(i, d):
                h = step * (1.0 + abs(mats[k, i, j]))
                up = mats.copy()
                dn = mats.copy()
                up[k, i, j] += h
                up[k, j, i] = up[k, i, j]
                dn[k, i, j] -= h
                dn[k, j, i] = dn[k, i, j]
                try:
                    residuals.append((value(up, tilt) - value(dn, tilt)) / (2.0 * h))
                except INFEASIBLE:
                    residuals.append(np.nan)
    for i in range(d):
        for j in range(i, d):
            h = step * (1.0 + abs(tilt[i, j]))
            up = tilt.copy()
            dn = tilt.copy()
            up[i, j] += h
            up[j, i] = up[i, j]
            dn[i, j] -= h
            dn[j, i] = dn[i, j]
            residuals.append((value(mats, up) - value(mats, dn)) / (2.0 * h))
    arr = np.asarray(residuals)
    finite = arr[np.isfinite(arr)]
    return float(np.max(np.abs(finite))) if finite.size else float("nan")
