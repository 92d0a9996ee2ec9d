"""Sup-inf driver for the variational bound.

Inner problem: minimize the local functional over unit-interval weights,
a Loewner-monotone chain ending at U, and the symmetric tilt matrix.  The
chain is parameterized through PSD factor fractions

    dQ[k] = U^{1/2} S^{-1/2} B_k S^{-1/2} U^{1/2},  B_k = G_k G_k^T + eps I,
    S = sum_k B_k,

so monotonicity and the terminal constraint hold exactly for every parameter
vector.  Outer problem: maximize the inner value over a domain of admissible
self-overlap matrices (a fixed U, a diagonal eigenvalue grid, or a PSD
operator-norm ball walked by projected ascent).

All inner evaluations share one engine configuration; with the quadrature
engine the optimization is fully deterministic, with the Monte Carlo engine
the fixed seed acts as common random numbers across evaluations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from parisi_lab.gaussian import PAIR_SCALE, FeasibilityError, minimize_parisi_1d
from parisi_lab.matrices import MatrixError, eigh_jacobi, frobenius_norm, project_psd, operator_norm, sym_sqrt
from parisi_lab.measures import AprioriMeasure, EvalConfig, MeasureError, TerminalCondition
from parisi_lab.paths import MonotoneChain, PathError, UnitPartition, validate_chain
from parisi_lab.recursion import local_functional

# Errors that mark a parameter vector as infeasible.  The inner objective
# rejects such a point with a large value; any other exception is a bug and
# propagates.
INFEASIBLE = (FeasibilityError, MeasureError, MatrixError, PathError)
REJECTED_VALUE = 1e6


@dataclass(frozen=True)
class SaddleProblem:
    beta: float
    mu: AprioriMeasure
    levels: int = 2
    engine: EvalConfig = field(default_factory=EvalConfig)
    hadamard_penalty: bool = False
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
            }
        )


def _tri_indices(d: int):
    return np.tril_indices(d)


def _unpack(theta: np.ndarray, d: int, n: int, u_mat: np.ndarray, u_half: np.ndarray):
    """Parameter vector -> (partition, chain, tilt)."""
    ntri = d * (d + 1) // 2
    gaps_raw = theta[: n + 1]
    pos = 0 + n + 1
    facs = []
    for _ in range(n + 1):
        tri = np.zeros((d, d))
        tri[_tri_indices(d)] = theta[pos : pos + ntri]
        facs.append(tri)
        pos += ntri
    tilt = np.zeros((d, d))
    tilt[_tri_indices(d)] = theta[pos : pos + ntri]
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
    s_inv_half = v @ np.diag(1.0 / np.sqrt(np.maximum(w, 1e-14))) @ v.T
    mats = [np.zeros((d, d))]
    for b in bs:
        inc = u_half @ s_inv_half @ b @ s_inv_half @ u_half
        mats.append(mats[-1] + 0.5 * (inc + inc.T))
    mats[-1] = u_mat  # exact terminal, kills accumulated rounding
    chain = MonotoneChain(mats, allow_equal=True)
    return partition, chain, tilt


def _hadamard_violation(chain: MonotoneChain) -> float:
    rep = validate_chain(chain, require_hadamard=True)
    bad = [abs(v[2]) for v in rep.violations if v[0] == "hadamard"]
    return sum(bad)


def inner_minimize(u_matrix, problem: SaddleProblem) -> SaddleResult:
    """Infimum of the local functional at fixed terminal self-overlap."""
    u_mat = project_psd(np.atleast_2d(np.asarray(u_matrix, dtype=float)))
    d = problem.dim
    n = problem.levels
    if u_mat.shape != (d, d):
        raise ValueError("self-overlap shape disagrees with the measure dimension")
    u_half = sym_sqrt(u_mat)
    ntri = d * (d + 1) // 2
    size = (n + 1) + (n + 1) * ntri + ntri
    evals = 0
    rejections: dict[str, int] = {}

    def objective(theta: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        try:
            part, chain, tilt = _unpack(theta, d, n, u_mat, u_half)
            tc = TerminalCondition(problem.beta, tilt, problem.mu)
            val = local_functional(part, chain, tc, problem.engine).value
            if problem.hadamard_penalty:
                val += 10.0 * _hadamard_violation(chain)
            return val
        except INFEASIBLE as exc:
            kind = type(exc).__name__
            rejections[kind] = rejections.get(kind, 0) + 1
            return REJECTED_VALUE

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
    restart_values = []
    for s0 in starts:
        res = minimize(
            objective,
            s0,
            method="Nelder-Mead",
            options={
                "maxfev": problem.max_evals,
                "xatol": 1e-8,
                "fatol": 1e-10,
                "adaptive": True,
            },
        )
        restart_values.append(float(res.fun))
        if best is None or res.fun < best.fun:
            best = res
    part, chain, tilt = _unpack(best.x, d, n, u_mat, u_half)
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
    around the best point.
    """
    cs = np.asarray(c_eigs, dtype=float)
    best_us = []
    for c, grid in zip(cs, u_grids):
        grid = np.asarray(grid, dtype=float)
        vals = [minimize_parisi_1d(c, u, 0.0, beta, levels, seed=seed).value for u in grid]
        j = int(np.argmax(vals))
        lo = grid[max(j - 1, 0)]
        hi = grid[min(j + 1, grid.size - 1)]
        for _ in range(refine):
            mid = np.linspace(lo, hi, 5)
            vals_m = [minimize_parisi_1d(c, u, 0.0, beta, levels, seed=seed).value for u in mid]
            jj = int(np.argmax(vals_m))
            lo = mid[max(jj - 1, 0)]
            hi = mid[min(jj + 1, mid.size - 1)]
        best_us.append(0.5 * (lo + hi))
    return diagonal_inner(cs, np.asarray(best_us), beta, levels, seed=seed)


# ---------------------------------------------------------------------------
# General outer ascent and stationarity diagnostics


def outer_maximize(
    problem: SaddleProblem,
    u_domain: str,
    u_init=None,
    radius: float | None = None,
    grid=None,
    steps: int = 20,
    step_size: float = 0.1,
) -> SaddleResult:
    """sup over the admissible self-overlap domain of the inner infimum.

    u_domain "fixed": singleton domain, returns inner_minimize(u_init).
    u_domain "psd_ball": projected finite-difference ascent inside
    {U PSD, operator norm <= radius}.
    u_domain "grid": best inner value over an explicit list of matrices.
    """
    if u_domain == "fixed":
        return inner_minimize(u_init, problem)
    if u_domain == "grid":
        best = None
        for u in grid:
            res = inner_minimize(u, problem)
            if best is None or res.value > best.value:
                best = res
        return best
    if u_domain != "psd_ball":
        raise ValueError(f"unknown outer domain {u_domain!r}")
    d = problem.dim
    u = project_psd(np.atleast_2d(np.asarray(u_init, dtype=float)))
    r = radius if radius is not None else 2.0
    current = inner_minimize(u, problem)
    h = 0.05
    for _ in range(steps):
        grad = np.zeros((d, d))
        for i in range(d):
            for j in range(i, d):
                pert = np.zeros((d, d))
                pert[i, j] = pert[j, i] = h
                up = _cap_norm(project_psd(u + pert), r)
                dn = _cap_norm(project_psd(u - pert), r)
                vp = inner_minimize(up, problem).value
                vn = inner_minimize(dn, problem).value
                grad[i, j] = grad[j, i] = (vp - vn) / (2.0 * h)
        if frobenius_norm(grad) < 1e-7:
            break
        cand_u = _cap_norm(project_psd(u + step_size * grad), r)
        cand = inner_minimize(cand_u, problem)
        if cand.value > current.value + 1e-12:
            u, current = cand_u, cand
        else:
            step_size *= 0.5
            if step_size < 1e-4:
                break
    return current


def _cap_norm(m: np.ndarray, radius: float) -> np.ndarray:
    nrm = operator_norm(m)
    if nrm > radius:
        return m * (radius / nrm)
    return m


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
                except Exception:
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
