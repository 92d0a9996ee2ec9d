"""Sup-inf driver for the variational bound.

Inner problem: minimize the local functional over unit-interval weights,
a Loewner-monotone chain ending at U, and the symmetric tilt matrix.  The
order parameters go through the one parameterization of ``paths``: the
weights are ``cumulative_fractions`` of n + 1 logits, and the chain is
``chain_from_blocks`` of the positive-definite blocks G_k G_k^T + 1e-8 I,
so monotonicity and the terminal constraint hold exactly for every parameter
vector.  The inner solver is ``gaussian.multistart``, the shared
restart-and-reject L-BFGS-B driver, on the analytic gradient: the
recursion's first-order formula (``recursion.local_functional_gradient``)
pulled back through the pullbacks of these two maps.  The result holds the
optimum as the partition and the chain of a ``paths.DiscretePath``.  Outer
problem: maximize the inner value over a one-parameter family of admissible
self-overlap matrices by bounded Brent search (``_bounded_max``), which
finds the supremum when the inner value is unimodal along the family.  The
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
from scipy.optimize import linprog, minimize_scalar

from parisi_lab.gaussian import PAIR_SCALE, REJECTED_VALUE, minimize_parisi_1d, multistart
from parisi_lab.matrices import PSD_TOL, MatrixError, eigh_jacobi, frobenius_norm
from parisi_lab.measures import AprioriMeasure, EvalConfig, TerminalCondition
from parisi_lab.paths import MonotoneChain, UnitPartition, chain_from_blocks, cumulative_fractions
from parisi_lab.recursion import FunctionalGradient, local_functional_gradient
# local_functional is not called here.  It stays in this namespace because
# perfbench/spans.py instruments saddle.local_functional.
from parisi_lab.recursion import local_functional  # noqa: F401

# Bracket width at which the bounded outer search stops.
OUTER_XATOL = 1e-3


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
                "rejections": self.rejections,
            }
        )


def _unpack(theta: np.ndarray, d: int, n: int, u_mat: np.ndarray):
    """Parameter vector -> (partition, chain, tilt, pullback), where
    ``pullback`` maps a ``FunctionalGradient`` at that point to the gradient
    in theta by the chain rule.  theta holds n + 1 weight logits, the lower
    triangles of the n + 1 block factors G_k and the lower triangle of the
    tilt."""
    tri = np.tril_indices(d)
    ntri = tri[0].size
    x, pull_x = cumulative_fractions(theta[: n + 1])
    partition = UnitPartition(np.append(0.0, x))
    facs = np.zeros((n + 1, d, d))
    facs[:, tri[0], tri[1]] = theta[n + 1 : -ntri].reshape(n + 1, ntri)
    # The floor 1e-8 I keeps every block positive definite.
    chain, pull_blocks = chain_from_blocks(u_mat, [f @ f.T + 1e-8 * np.eye(d) for f in facs])
    tilt = np.zeros((d, d))
    tilt[tri] = theta[-ntri:]
    tilt = 0.5 * (tilt + tilt.T)

    def pullback(grad: FunctionalGradient) -> np.ndarray:
        g_facs = [(2.0 * g @ f)[tri] for g, f in zip(pull_blocks(grad.chain), facs)]
        return np.concatenate([pull_x(grad.x)] + g_facs + [grad.tilt[tri]])

    return partition, chain, tilt, pullback


def _admissible_self_overlap(u_given: np.ndarray, mu: AprioriMeasure) -> np.ndarray:
    """U projected onto the PSD cone.  Raise SelfOverlapError if U has the
    wrong shape, is not symmetric, has an eigenvalue below
    -PSD_TOL (1 + ||U||_F) (one above that is rounding, which the projection
    clips), or, for discrete mu, lies outside conv{s s^T : s in supp mu}:
    there -<tilt, U> + X_0 is unbounded below in the tilt.  Membership is a
    linear feasibility problem in the convex weights of the support points."""
    d = mu.dim
    if u_given.shape != (d, d):
        raise SelfOverlapError("self-overlap shape disagrees with the measure dimension")
    try:
        w, v = eigh_jacobi(u_given)
    except MatrixError as exc:
        raise SelfOverlapError(f"self-overlap {u_given.tolist()} is not symmetric") from exc
    if w[0] < -PSD_TOL * (1.0 + frobenius_norm(u_given)):
        raise SelfOverlapError(
            f"self-overlap {u_given.tolist()} is not positive semidefinite (eigmin={w[0]:.3e})"
        )
    u_mat = v @ np.diag(np.clip(w, 0.0, None)) @ v.T
    u_mat = 0.5 * (u_mat + u_mat.T)
    if mu.kind != "discrete":
        return u_mat
    tri = np.tril_indices(d)
    outer = np.array([np.outer(s, s)[tri] for s in mu.points]).T
    a_eq = np.vstack((outer, np.ones(len(mu.points))))
    b_eq = np.concatenate((u_mat[tri], [1.0]))
    res = linprog(np.zeros(len(mu.points)), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise SelfOverlapError(
            f"self-overlap {u_given.tolist()} lies outside the convex hull of s s^T over the "
            "support; the inner infimum is -infinity there"
        )
    return u_mat


def inner_minimize(u_matrix, problem: SaddleProblem) -> SaddleResult:
    """Infimum of the local functional at fixed terminal self-overlap.

    Raises SelfOverlapError when U is not admissible for the measure (see
    ``_admissible_self_overlap``).  ``problem.max_evals`` is L-BFGS-B's
    ``maxfun``, which scipy checks between iterations, so a restart may end
    a few evaluations past it."""
    u_mat = _admissible_self_overlap(np.atleast_2d(np.asarray(u_matrix, dtype=float)), problem.mu)
    d = problem.dim
    n = problem.levels
    ntri = d * (d + 1) // 2
    size = (n + 1) + (n + 1) * ntri + ntri

    def evaluate(theta: np.ndarray):
        part, chain, tilt, pullback = _unpack(theta, d, n, u_mat)
        tc = TerminalCondition(problem.beta, tilt, problem.mu)
        result, grad = local_functional_gradient(part, chain, tc, problem.engine)
        return result.value, pullback(grad)

    # Feasible symmetric start: uniform gaps, identity factors (equal
    # increments), zero tilt.
    base = np.zeros(size)
    base[n + 1 : -ntri] = np.tile(np.eye(d)[np.tril_indices(d)], n + 1)

    rng = np.random.default_rng(problem.seed)
    starts = [base] + [base + rng.normal(scale=0.4, size=size) for _ in range(problem.restarts - 1)]
    best, runs, calls, rejections = multistart(evaluate, starts, {"maxfun": problem.max_evals})
    part, chain, tilt, _ = _unpack(best.x, d, n, u_mat)
    return SaddleResult(
        value=float(best.fun),
        partition=part,
        chain=chain,
        tilt=tilt,
        self_overlap=u_mat,
        evaluations=sum(calls),
        all_restart_values=[float(res.fun) for res in runs],
        value_paired=float(PAIR_SCALE * best.fun),
        rejections=rejections,
        restart_evaluations=calls,
        nit=[int(res.nit) for res in runs],
        converged=[bool(res.success and res.fun < REJECTED_VALUE) for res in runs],
    )


# ---------------------------------------------------------------------------
# Diagonal (Gaussian) scenario: per-eigenmode scalar problems


@dataclass(frozen=True)
class DiagonalSaddleResult:
    value: float          # free-energy scale
    value_paired: float   # doubled-units sum of per-mode optima


def diagonal_inner(c_eigs, u_eigs, beta: float, levels: int, seed: int = 0) -> DiagonalSaddleResult:
    """Per-eigenmode infimum for a Gaussian measure diagonal in a shared basis.

    The d-dimensional problem decouples into scalar problems per eigenmode of
    (C, U); the paired-units optimum is the sum of scalar minima and the
    free-energy scale value is half of it.
    """
    modes = zip(np.asarray(c_eigs, dtype=float), np.asarray(u_eigs, dtype=float))
    total = float(sum(minimize_parisi_1d(c, u, 0.0, beta, levels, seed=seed).value for c, u in modes))
    return DiagonalSaddleResult(total / PAIR_SCALE, total)


# ---------------------------------------------------------------------------
# Outer maximization


def _bounded_max(solve, lo: float, hi: float):
    """(t, solve(t)) with the largest ``.value`` among the points that
    bounded Brent (``minimize_scalar(method="bounded")``) evaluates on
    [lo, hi] while it minimizes -solve(t).value to ``OUTER_XATOL``.  Each
    evaluated t is solved once, and the winner is returned as solved."""
    evaluated = []

    def negated(t: float) -> float:
        evaluated.append((float(t), solve(float(t))))
        return -evaluated[-1][1].value

    minimize_scalar(negated, bounds=(lo, hi), method="bounded", options={"xatol": OUTER_XATOL})
    return max(evaluated, key=lambda pair: pair[1].value)


def outer_maximize(problem: SaddleProblem, family, lo: float, hi: float) -> SaddleResult:
    """sup over t in [lo, hi] of the inner infimum at the self-overlap
    ``family(t)``: one ``_bounded_max`` over ``inner_minimize``.  A
    one-parameter family covers the d = 1 self-overlap [[u]] and the
    hypercube's [[1, r], [r, 1]].  The search finds the maximum only when
    the inner value is unimodal in t on [lo, hi]."""
    return _bounded_max(lambda t: inner_minimize(family(t), problem), lo, hi)[1]
