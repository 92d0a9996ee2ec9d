"""The descending Gaussian log-moment recursion and the functionals built on it.

Given a partition x, a monotone chain Q and a terminal condition g, the
recursion runs backward through the levels

    X_k = (1/x_k) log E exp(x_k X_{k+1}),   z_k ~ N(0, Q[k+1] - Q[k]),

with the outermost level a plain expectation, and returns X_0.  Two engines
are provided:

* quadrature: each level is an exact Gaussian convolution evaluated with
  tensorized Gauss-Hermite nodes; the level functions live on cubic-spline
  grids so the cost is linear in the number of levels (d = 1 and d = 2).
* monte_carlo: nested sampling over all levels at once with antithetic pairs
  and half-sample (Richardson) debiasing of the log-mean-exp bias; standard
  errors come from independent replicas.  Works for any d, cost grows like
  samples**levels.

Level weights may be arbitrary values in [0, 1] (not only the partition
points); this generality is used by the monotonicity and convexity probes
where convex combinations of step profiles appear as weights.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.interpolate import CubicSpline, RectBivariateSpline

from parisi_lab.matrices import frobenius_inner, frobenius_norm, sqrt_factor
from parisi_lab.measures import EvalConfig, TerminalCondition
from parisi_lab.paths import DiscretePath, MonotoneChain, UnitPartition


@dataclass(frozen=True)
class Level:
    """One recursion level: averaging weight in [0, 1] and a PSD covariance
    increment for the Gaussian field accumulated at this level."""

    weight: float
    cov: np.ndarray


def levels_from_order_params(x: UnitPartition, chain: MonotoneChain) -> list[Level]:
    """Standard level list: weights (0, x_1, ..., x_n) against the chain increments."""
    if x.levels != chain.levels:
        raise ValueError("partition and chain level counts differ")
    incs = chain.increments()
    weights = x.values[:-1]
    return [Level(float(w), inc) for w, inc in zip(weights, incs)]


# Points per f_next call in propagate_segment.  A block holds as many whole
# quadrature nodes as fit under this budget: every d=1 level is one call and
# d=2 temporaries stay near 1 MB.
BLOCK_POINTS = 2**16


@lru_cache(maxsize=None)
def _gauss_hermite(nodes: int, rank: int):
    """Tensor Gauss-Hermite table for E f(x), x ~ N(0, I_rank / 2): the
    (nodes**rank, rank) node array and its weights, built once per node
    count and rank and returned read-only."""
    xs, ws = hermgauss(nodes)
    ws = ws / np.sqrt(np.pi)
    idx = np.meshgrid(*([np.arange(nodes)] * rank), indexing="ij")
    idx = np.stack([g.ravel() for g in idx], axis=1)
    pts = xs[idx]
    wgt = np.prod(ws[idx], axis=1)
    pts.flags.writeable = False
    wgt.flags.writeable = False
    return pts, wgt


def _gh_nodes(cov: np.ndarray, nodes: int):
    """Gauss-Hermite node vectors and weights for E f(z), z ~ N(0, cov).

    Rank-deficient covariances are reduced to their positive eigenspace, so a
    zero increment yields the single node 0 with weight 1.
    """
    fac = sqrt_factor(cov)
    r = fac.shape[1]
    if r == 0:
        return np.zeros((1, cov.shape[0])), np.ones(1)
    pts, wgt = _gauss_hermite(nodes, r)
    shifts = np.sqrt(2.0) * pts @ fac.T
    return shifts, wgt


def _log_avg_exp(weight: float, vals: np.ndarray, wgt: np.ndarray, small_x: float) -> np.ndarray:
    """(1/w) log sum_i wgt_i exp(w * vals_i) along the first axis, stabilized.

    Below the small-weight threshold the expansion mean + (w/2) * variance is
    used, removing the cancellation of the w -> 0 plain-expectation limit.
    """
    mean = np.tensordot(wgt, vals, axes=(0, 0))
    if weight < small_x:
        sq = np.tensordot(wgt, vals * vals, axes=(0, 0))
        var = np.maximum(sq - mean * mean, 0.0)
        return mean + 0.5 * weight * var
    top = vals.max(axis=0)
    shifted = np.exp(weight * (vals - top[None, ...]))
    return top + np.log(np.tensordot(wgt, shifted, axes=(0, 0))) / weight


class GridFunction:
    """Function of y on a tensor grid with cubic-spline evaluation (d <= 2)."""

    def __init__(self, axes: list[np.ndarray], values: np.ndarray):
        self.axes = axes
        self.values = values
        if len(axes) == 1:
            self._spline = CubicSpline(axes[0], values)
        elif len(axes) == 2:
            self._spline = RectBivariateSpline(axes[0], axes[1], values, kx=3, ky=3)
        else:
            raise ValueError("grid functions support d <= 2")

    @property
    def dim(self) -> int:
        return len(self.axes)

    def on_shifted_grids(self, axes: list[np.ndarray], shifts: np.ndarray) -> np.ndarray:
        """Values on the tensor grids {axes + s} for each row s of shifts,
        shape (len(shifts),) + grid shape.  At d = 1 this is one spline call
        on all grids at once; at d = 2 each grid keeps its own tensor-grid
        spline call, because evaluating the points one by one would switch to
        a different scipy routine whose values differ in the last bits."""
        if self.dim == 1:
            return self._spline(axes[0][None, :] + shifts[:, 0:1])
        return np.stack([self._spline(axes[0] + s[0], axes[1] + s[1]) for s in shifts])

    def at_origin(self) -> float:
        if self.dim == 1:
            return float(self._spline(0.0))
        return float(self._spline(0.0, 0.0))

    def __call__(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.dim == 1:
            return self._spline(pts[:, 0])
        return self._spline.ev(pts[:, 0], pts[:, 1])


def propagate_segment(
    f_next,
    weight: float,
    cov: np.ndarray,
    axes: list[np.ndarray],
    cfg: EvalConfig,
) -> GridFunction:
    """One backward Gaussian-convolution step on a grid:

        f(y) = (1/w) log E exp(w * f_next(y + z)),  z ~ N(0, cov),

    evaluated at every grid point of ``axes``.  ``f_next`` may be a
    GridFunction (shifted-grid fast path) or any vectorized callable.
    This is the exact propagator for a single segment of the associated
    semi-linear PDE, for any dimension the grid machinery supports.

    The quadrature nodes are evaluated in blocks: a block is as many whole
    nodes as fit in BLOCK_POINTS (2**16) grid points, and each block is one
    call of ``f_next`` on the stacked (block * grid, d) points, or one
    ``GridFunction.on_shifted_grids`` call.  Every point gets the same
    arithmetic as in a call per node, so the values do not depend on the
    block size.
    """
    shifts, wgt = _gh_nodes(cov, cfg.nodes)
    shape = tuple(a.size for a in axes)
    size = int(np.prod(shape))
    if isinstance(f_next, GridFunction):
        evaluate = lambda block: f_next.on_shifted_grids(axes, block)
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        base = np.stack([m.ravel() for m in mesh], axis=1)
        evaluate = lambda block: np.asarray(
            f_next((base[None, :, :] + block[:, None, :]).reshape(-1, base.shape[1]))
        ).reshape((len(block),) + shape)
    step = max(1, BLOCK_POINTS // size)
    vals = np.empty((shifts.shape[0],) + shape)
    for start in range(0, shifts.shape[0], step):
        vals[start : start + step] = evaluate(shifts[start : start + step])
    out = _log_avg_exp(weight, vals, wgt, cfg.small_x_threshold)
    return GridFunction(axes, out)


def _quadrature_value(terminal, levels: list[Level], cfg: EvalConfig) -> float:
    d = levels[0].cov.shape[0]
    if d > 2:
        raise ValueError("quadrature engine supports d <= 2; use monte_carlo")
    per_axis = cfg.grid_points if d == 1 else cfg.grid_points_2d
    # Grid for level k covers every point reachable by nodes of levels < k.
    halfw = []
    acc = np.full(d, cfg.grid_pad)
    xmax = float(np.abs(_gauss_hermite(cfg.nodes, 1)[0]).max())
    for lv in levels:
        acc = acc + 2.0 * np.sqrt(np.clip(np.diag(lv.cov), 0.0, None)) * xmax
        halfw.append(acc.copy())
    axes_for = lambda w: [np.linspace(-wi, wi, per_axis) for wi in w]

    f = None
    for k in range(len(levels) - 1, -1, -1):
        axes = axes_for(halfw[k - 1]) if k > 0 else [np.zeros(1)] * d
        target = terminal if f is None else f
        if k == 0:
            # Outermost level: evaluate at the origin only.
            shifts, wgt = _gh_nodes(levels[0].cov, cfg.nodes)
            if f is None:
                vals = np.asarray(terminal(shifts))
            else:
                vals = f(shifts)
            out = _log_avg_exp(levels[0].weight, vals, wgt, cfg.small_x_threshold)
            return float(out)
        f = propagate_segment(target, levels[k].weight, levels[k].cov, axes, cfg)
    raise AssertionError("unreachable")


def _mc_value(terminal, levels: list[Level], cfg: EvalConfig, rng: np.random.Generator) -> float:
    """Nested Monte Carlo with antithetic pairs and half-sample debiasing."""
    half = max(4, cfg.samples // 2)
    draws = []
    for lv in levels:
        fac = sqrt_factor(lv.cov)
        if fac.shape[1]:
            z = rng.standard_normal((half, fac.shape[1])) @ fac.T
        else:
            z = np.zeros((half, lv.cov.shape[0]))
        # Interleave antithetic pairs so every prefix is itself antithetic.
        paired = np.empty((2 * half, z.shape[1]))
        paired[0::2] = z
        paired[1::2] = -z
        draws.append(paired)

    def value_with(count: int) -> float:
        pts = np.zeros((1, levels[0].cov.shape[0]))
        for z in draws:
            pts = (pts[:, None, :] + z[None, :count, :]).reshape(-1, pts.shape[1])
        vals = np.asarray(terminal(pts))
        wgt = np.full(count, 1.0 / count)
        for lv in reversed(levels):
            vals = vals.reshape(-1, count)
            vals = _log_avg_exp(lv.weight, vals.T, wgt, cfg.small_x_threshold)
        return float(vals.reshape(())) if vals.ndim else float(vals)

    full = 2 * half
    v_full = value_with(full)
    v_half = value_with(half)
    # log-mean-exp bias is O(1/S); Richardson combination cancels it.
    return 2.0 * v_full - v_half


@dataclass(frozen=True)
class RecursionResult:
    value: float
    std_error: float
    engine: str


def recursion_from_levels(terminal, levels: list[Level], cfg: EvalConfig) -> RecursionResult:
    """Evaluate the recursion for an explicit level list."""
    if not levels:
        pts = np.zeros((1, terminal.dim if hasattr(terminal, "dim") else 1))
        return RecursionResult(float(np.asarray(terminal(pts))[0]), 0.0, cfg.engine)
    for lv in levels:
        if not 0.0 <= lv.weight <= 1.0:
            raise ValueError(f"level weight {lv.weight} outside [0, 1]")
    if cfg.engine == "quadrature":
        return RecursionResult(_quadrature_value(terminal, levels, cfg), 0.0, "quadrature")
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.replicas)
    vals = np.array(
        [_mc_value(terminal, levels, cfg, np.random.default_rng(s)) for s in seeds]
    )
    se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return RecursionResult(float(vals.mean()), se, "monte_carlo")


def recursion_value(
    x: UnitPartition,
    chain: MonotoneChain,
    tc: TerminalCondition,
    cfg: EvalConfig | None = None,
) -> RecursionResult:
    """X_0(x, Q, U, tilt): the full descending recursion at the origin."""
    cfg = cfg or EvalConfig()
    return recursion_from_levels(tc, levels_from_order_params(x, chain), cfg)


def overlap_energy_term(x: UnitPartition, chain: MonotoneChain, beta: float) -> float:
    """(beta^2/2) sum_k x_k (||Q[k+1]||_F^2 - ||Q[k]||_F^2), the replica
    interaction energy carried by the hierarchical weights."""
    mats = chain.matrices
    total = 0.0
    for k in range(1, mats.shape[0] - 1):
        total += x.values[k] * (frobenius_norm(mats[k + 1]) ** 2 - frobenius_norm(mats[k]) ** 2)
    return 0.5 * beta**2 * total


def local_functional(
    x: UnitPartition,
    chain: MonotoneChain,
    tc: TerminalCondition,
    cfg: EvalConfig | None = None,
) -> RecursionResult:
    """Local variational functional

        f = -<tilt, U> - (beta^2/2) sum_k x_k (||Q[k+1]||^2 - ||Q[k]||^2) + X_0.
    """
    return functional_from_recursion(x, chain, tc, recursion_value(x, chain, tc, cfg))


def functional_from_recursion(
    x: UnitPartition,
    chain: MonotoneChain,
    tc: TerminalCondition,
    rec: RecursionResult,
) -> RecursionResult:
    """The local functional from an already computed X_0 = ``rec``: adds the
    -<tilt, U> and overlap-energy terms, so a caller holding ``rec`` need not
    run the recursion a second time."""
    val = (
        -frobenius_inner(tc.tilt, chain.terminal)
        - overlap_energy_term(x, chain, tc.beta)
        + rec.value
    )
    return RecursionResult(val, rec.std_error, rec.engine)


def path_functional(
    path: DiscretePath,
    tc: TerminalCondition,
    cfg: EvalConfig | None = None,
) -> RecursionResult:
    """Path form of the functional:

        P = f_rho(0, 0) - (beta^2/2) Int x(t) d||rho(t)||_F^2 - <U, tilt>,

    with the Stieltjes integral taken as the jump sum weighted by the left
    limit of x at each jump.  Identical by construction to local_functional
    on the (x, Q) data extracted from the path.
    """
    return local_functional(path.partition, path.chain, tc, cfg)


def lipschitz_witness(
    path1: DiscretePath,
    path2: DiscretePath,
    tc: TerminalCondition,
    cfg: EvalConfig | None = None,
):
    """(lhs, rhs) with lhs = |X_0(rho1) - X_0(rho2)| and
    rhs = (C/2) * d(rho1, rho2), where d is the L1 distance between the
    weight-versus-overlap profiles (see inverse_profile_distance) and C the
    computable sup |grad g|^2 bound from the measure's support radius.

    The time-integral distance of the matrix paths does NOT dominate the
    difference (weights can differ wildly where values nearly agree); the
    inverse-profile distance is what the value actually responds to.
    """
    from parisi_lab.paths import inverse_profile_distance

    cfg = cfg or EvalConfig()
    v1 = recursion_value(path1.partition, path1.chain, tc, cfg).value
    v2 = recursion_value(path2.partition, path2.chain, tc, cfg).value
    lhs = abs(v1 - v2)
    rhs = 0.5 * tc.gradient_sup_bound() * inverse_profile_distance(path1, path2)
    return lhs, rhs


def evaluation_record(name: str, inputs: dict, result: RecursionResult, seed: int) -> str:
    """One JSON line per evaluation: inputs hash, engine, seed, value, SE."""
    blob = json.dumps({"op": name, "inputs": inputs}, sort_keys=True, default=str)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return json.dumps(
        {
            "op": name,
            "inputs_hash": digest,
            "engine": result.engine,
            "seed": seed,
            "value": result.value,
            "std_error": result.std_error,
        }
    )
