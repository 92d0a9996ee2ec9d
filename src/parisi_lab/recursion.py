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

``local_functional_gradient`` adds the first derivatives of the local
functional in the weights, the chain and the tilt: every one is an
expectation under the level reweightings, taken by one forward pass over
the grids the quadrature engine's backward pass built.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.interpolate import CubicSpline, RectBivariateSpline

from parisi_lab.matrices import frobenius_inner, frobenius_norm, sqrt_factor
from parisi_lab.measures import EvalConfig, TerminalCondition, shifted_grid_points
from parisi_lab.paths import DiscretePath, MonotoneChain, UnitPartition
from parisi_lab.sk import BudgetError


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

# Margin of the quadrature grids beyond every point the nodes reach.
GRID_PAD = 1.0

# Below this level weight the recursion uses its small-weight expansion.
SMALL_WEIGHT = 1e-6

# Largest number of terminal points, (2 * half)**levels, that one nested
# Monte Carlo estimate may evaluate: each is d floats, so the budget caps the
# point array near 128 MB per dimension.
MC_POINT_BUDGET = 2**24


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


def _log_avg_exp(weight: float, vals: np.ndarray, wgt: np.ndarray) -> np.ndarray:
    """(1/w) log sum_i wgt_i exp(w * vals_i) along the first axis, stabilized.

    Below SMALL_WEIGHT the expansion mean + (w/2) * variance is used,
    removing the cancellation of the w -> 0 plain-expectation limit.

    The value block ``vals`` is consumed: it is shifted, scaled and
    exponentiated (or squared) in place, so the reduction needs no second
    block.  Callers pass a block they no longer need.
    """
    if weight < SMALL_WEIGHT:
        mean = np.tensordot(wgt, vals, axes=(0, 0))
        sq = np.tensordot(wgt, np.multiply(vals, vals, out=vals), axes=(0, 0))
        var = np.maximum(sq - mean * mean, 0.0)
        return mean + 0.5 * weight * var
    top = vals.max(axis=0)
    vals -= top[None, ...]
    vals *= weight
    shifted = np.exp(vals, out=vals)
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

    def gradient_on_shifted_grids(self, axes: list[np.ndarray], shifts: np.ndarray) -> np.ndarray:
        """Spline gradient on the grids {axes + s}, shape (len(shifts),) +
        grid shape + (d,)."""
        if self.dim == 1:
            return self._spline(axes[0][None, :] + shifts[:, 0:1], 1)[..., None]
        parts = [
            np.stack([self._spline(axes[0] + s[0], axes[1] + s[1], dx=dx, dy=1 - dx) for s in shifts])
            for dx in (1, 0)
        ]
        return np.stack(parts, axis=-1)

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

    evaluated at every grid point of ``axes``.  This is the exact propagator
    for a single segment of the associated semi-linear PDE, for any
    dimension the grid machinery supports.

    The quadrature nodes are evaluated in blocks: a block is as many whole
    nodes as fit in BLOCK_POINTS (2**16) grid points.  An ``f_next`` with an
    ``on_shifted_grids`` method (a GridFunction or a TerminalCondition) gets
    one such call per block and builds its grids its own way; any other
    vectorized callable gets the stacked (block * grid, d) points of
    ``shifted_grid_points``.  Every point gets the same arithmetic as in a
    call per node, so the values do not depend on the block size.  The
    value block of all nodes is then reduced in place by ``_log_avg_exp``.
    """
    shifts, wgt = _gh_nodes(cov, cfg.nodes)
    shape = tuple(a.size for a in axes)
    size = int(np.prod(shape))
    if hasattr(f_next, "on_shifted_grids"):
        evaluate = lambda block: f_next.on_shifted_grids(axes, block)
    else:
        evaluate = lambda block: np.asarray(
            f_next(shifted_grid_points(axes, block).reshape(-1, len(axes)))
        ).reshape((len(block),) + shape)
    step = max(1, BLOCK_POINTS // size)
    vals = np.empty((shifts.shape[0],) + shape)
    for start in range(0, shifts.shape[0], step):
        vals[start : start + step] = evaluate(shifts[start : start + step])
    out = _log_avg_exp(weight, vals, wgt)
    return GridFunction(axes, out)


def _backward_pass(terminal, levels: list[Level], cfg: EvalConfig) -> tuple[list[GridFunction], float]:
    """The quadrature engine: X_1 .. X_n as grid functions (X_k at index
    k - 1) and X_0 at the origin.  Only the level functions are kept; the
    per-node value blocks of each level are freed once it is done."""
    d = levels[0].cov.shape[0]
    if d > 2:
        raise ValueError("quadrature engine supports d <= 2; use monte_carlo")
    per_axis = cfg.grid_points if d == 1 else cfg.grid_points_2d
    # Grid for level k covers every point reachable by nodes of levels < k.
    halfw = []
    acc = np.full(d, GRID_PAD)
    xmax = float(np.abs(_gauss_hermite(cfg.nodes, 1)[0]).max())
    for lv in levels:
        acc = acc + 2.0 * np.sqrt(np.clip(np.diag(lv.cov), 0.0, None)) * xmax
        halfw.append(acc.copy())

    fs = []
    f = None
    for k in range(len(levels) - 1, 0, -1):
        axes = [np.linspace(-wi, wi, per_axis) for wi in halfw[k - 1]]
        f = propagate_segment(terminal if f is None else f, levels[k].weight, levels[k].cov, axes, cfg)
        fs.append(f)
    fs.reverse()
    # Outermost level: evaluate at the origin only.
    shifts, wgt = _gh_nodes(levels[0].cov, cfg.nodes)
    vals = np.asarray(terminal(shifts)) if f is None else f(shifts)
    return fs, float(_log_avg_exp(levels[0].weight, vals, wgt))


def _deposit(mass: np.ndarray, coords: list[np.ndarray], axes: list[np.ndarray]) -> np.ndarray:
    """Spread point masses onto the uniform tensor grid ``axes`` with linear
    (d = 1) or bilinear (d = 2) weights.  ``coords[i]`` holds the i-th
    coordinate of every point, in the shape of ``mass``.  Total mass and the
    first moments are kept exactly; points outside the grid go to its edge."""
    cells = []
    for c, a in zip(coords, axes):
        t = np.clip((c - a[0]) / (a[1] - a[0]), 0.0, a.size - 1.0).ravel()
        i = np.minimum(t.astype(np.intp), a.size - 2)
        cells.append((i, t - i))
    shape = tuple(a.size for a in axes)
    out = np.zeros(int(np.prod(shape)))
    for corner in itertools.product((0, 1), repeat=len(axes)):
        wgt = mass.ravel()
        flat = 0
        for (i, frac), upper, a in zip(cells, corner, axes):
            wgt = wgt * (frac if upper else 1.0 - frac)
            flat = flat * a.size + i + upper
        out += np.bincount(flat, wgt, minlength=out.size)
    return out.reshape(shape)


def _forward_pass(tc: TerminalCondition, levels: list[Level], fs: list[GridFunction], x0: float, cfg: EvalConfig):
    """First derivatives of X_0 in each level's weight w_k and covariance
    increment dQ_k and in the tilt, from one sweep over the grids of
    ``_backward_pass``.

    The sweep carries pi_k, the law of y_k under the level reweightings,
    starting from the point mass at the origin.  Node j of level k moves
    mass pi_k(y) p_j(y) to y + z_j, where p_j = wgt_j exp(w_k (X_{k+1}(y +
    z_j) - X_k(y))) is the derivative of X_k(y) in X_{k+1}(y + z_j); the
    moved mass is deposited on the grid of level k + 1.  Along the way

        dX_0/dw_k  = E_pi[(E^{W_k} X_{k+1} - X_k) / w_k]   (1/2 Var below
                     SMALL_WEIGHT, as in _log_avg_exp),
        dX_0/ddQ_k = sym(A_k dQ_k^+ / 2),  A_k = E_pi[grad X_{k+1}(y + z_j) z_j^T],
        dX_0/dtilt = E_pi[<s s^T>] at the terminal level,

    with X_{k+1} and its gradient read from the level splines and, at the
    last level, from ``TerminalCondition.derivatives``.  The dQ_k formula is
    the derivative of the quadrature sum itself: its nodes z_j = sqrt(2) L
    xi_j move with the factor L L^T = dQ_k.  By Gaussian integration by parts
    it equals the continuum 1/2 E_pi[Hess X_{k+1} + w_k grad X_{k+1}
    grad X_{k+1}^T], but it needs no second derivative, whose node sum is
    far less accurate where X_{k+1} bends sharply (large beta).  It is exact
    at d = 1; at d = 2 it leaves out how the tensor node grid turns with the
    eigenvectors of dQ_k, a quadrature artifact.  Directions outside the
    range of dQ_k, where the nodes do not move, read 0.  Matrix derivatives
    pair with a symmetric perturbation by the Frobenius product.
    """
    d = tc.dim
    n = len(levels) - 1
    d_weight = np.zeros(n + 1)
    d_cov = np.zeros((n + 1, d, d))
    d_tilt = np.zeros((d, d))
    axes = [np.zeros(1)] * d
    here = np.full((1,) * d, x0)  # X_k on the level-k grid
    mass = np.ones((1,) * d)      # pi_k on the level-k grid
    for k, lv in enumerate(levels):
        shifts, wgt = _gh_nodes(lv.cov, cfg.nodes)
        shape = here.shape
        last = k == n
        small = lv.weight < SMALL_WEIGHT
        sum_v = np.zeros(shape)   # sum_j p_j v_j, or wgt_j v_j below the threshold
        sum_sq = np.zeros(shape)  # sum_j wgt_j v_j^2 below the threshold
        moves = np.zeros((d, d))  # A_k
        moved = None if last else np.zeros(fs[k].values.shape)
        expand = (slice(None),) + (None,) * d
        step = max(1, BLOCK_POINTS // here.size)
        for start in range(0, shifts.shape[0], step):
            block = shifts[start : start + step]
            pts = shifted_grid_points(axes, block)
            if last:
                vals, grad, moment = tc.derivatives(pts.reshape(-1, d))
                vals = vals.reshape((len(block),) + shape)
            else:
                vals = fs[k].on_shifted_grids(axes, block)
                grad = fs[k].gradient_on_shifted_grids(axes, block)
            node_w = wgt[start : start + step][expand]
            p = node_w * np.exp(lv.weight * (vals - here[None]))
            if small:
                sum_v += (node_w * vals).sum(axis=0)
                sum_sq += (node_w * vals * vals).sum(axis=0)
            else:
                sum_v += (p * vals).sum(axis=0)
            moving = mass[None] * p
            flat = moving.reshape(len(block), -1)
            moves += np.einsum("bm,bmi,bj->ij", flat, grad.reshape(flat.shape + (d,)), block)
            if last:
                d_tilt += np.tensordot(flat.ravel(), moment, axes=1)
            else:
                moved += _deposit(moving, [pts[..., i] for i in range(d)], fs[k].axes)
        back = np.linalg.pinv(sqrt_factor(lv.cov))
        half = 0.5 * moves @ back.T @ back
        d_cov[k] = 0.5 * (half + half.T)
        if small:
            per_point = 0.5 * np.maximum(sum_sq - sum_v * sum_v, 0.0)
        else:
            per_point = (sum_v - here) / lv.weight
        d_weight[k] = float(np.sum(mass * per_point))
        if not last:
            mass, here, axes = moved, fs[k].values, fs[k].axes
    return d_weight, d_cov, d_tilt


def _mc_value(terminal, levels: list[Level], cfg: EvalConfig, rng: np.random.Generator) -> float:
    """Nested Monte Carlo with antithetic pairs and half-sample debiasing.

    Raises BudgetError, before any draw, when the (2 * half)**levels
    terminal points exceed MC_POINT_BUDGET."""
    half = max(4, cfg.samples // 2)
    points = (2 * half) ** len(levels)
    if points > MC_POINT_BUDGET:
        raise BudgetError(
            f"{points} Monte Carlo points exceed the budget of {MC_POINT_BUDGET}; "
            "use fewer samples or levels"
        )
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
            vals = _log_avg_exp(lv.weight, vals.T, wgt)
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
        return RecursionResult(_backward_pass(terminal, levels, cfg)[1], 0.0, "quadrature")
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


@dataclass(frozen=True)
class FunctionalGradient:
    """First derivatives of the local functional in the interior partition
    points x_1..x_n (shape (n,)), the interior chain matrices Q_1..Q_n
    (shape (n, d, d)) and the tilt (d, d).  Matrix derivatives are symmetric
    and pair with a symmetric perturbation by the Frobenius product:
    df = sum_k <chain[k], dQ_{k+1}> + <tilt, dtilt>."""

    x: np.ndarray
    chain: np.ndarray
    tilt: np.ndarray


def local_functional_gradient(
    x: UnitPartition,
    chain: MonotoneChain,
    tc: TerminalCondition,
    cfg: EvalConfig | None = None,
) -> tuple[RecursionResult, FunctionalGradient]:
    """The local functional, bit-identical to ``local_functional``, and its
    gradient: one quadrature backward pass plus one forward reweighting
    pass (``_forward_pass``) over the same grids.  With w_k = x_k and
    dQ_k = Q[k+1] - Q[k],

        df/dx_k = dX_0/dw_k - (beta^2/2) (||Q[k+1]||^2 - ||Q[k]||^2),
        df/dQ_k = dX_0/ddQ_{k-1} - dX_0/ddQ_k + beta^2 (x_k - x_{k-1}) Q[k],
        df/dtilt = dX_0/dtilt - U.

    Only the quadrature engine is supported.
    """
    cfg = cfg or EvalConfig()
    if cfg.engine != "quadrature":
        raise ValueError("the functional gradient needs the quadrature engine")
    levels = levels_from_order_params(x, chain)
    fs, x0 = _backward_pass(tc, levels, cfg)
    d_weight, d_cov, d_tilt = _forward_pass(tc, levels, fs, x0, cfg)
    result = functional_from_recursion(x, chain, tc, RecursionResult(x0, 0.0, "quadrature"))
    mats = chain.matrices
    n = chain.levels
    sq_norms = np.array([frobenius_norm(m) ** 2 for m in mats])
    beta2 = tc.beta**2
    grad_x = d_weight[1:] - 0.5 * beta2 * np.diff(sq_norms)[1:]
    steps = np.diff(x.values)[:n]
    grad_chain = d_cov[:-1] - d_cov[1:] + beta2 * steps[:, None, None] * mats[1:-1]
    return result, FunctionalGradient(grad_x, grad_chain, d_tilt - chain.terminal)


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
