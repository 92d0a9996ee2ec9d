"""The descending Gaussian log-moment recursion and the functionals built on it.

Given a partition x, a monotone chain Q and a terminal condition g, the
recursion runs backward through the levels

    X_k = (1/x_k) log E exp(x_k X_{k+1}),   z_k ~ N(0, Q[k+1] - Q[k]),

with the outermost level a plain expectation, and returns X_0.  Two engines
are provided:

* quadrature: each level is an exact Gaussian convolution evaluated with
  Gauss-Hermite nodes; the level functions live on uniform grids, read
  through one engine at d = 1 and d = 2, the not-a-knot cubic spline held
  as B-spline coefficients (``GridFunction``), so the cost is linear in the
  number of levels.  At d = 2 a full-rank interior level runs as two
  rank-1 sub-steps along the eigen-directions of its covariance, which
  together use the tensor node set of the level: a level reads 2 * nodes
  shifted grids instead of nodes**2, in the backward pass and in the
  gradient's forward pass, which walk the same steps.  At d = 1, X_1 lives
  on the outermost level's own Gauss-Hermite nodes instead of a grid: the
  outermost step reads it there with no spline, so the two outer levels are
  the exact tensor node sum and cost nodes**2 reads of X_2 (at d = 2 the
  nested reads of X_2 cost more than its grids).  Every pass reads the
  factor each level computes once, ``Level.fac``.
  A trailing run of weight-1 levels under a ``TerminalCondition`` needs no
  grid at all: for every measure, log E exp g_tilt(y + z) = g_{tilt +
  beta^2 dQ}(y) with z ~ N(0, dQ), so the engine folds the run into the
  terminal's tilt (``_fold``), exactly.  The saddle's pinned top level x_n = 1
  is such a run, and a replica-symmetric evaluation is then one node sum.
* monte_carlo: nested sampling over all levels at once with antithetic pairs
  and half-sample (Richardson) debiasing of the log-mean-exp bias; standard
  errors come from independent replicas (``seeds.replicate``).  Works for
  any d, cost grows like samples**levels.

Level weights may be arbitrary values in [0, 1] (not only the partition
points); acceptance check 10 uses this generality, where convex
combinations of step profiles appear as weights.

``local_functional_gradient`` adds the first derivatives of the local
functional in the weights, the chain and the tilt: every one is an
expectation under the level reweightings, taken by one forward pass over
the steps and grids of the quadrature engine's backward pass.  That pass
carries its mass back through the exact transpose of each spline read
(``GridFunction.adjoint``), so the gradient is the derivative of the
computed value but for the grids' dependence on the chain and, at d = 2,
the turn of the quadrature nodes with the eigenvectors of each increment.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse import csr_array

from parisi_lab.matrices import frobenius_inner, frobenius_norm, sqrt_factor
from parisi_lab.measures import EvalConfig, TerminalCondition, shifted_grid_points
from parisi_lab.paths import MonotoneChain, UnitPartition
from parisi_lab.seeds import replicate
from parisi_lab.sk import BudgetError


@dataclass(frozen=True)
class Level:
    """One recursion level: averaging weight in [0, 1] and a PSD covariance
    increment for the Gaussian field accumulated at this level."""

    weight: float
    cov: np.ndarray

    @cached_property
    def fac(self) -> np.ndarray:
        """``sqrt_factor(cov)``, computed once per level and read by every pass."""
        return sqrt_factor(self.cov)


def levels_from_order_params(x: UnitPartition, chain: MonotoneChain) -> list[Level]:
    """Standard level list: weights (0, x_1, ..., x_n) against the chain increments."""
    if x.levels != chain.levels:
        raise ValueError("partition and chain level counts differ")
    incs = chain.increments()
    weights = x.values[:-1]
    return [Level(float(w), inc) for w, inc in zip(weights, incs)]


# Points per f_next call in propagate_segment, and per block of its
# streaming reduction.  A block holds as many whole quadrature nodes as fit
# under this budget: every d=1 level of the default grids is one block, and a
# d=2 level is reduced block by block with temporaries near 1 MB.
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


def _gh_nodes(fac: np.ndarray, nodes: int):
    """Gauss-Hermite node vectors and weights for E f(z), z ~ N(0, fac fac^T),
    from a full-column-rank factor such as ``Level.fac``, which it does not
    recompute.  A rank-0 factor yields the single node 0 with weight 1."""
    r = fac.shape[1]
    if r == 0:
        return np.zeros((1, fac.shape[0])), np.ones(1)
    pts, wgt = _gauss_hermite(nodes, r)
    return np.sqrt(2.0) * pts @ fac.T, wgt


def _log_avg_exp(weight: float, blocks) -> np.ndarray:
    """(1/w) log sum_i wgt_i exp(w * vals_i) along the first axis, stabilized,
    streamed over an iterable of ``(vals, wgt)`` blocks of nodes.

    Each block is reduced as soon as it arrives.  The reducer keeps the
    running maximum ``top`` of the values at every output point and the
    running sum of wgt_i exp(w (vals_i - top)); where a later block raises
    the maximum, the sum is rescaled at those points only.  Below
    SMALL_WEIGHT it keeps the running mean and second moment instead and
    returns the expansion mean + (w/2) * variance, removing the
    cancellation of the w -> 0 plain-expectation limit.

    A single block gets exactly the operations of a one-shot reduction, so
    its result does not depend on how the reducer streams.  Every block is
    consumed: it is shifted, scaled and exponentiated (or squared) in place.
    Callers pass blocks they no longer need.
    """
    if weight < SMALL_WEIGHT:
        mean = sq = 0.0
        for vals, wgt in blocks:
            mean += np.tensordot(wgt, vals, axes=(0, 0))
            sq += np.tensordot(wgt, np.multiply(vals, vals, out=vals), axes=(0, 0))
        var = np.maximum(sq - mean * mean, 0.0)
        return mean + 0.5 * weight * var
    top, total = None, 0.0
    for vals, wgt in blocks:
        peak = vals.max(axis=0)
        if top is None:
            top = peak
        else:
            rose = peak > top
            if np.any(rose):
                total[rose] *= np.exp(weight * (top[rose] - peak[rose]))
                top[rose] = peak[rose]
        vals -= top[None, ...]
        vals *= weight
        total += np.tensordot(wgt, np.exp(vals, out=vals), axes=(0, 0))
    return top + np.log(total) / weight


@lru_cache(maxsize=None)
def _interpolation_lu(m: int):
    """LAPACK ``dgbtrf`` factors (lu, piv) of the (m + 2)-square band matrix
    that maps the cubic B-spline coefficients c_-1..c_m of a uniform m-point
    grid to its m values (rows 1..m: (c_i-1 + 4 c_i + c_i+1) / 6) and to the
    jumps of the third derivative at the second and the last-but-one grid
    point (rows 0 and m + 1).  With both jumps zero the spline is the
    not-a-knot interpolant, scipy's default cubic interpolating spline in
    one variable and, axis by axis, fitpack's bicubic interpolating spline
    (the tests compare the engine with both).  Factored once per grid size."""
    band = np.zeros((13, m + 2))  # kl = ku = 4: row 8 + i - j holds entry (i, j)
    band[7, 2:], band[8, 1:-1], band[9, :-2] = 1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0
    j = np.arange(5)
    band[8 - j, j] = band[12 - j, m - 3 + j] = [1.0, -4.0, 6.0, -4.0, 1.0]
    lu, piv, info = dgbtrf(band, 4, 4)
    if info != 0:
        raise ValueError(f"a not-a-knot spline needs at least 4 grid points, got {m}")
    return lu, piv


def _interpolate(a: np.ndarray, axis: int, trans: int) -> np.ndarray:
    """Grid values to B-spline coefficients along ``axis`` (m -> m + 2), or
    with ``trans`` the transpose of that map (m + 2 -> m): one ``dgbtrs``
    solve, every other index a right-hand side."""
    b = np.moveaxis(a, axis, 0)
    if not trans:
        b = np.pad(b, [(1, 1)] + [(0, 0)] * (b.ndim - 1))
    lu, piv = _interpolation_lu(len(b) - 2)
    x = dgbtrs(lu, 4, 4, b.reshape(len(b), -1), piv, trans=trans)[0].reshape(b.shape)
    return np.moveaxis(x[1:-1] if trans else x, 0, axis)


# The uniform cubic B-spline on one interval: row p holds the coefficients
# of u**p, u in [0, 1], in the weights of the interval's four coefficients;
# the second array is the same for the derivative in u.
_BSPLINE = np.array([[1.0, 4.0, 1.0, 0.0], [-3.0, 0.0, 3.0, 0.0], [3.0, -6.0, 3.0, 0.0], [-1.0, 3.0, -3.0, 1.0]]) / 6.0
_BSPLINE_SLOPE = _BSPLINE[1:] * np.array([[1.0], [2.0], [3.0]])


def _taps(grids: list[np.ndarray], axes: list[np.ndarray], shifts: np.ndarray, derivative: bool = False) -> list[list]:
    """Per axis k, the sparse maps from the B-spline coefficients along axis
    k of a function on ``grids`` to the points axes[k] + s_k: one row per
    (shift, point), with the four weights of the values and, with
    ``derivative``, of the y_k-derivative.  A point past the grid takes the
    weights of the end interval.  Every axis but the last maps each shift's
    own copy of the coefficients (block-diagonal), as ``_contract`` reads
    the axes last first."""
    taps = []
    for k, (grid, a) in enumerate(zip(grids, axes)):
        m, h = grid.size, (grid[-1] - grid[0]) / (grid.size - 1)
        t = (a[None, :] + shifts[:, k : k + 1] - grid[0]) / h
        i = np.clip(np.floor(t), 0, m - 2)
        u = t - i
        powers = np.stack([np.ones_like(u), u, u * u, u * u * u], axis=-1)
        copies = len(shifts) if k < len(grids) - 1 else 1
        cols = i.astype(np.intp)[..., None] + np.arange(4) + (m + 2) * np.arange(copies)[:, None, None]
        ptr, shape = np.arange(0, cols.size + 1, 4), (cols.size // 4, (m + 2) * copies)
        weights = [powers @ _BSPLINE] + ([powers[..., :3] @ _BSPLINE_SLOPE / h] if derivative else [])
        taps.append([csr_array((w.ravel(), cols.ravel(), ptr), shape=shape) for w in weights])
    return taps


def _contract(a: np.ndarray, taps, axis: int, size: int) -> np.ndarray:
    """The sparse ``taps`` applied along axis 1 + ``axis`` of ``a``, whose
    axis 0 runs over the shifts or has length 1; that axis gets ``size``
    entries per shift."""
    moved = np.moveaxis(a, axis + 1, 1)
    out = taps @ moved.reshape(moved.shape[0] * moved.shape[1], -1)
    return np.moveaxis(out.reshape((-1, size) + moved.shape[2:]), 1, axis + 1)


class GridFunction:
    """Function of y on a uniform tensor grid, read through a cubic spline.

    The spline is the not-a-knot interpolant of ``values``, held as its
    uniform cubic B-spline ``coefficients`` (m + 2 per axis of m points) and
    built on first use.  Every read, of values or gradients, at any d, is
    one separable contraction per axis with four B-spline taps per point
    (``_taps``), and a point past the grid reads the cubic of the end
    interval.  ``adjoint`` applies the exact transpose of
    ``on_shifted_grids``.  A function that is only read at its own grid
    points through ``values``, such as X_1 on the outermost level's nodes at
    d = 1, never builds coefficients; that grid need not be uniform, and may
    be a single point, the one node of a rank-0 level."""

    def __init__(self, axes: list[np.ndarray], values: np.ndarray):
        self.axes = axes
        self.values = values

    @cached_property
    def coefficients(self) -> np.ndarray:
        c = self.values
        for k in range(self.dim):
            c = _interpolate(c, k, trans=0)
        return c

    @property
    def dim(self) -> int:
        return len(self.axes)

    def _read(self, axes: list[np.ndarray], taps: list[list], slope: int = -1) -> np.ndarray:
        """``coefficients`` contracted along every axis k, the last axis
        first, with the value taps taps[k][0], or on axis ``slope`` with its
        derivative taps taps[k][1]."""
        out = self.coefficients[None]
        for k in reversed(range(self.dim)):
            out = _contract(out, taps[k][int(k == slope)], k, axes[k].size)
        return out

    def on_shifted_grids(self, axes: list[np.ndarray], shifts: np.ndarray) -> np.ndarray:
        """Values on the tensor grids {axes + s} for each row s of shifts,
        shape (len(shifts),) + grid shape."""
        return self._read(axes, _taps(self.axes, axes, shifts))

    def derivatives(self, axes: list[np.ndarray], shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``on_shifted_grids`` and the spline gradient on the same grids,
        shape (len(shifts),) + grid shape + (d,), from the same taps."""
        taps = _taps(self.axes, axes, shifts, derivative=True)
        grad = [self._read(axes, taps, k) for k in range(self.dim)]
        return self._read(axes, taps), np.stack(grad, axis=-1)

    def adjoint(self, axes: list[np.ndarray], shifts: np.ndarray, mass: np.ndarray) -> np.ndarray:
        """The transpose of ``on_shifted_grids(axes, shifts)`` applied to
        ``mass``, an array of its output shape: the array a of the shape of
        ``values`` with <a, values> = <mass, on_shifted_grids(axes, shifts)>
        whatever ``values`` are.  The taps scatter the mass onto the
        coefficients, first axis first, and the transposed band solves take
        it to the grid."""
        out = mass
        for k, (taps,) in enumerate(_taps(self.axes, axes, shifts)):
            out = _contract(out, taps.T, k, self.axes[k].size + 2)
        out = out[0]
        for k in range(self.dim):
            out = _interpolate(out, k, trans=1)
        return out

    def __call__(self, pts) -> np.ndarray:
        """Values at the rows of ``pts``, read as the shifts of a one-point
        grid at the origin."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.on_shifted_grids([np.zeros(1)] * self.dim, pts).reshape(len(pts))


def propagate_segment(f_next, weight: float, fac: np.ndarray, axes: list[np.ndarray], nodes: int) -> GridFunction:
    """One backward Gaussian-convolution step on a grid:

        f(y) = (1/w) log E exp(w * f_next(y + z)),  z ~ N(0, fac fac^T),

    evaluated at every grid point of ``axes``.  This is the exact propagator
    for a single segment of the associated semi-linear PDE, for any
    dimension the grid machinery supports.  ``fac`` is ``Level.fac`` or some
    of its columns; each column gets ``nodes`` Gauss-Hermite nodes.

    The quadrature nodes are evaluated in blocks: a block is as many whole
    nodes as fit in BLOCK_POINTS (2**16) grid points.  An ``f_next`` with an
    ``on_shifted_grids`` method (a GridFunction or a TerminalCondition) gets
    one such call per block and builds its grids its own way; any other
    vectorized callable gets the stacked (block * grid, d) points of
    ``shifted_grid_points``.  Every point gets the same arithmetic as in a
    call per node.  Each block is reduced by the streaming ``_log_avg_exp``
    as soon as it is evaluated, so memory stays at a few blocks whatever the
    node count; no array of all nodes is built.  A level that fits in one
    block, as every d = 1 level of the default grids does, is reduced
    exactly as in one shot.
    """
    shifts, wgt = _gh_nodes(fac, nodes)
    shape = tuple(a.size for a in axes)
    size = int(np.prod(shape))
    if hasattr(f_next, "on_shifted_grids"):
        evaluate = lambda block: f_next.on_shifted_grids(axes, block)
    else:
        evaluate = lambda block: np.asarray(
            f_next(shifted_grid_points(axes, block).reshape(-1, len(axes)))
        ).reshape((len(block),) + shape)
    step = max(1, BLOCK_POINTS // size)
    blocks = (
        (evaluate(shifts[start : start + step]), wgt[start : start + step])
        for start in range(0, shifts.shape[0], step)
    )
    return GridFunction(axes, _log_avg_exp(weight, blocks))


def _fold_start(terminal, levels: list[Level]) -> int:
    """The first level of the trailing run of weight-1 levels that the
    quadrature engine folds into ``terminal``: len(levels) when nothing
    folds, which is always the case unless ``terminal`` is a
    ``TerminalCondition``."""
    top = len(levels)
    if isinstance(terminal, TerminalCondition):
        while top > 0 and levels[top - 1].weight == 1.0:
            top -= 1
    return top


def _fold(terminal, levels: list[Level]):
    """(terminal, top): the terminal of the quadrature engine and the number
    of levels it still integrates.  Levels top.. have weight 1 and fold into
    ``TerminalCondition(beta, tilt + beta^2 sum dQ_k, mu)``, since
    E exp(sqrt(2) beta <z, s>) = exp(beta^2 <dQ s, s>) for z ~ N(0, dQ) turns
    log E exp g_tilt(y + z) into g_{tilt + beta^2 dQ}(y).  For a Gaussian mu
    both sides are finite exactly when C - 2 (tilt + beta^2 dQ) is positive
    definite; the folded terminal raises ``MeasureError`` on its first
    evaluation otherwise, where the level's integral diverges."""
    top = _fold_start(terminal, levels)
    if top == len(levels):
        return terminal, top
    tilt = terminal.tilt + terminal.beta**2 * sum(lv.cov for lv in levels[top:])
    return TerminalCondition(terminal.beta, tilt, terminal.mu), top


def _backward_pass(terminal, levels: list[Level], cfg: EvalConfig) -> tuple[list[tuple], float]:
    """The quadrature engine: its plan and X_0 at the origin.

    The levels from ``_fold`` on are folded into the terminal first.  The
    plan has one entry per quadrature step of the other levels, in forward
    order: ``(k, fac, f)``, where a step of level k integrates the columns
    ``fac`` of ``Level.fac`` against ``f``, the function it reads: a
    ``GridFunction`` built by this pass, or the (folded) terminal at the last
    step.  The outermost level is one step from the origin and reads X_1
    (the terminal when one level is left); its value is X_0.  When every
    level folds, that step has a rank-0 factor: its one node is the origin.
    Only the grid functions are kept; each step's node values are reduced
    block by block as they are evaluated.

    At d = 2 a full-rank interior level is two rank-1 ``propagate_segment``
    steps with the level's weight, each taking one column sqrt(lam_i) v_i
    of ``Level.fac`` as its factor: z ~ N(0, dQ) is z_1 + z_2 with
    independent z_i ~ N(0, lam_i v_i v_i^T), so

        (1/w) log E exp(w f(y + z)) = (1/w) log E exp(w L(y + z_1)),
        L(y) = (1/w) log E exp(w f(y + z_2)).

    The inner step integrates the column of the larger eigenvalue, lam_2,
    and puts L on an intermediate grid that reaches sqrt(2) xmax
    |sqrt(lam_1) v_1| beyond the level's own grid, as far as the outer
    step's nodes go.  Together the two steps use exactly the level's tensor
    Gauss-Hermite nodes and weights, so their one new approximation is the
    ``GridFunction`` spline of L, and a level reads 2 * nodes shifted grids
    instead of nodes**2.  By Cauchy-Schwarz, sqrt(2) xmax (sqrt(lam_1) |v_1i| +
    sqrt(lam_2) |v_2i|) <= 2 xmax sqrt(dQ_ii), so every point the inner step
    evaluates lies inside the grid of X_{k+1}.  A level of rank <= 1, and
    every d = 1 level, is one step.

    At d = 1 (``_reads_nodes``) the step that makes X_1 puts it on the
    outermost level's Gauss-Hermite nodes, not on a ``grid_points`` grid,
    and the outermost step reads those values directly.  The two outer
    levels are then the exact two-level tensor node sum, with no spline of
    X_1: nodes**2 reads of X_2 instead of grid_points * nodes, and no spline
    build.  Deeper levels keep their grids.  A rank-0 outermost level has the
    one node 0, a one-point "grid" that never needs a spline."""
    d = levels[0].cov.shape[0]
    if d > 2:
        raise ValueError("quadrature engine supports d <= 2; use monte_carlo")
    terminal, top = _fold(terminal, levels)
    per_axis = cfg.grid_points if d == 1 else cfg.grid_points_2d
    # Grid for level k covers every point reachable by nodes of levels < k.
    halfw = []
    acc = np.full(d, GRID_PAD)
    xmax = float(np.abs(_gauss_hermite(cfg.nodes, 1)[0]).max())
    for lv in levels:
        acc = acc + 2.0 * np.sqrt(np.clip(np.diag(lv.cov), 0.0, None)) * xmax
        halfw.append(acc.copy())

    def grid(half):
        return [np.linspace(-wi, wi, per_axis) for wi in half]

    outer = levels[0].fac if top else np.zeros((d, 0))
    shifts, wgt = _gh_nodes(outer, cfg.nodes)
    nodal = _reads_nodes(d, top)
    plan = []
    f = terminal
    for k in range(top - 1, 0, -1):
        w, fac = levels[k].weight, levels[k].fac
        if fac.shape[1] == 2:
            reach = halfw[k - 1] + np.sqrt(2.0) * xmax * np.abs(fac[:, 0])
            plan.append((k, fac[:, 1:], f))
            f = propagate_segment(f, w, fac[:, 1:], grid(reach), cfg.nodes)
            fac = fac[:, :1]
        plan.append((k, fac, f))
        axes = [shifts[:, 0]] if nodal and k == 1 else grid(halfw[k - 1])
        f = propagate_segment(f, w, fac, axes, cfg.nodes)
    plan.append((0, outer, f))
    plan.reverse()
    # _log_avg_exp consumes its block, and the forward pass reads X_1's values.
    vals = f.values.copy() if nodal else np.asarray(f(shifts))
    return plan, float(_log_avg_exp(levels[0].weight, [(vals, wgt)]))


def _reads_nodes(d: int, top: int) -> bool:
    """Whether X_1 lives on the outermost level's nodes, where the outermost
    step reads it with no spline: at d = 1, whenever ``_fold`` leaves a level
    after the outermost one to integrate (``top`` levels are left)."""
    return d == 1 and top > 1


def _forward_pass(tc: TerminalCondition, levels: list[Level], plan: list[tuple], x0: float, cfg: EvalConfig):
    """First derivatives of X_0 in each level's weight w_k and covariance
    increment dQ_k and in the tilt, from one sweep over the plan of
    ``_backward_pass``: the same steps and grids, so the gradient comes from
    the discretization of the value it is returned with.

    The sweep carries pi, the law of the point under the level reweightings,
    starting from the point mass at the origin; ``here`` is the function the
    previous step read (X_0 at the origin first).  Node j of a step of level
    k with factor columns F moves mass pi(y) p_j(y) to y + z_j, z_j = sqrt(2)
    F xi_j, where p_j = wgt_j exp(w_k (f(y + z_j) - here(y))) is the
    derivative of here(y) in f(y + z_j).  The moved mass goes to the grid of
    f through ``f.adjoint``, the exact transpose of the spline read
    ``f.derivatives`` makes, so every weight the value gives a grid value of
    f comes back as that grid point's mass; the spline's weights change
    sign, so this mass can be negative at a grid point.  Each step adds

        E_pi[(E^{W} f - here) / w_k]  (1/2 Var below SMALL_WEIGHT, as in
                                       _log_avg_exp)  to dX_0/dw_k,
        E_pi[grad f(y + z_j) z_j^T]                   to A_k,
        E_pi[<s s^T>] at the terminal                 to dX_0/dtilt,

    and then dX_0/ddQ_k = sym(A_k dQ_k^+ / 2), with dQ_k^+ from
    ``pinv(Level.fac)`` once per level.  f, its gradient and, at the
    terminal, <s s^T> come from one ``derivatives(axes, block)`` call per
    block of nodes.

    A level of one step gives the usual dX_0/dw_k = E_pi[(E^{W_k} X_{k+1} -
    X_k) / w_k] and A_k = E_pi[grad X_{k+1}(y + z) z^T].  A split d = 2 level,
    X_k = (1/w) log E exp(w L(y + z_1)) with L = (1/w) log E exp(w X_{k+1}(y
    + z_2)), has dX_k/dw = (E^{W_1} L - X_k)/w + E^{W_1}[dL/dw], so its two
    steps telescope: the outer step's (E^{W_1} L - X_k)/w under pi_k plus
    the inner step's (E^{W_2} X_{k+1} - L)/w under the mass the outer step
    carried.  Below SMALL_WEIGHT they telescope the same way, by the law of
    total variance: Var(X_{k+1}) = Var_1(E_2 X_{k+1}) + E_1 Var_2(X_{k+1}),
    with L -> E_2 X_{k+1} as w -> 0.  The quadrature nodes of the two steps
    are z_1 + z_2 with z_i on column i, so A_k = E[grad L z_1^T] + E[grad
    X_{k+1} z_2^T], with grad L the spline gradient of L.

    The dQ_k formula is the derivative of the quadrature sum itself: its
    nodes sqrt(2) F xi move with the factor, F F^T = dQ_k.  By Gaussian
    integration by parts it equals the continuum 1/2 E_pi[Hess X_{k+1} + w_k
    grad X_{k+1} grad X_{k+1}^T], but it needs no second derivative, whose
    node sum is far less accurate where X_{k+1} bends sharply (large beta).
    It is exact at d = 1; at d = 2 it leaves out how the node directions turn
    with the eigenvectors of dQ_k, a quadrature artifact.  Directions
    outside the range of dQ_k, where the nodes do not move, read 0.  Matrix
    derivatives pair with a symmetric perturbation by the Frobenius product.

    At d = 1 with X_1 on the outermost level's nodes y_i (``_reads_nodes``),
    the outermost step reads X_1(y_i) from the backward pass and its mass
    pi_i = p_i stays on the nodes, which are no uniform grid for a spline;
    there is no spline gradient of X_1.  Its A_0 = E_pi[grad
    X_1(y) y^T] is added by the level-1 step instead, from the gradient of
    the function f that step reads: X_1(y) = (1/w) log sum_j wgt_j exp(w
    f(y + z_j)) gives grad X_1(y_i) = sum_j p_ij grad f(y_i + z_j), where
    p_ij = wgt_j exp(w (f(y_i + z_j) - X_1(y_i))) sums to 1 over j, so

        A_0 = sum_i pi_i grad X_1(y_i) y_i^T = sum_ij moving_ij grad f(y_i + z_j) y_i^T,

    with moving_ij = pi_i p_ij the mass that step moves.  This is the
    derivative of the node sum, exactly; below SMALL_WEIGHT, where X_1 is
    the variance expansion, p_ij matches its gradient weights to O(w^2).

    A level folded into the terminal (``_fold``) has no step.  Its dQ_k
    moves the folded tilt by beta^2 dQ_k, so dX_0/ddQ_k = beta^2 dX_0/dtilt,
    exactly.  Its weight is pinned at 1, where the fold has no derivative in
    it: dX_0/dw_k is NaN there.
    """
    d = tc.dim
    top = _fold_start(tc, levels)
    nodal = _reads_nodes(d, top)
    d_weight = np.zeros(len(levels))
    moves = np.zeros((len(levels), d, d))  # A_k
    d_tilt = np.zeros((d, d))
    axes = [np.zeros(1)] * d
    here = np.full((1,) * d, x0)  # the function the previous step read, on its grid
    mass = np.ones((1,) * d)      # pi on that grid
    expand = (slice(None),) + (None,) * d
    for k, fac, f in plan:
        shifts, wgt = _gh_nodes(fac, cfg.nodes)
        weight = levels[k].weight
        last = isinstance(f, TerminalCondition)
        small = weight < SMALL_WEIGHT
        on_nodes = nodal and k == 0  # X_1 is read at its own grid points
        sum_v = np.zeros(here.shape)   # sum_j p_j v_j, or wgt_j v_j below the threshold
        sum_sq = np.zeros(here.shape)  # sum_j wgt_j v_j^2 below the threshold
        moved = None if last else np.zeros(f.values.shape)
        step = max(1, BLOCK_POINTS // here.size)
        for start in range(0, shifts.shape[0], step):
            block = shifts[start : start + step]
            if on_nodes:
                vals = f.values[start : start + step, None]
            else:
                vals, grad, *moment = f.derivatives(axes, block)
            node_w = wgt[start : start + step][expand]
            p = node_w * np.exp(weight * (vals - here[None]))
            if small:
                sum_v += (node_w * vals).sum(axis=0)
                sum_sq += (node_w * vals * vals).sum(axis=0)
            else:
                sum_v += (p * vals).sum(axis=0)
            moving = mass[None] * p
            flat = moving.reshape(len(block), -1)
            if on_nodes:
                moved[start : start + step] = flat[:, 0]
                continue
            grad = grad.reshape(flat.shape + (d,))
            moves[k] += np.einsum("bm,bmi->bi", flat, grad).T @ block
            if nodal and k == 1:
                # A_0 = E_pi[grad X_1(y) y^T], with grad X_1(y_m) = sum_b p_bm grad f(y_m + z_b).
                moves[0] += np.einsum("bm,bmi->mi", flat, grad).T @ axes[0][:, None]
            if last:
                d_tilt += np.tensordot(flat.ravel(), moment[0].reshape(-1, d, d), axes=1)
            else:
                moved += f.adjoint(axes, block, moving)
        if small:
            per_point = 0.5 * np.maximum(sum_sq - sum_v * sum_v, 0.0)
        else:
            per_point = (sum_v - here) / weight
        d_weight[k] += float(np.sum(mass * per_point))
        if not last:
            mass, here, axes = moved, f.values, f.axes
    for k, lv in enumerate(levels[:top]):
        back = np.linalg.pinv(lv.fac)
        moves[k] = 0.5 * moves[k] @ back.T @ back
    d_cov = 0.5 * (moves + moves.transpose(0, 2, 1))
    d_cov[top:] = tc.beta**2 * d_tilt
    d_weight[top:] = np.nan
    return d_weight, d_cov, d_tilt


def _mc_value(terminal, levels: list[Level], cfg: EvalConfig, rng: np.random.Generator) -> float:
    """Nested Monte Carlo with antithetic pairs and half-sample debiasing.

    Raises BudgetError, before any draw, when the (2 * half)**levels
    terminal points exceed MC_POINT_BUDGET."""
    half = cfg.samples // 2
    points = (2 * half) ** len(levels)
    if points > MC_POINT_BUDGET:
        raise BudgetError(
            f"{points} Monte Carlo points exceed the budget of {MC_POINT_BUDGET}; "
            "use fewer samples or levels"
        )
    draws = []
    for lv in levels:
        z = rng.standard_normal((half, lv.fac.shape[1])) @ lv.fac.T
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
            vals = _log_avg_exp(lv.weight, [(vals.T, wgt)])
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
    """Evaluate the recursion for an explicit, nonempty level list."""
    for lv in levels:
        if not 0.0 <= lv.weight <= 1.0:
            raise ValueError(f"level weight {lv.weight} outside [0, 1]")
    if cfg.engine == "quadrature":
        return RecursionResult(_backward_pass(terminal, levels, cfg)[1], 0.0, "quadrature")
    mean, se, _ = replicate(
        lambda s: _mc_value(terminal, levels, cfg, np.random.default_rng(s)), cfg.replicas, cfg.seed
    )
    return RecursionResult(float(mean), float(se), "monte_carlo")


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
    df = sum_k <chain[k], dQ_{k+1}> + <tilt, dtilt>.  A top point x_n = 1
    is pinned: its level folds into the terminal, and its entry of ``x`` is
    NaN, not a derivative, so that a reader of it fails loudly."""

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
    plan, x0 = _backward_pass(tc, levels, cfg)
    d_weight, d_cov, d_tilt = _forward_pass(tc, levels, plan, x0, cfg)
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
