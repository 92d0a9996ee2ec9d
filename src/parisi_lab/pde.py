"""Independent PDE and control oracles for the recursion.

The level structure of the recursion is equivalent to the terminal-value
problem for the semi-linear parabolic equation

    df/dt + (Qdot(t)/2) * (d2f/dy2 + x(t) * (df/dy)^2) = 0,   f(1, y) = g(y),

with the diffusion coefficient Qdot the slope of the linear interpolant of
the step path and x(t) the step profile of weights, matched continuously at
the jump times.  Both are read off the one container of the order
parameters, ``paths.DiscretePath``, segment by segment
(``PdeProblem.segment``).  Two independent routes are implemented:

* solve_parisi_pde: backward Crank-Nicolson finite differences in d = 1 with
  a lagged-gradient fixed point for the quadratic nonlinearity;
* simulate_control_value: Euler-Maruyama simulation of the controlled
  diffusion whose value function solves the same equation
  (dY = -(x Qdot)^{1/2} u dt + Qdot^{1/2} dW, payoff g(Y_1) - int ||u||^2/2),
  with the optimal feedback control u* = -(x Qdot)^{1/2} df/dy read off the
  finite-difference solution (``PdeSolution.feedback``).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_banded

from parisi_lab.measures import EvalConfig
from parisi_lab.paths import DiscretePath
# propagate_segment is not called here.  It stays in this namespace because
# perfbench/spans.py instruments pde.propagate_segment.
from parisi_lab.recursion import propagate_segment  # noqa: F401
from parisi_lab.sk import BudgetError

# Largest table of time rows x grid points that one solve may store, the
# budget of the other engines.
CELL_BUDGET = 2**24


class PdeError(RuntimeError):
    """Raised when the nonlinear solve fails to converge."""


@dataclass(frozen=True)
class PdeProblem:
    """Finite-difference problem data for the d = 1 solver."""

    path: DiscretePath
    terminal: object                     # vectorized g(y)
    spacing: float = 0.01

    def __post_init__(self) -> None:
        if self.path.dim != 1:
            raise ValueError("finite-difference problems are one-dimensional")
        if not self.spacing > 0.0:
            raise ValueError(f"spacing must be positive, got {self.spacing!r}")

    def segment(self, seg: int) -> tuple[float, float, float, float]:
        """(t0, t1, qdot, x) on segment ``seg`` = [x_seg, x_{seg+1}): its end
        times, the slope of the linear interpolant through (x_k, Q[k]) and
        the weight x_seg."""
        t = self.path.partition.values
        q = self.path.chain.matrices[:, 0, 0]
        dt = t[seg + 1] - t[seg]
        return t[seg], t[seg + 1], float((q[seg + 1] - q[seg]) / dt), float(t[seg])

    def segment_at(self, t: float) -> tuple[float, float, float, float]:
        """``segment`` of the segment that holds time t."""
        seg = int(np.searchsorted(self.path.partition.values, t, side="right") - 1)
        return self.segment(min(max(seg, 0), self.path.partition.levels))

    def half_points(self) -> float:
        """Grid points on each side of the origin, out to six standard
        deviations of Q(1) plus one; a float, inf once the spacing underflows."""
        half = 6.0 * math.sqrt(max(float(self.path.terminal[0, 0]), 1e-12)) + 1.0
        return float(np.ceil(half / self.spacing))

    def grid(self) -> np.ndarray:
        m = int(self.half_points())
        return np.linspace(-m * self.spacing, m * self.spacing, 2 * m + 1)

    def time_steps(self) -> list[int]:
        """Crank-Nicolson steps per segment: dt ~ spacing, at least 2."""
        per_unit = max(int(round(1.0 / self.spacing)), 8)
        segments = map(self.segment, range(self.path.partition.levels + 1))
        return [max(int(np.ceil((t1 - t0) * per_unit)), 2) for t0, t1, _, _ in segments]


@dataclass(frozen=True)
class PdeSolution:
    y: np.ndarray
    times: np.ndarray
    values: np.ndarray        # (len(times), len(y)), values[0] is t=0
    fixpoint_iters: int
    problem: PdeProblem

    def at_origin(self) -> float:
        j = int(np.argmin(np.abs(self.y)))
        return float(self.values[0, j])

    def _row(self, t: float) -> np.ndarray:
        """Values on the y grid at time t, linear in t between stored rows."""
        ti = np.searchsorted(self.times, t, side="right") - 1
        ti = min(max(ti, 0), len(self.times) - 2)
        w = (t - self.times[ti]) / (self.times[ti + 1] - self.times[ti])
        return (1.0 - w) * self.values[ti] + w * self.values[ti + 1]

    def gradient(self, t: float, y: np.ndarray) -> np.ndarray:
        return np.interp(y, self.y, np.gradient(self._row(t), self.y))

    def feedback(self, t: float, y: np.ndarray) -> np.ndarray:
        """The optimal control u*(t, y) of the verification argument: the
        Hamiltonian sup_u [-(x qdot)^{1/2} u f_y - u^2/2] peaks at
        u = -(x qdot)^{1/2} f_y."""
        _, _, qdot, xw = self.problem.segment_at(t)
        return -np.sqrt(max(xw * qdot, 0.0)) * self.gradient(t, y)

    def to_csv(self) -> str:
        """One "t,y,f" line per grid point, each number as its repr.  The
        repr of each y and of each time is made once, not once per line."""
        buf = io.StringIO()
        buf.write("t,y,f\n")
        ys = [f",{yy!r}," for yy in self.y.tolist()]
        for t, row in zip(self.times.tolist(), self.values.tolist()):
            tr = repr(t)
            for yy, f in zip(ys, row):
                buf.write(f"{tr}{yy}{f!r}\n")
        return buf.getvalue()


def _second_diff_banded(m: int, h: float) -> np.ndarray:
    """Banded (3, m) representation of the second-difference operator with
    zero-curvature (linear extrapolation) boundary rows."""
    band = np.zeros((3, m))
    band[0, 2:] = 1.0 / h**2
    band[1, 1:-1] = -2.0 / h**2
    band[2, :-2] = 1.0 / h**2
    # first and last rows are zero: d2f/dy2 = 0 at the boundary
    return band


def _apply_banded(band: np.ndarray, f: np.ndarray) -> np.ndarray:
    out = band[1] * f
    out[:-1] += band[0, 1:] * f[1:]
    out[1:] += band[2, :-1] * f[:-1]
    return out


def _grad(f: np.ndarray, h: float) -> np.ndarray:
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    g[0] = (f[1] - f[0]) / h
    g[-1] = (f[-1] - f[-2]) / h
    return g


def solve_parisi_pde(problem: PdeProblem) -> PdeSolution:
    """Backward Crank-Nicolson sweep through the segments (d = 1).

    The quadratic gradient term is lagged inside a fixed-point iteration per
    time step, which stops once an iteration moves f by at most 1e-10;
    failure to converge within 50 iterations raises PdeError with the
    residual.  Raises BudgetError, before any allocation, when the table of
    time rows x grid points would exceed CELL_BUDGET.
    """
    # The grid size is tested alone first: time_steps cannot count the steps
    # of a spacing so small that the grid size is already infinite.
    points = 2.0 * problem.half_points() + 1.0
    if points > CELL_BUDGET or (1 + sum(problem.time_steps())) * points > CELL_BUDGET:
        raise BudgetError(
            f"the PDE table of time rows x {points:.0f} grid points exceeds the budget of {CELL_BUDGET} cells"
        )
    y = problem.grid()
    m = y.size
    h = problem.spacing
    d2 = _second_diff_banded(m, h)
    f = np.asarray(problem.terminal(y.reshape(-1, 1)), dtype=float).reshape(m)
    all_t = [1.0]
    all_f = [f.copy()]
    worst_iters = 0
    seg_steps = problem.time_steps()
    for seg in range(problem.path.partition.levels, -1, -1):
        t0, t1, qdot, xw = problem.segment(seg)
        steps = seg_steps[seg]
        dt = (t1 - t0) / steps
        a = qdot * dt / 4.0
        lhs = np.zeros((3, m))
        lhs[0, 1:] = -a * d2[0, 1:]
        lhs[1] = 1.0 - a * d2[1]
        lhs[2, :-1] = -a * d2[2, :-1]
        for _ in range(steps):
            expl = f + a * _apply_banded(d2, f) + a * xw * _grad(f, h) ** 2
            fk = f.copy()
            it = 0
            while True:
                rhs = expl + a * xw * _grad(fk, h) ** 2
                fn = solve_banded((1, 1), lhs, rhs)
                delta = np.max(np.abs(fn - fk))
                fk = fn
                it += 1
                if delta <= 1e-10:
                    break
                if it >= 50:
                    raise PdeError(
                        f"fixed point stalled on segment {seg} (residual {delta:.3e}); "
                        "reduce the time step"
                    )
            worst_iters = max(worst_iters, it)
            f = fk
            all_t.append(all_t[-1] - dt)
            all_f.append(f.copy())
    times_arr = np.array(all_t[::-1])
    vals = np.array(all_f[::-1])
    return PdeSolution(y, times_arr, vals, worst_iters, problem)


def simulate_control_value(problem: PdeProblem, control, paths: int = 4096, seed: int = 0):
    """Monte Carlo value of a control u(t, y) on [0, 1]:

        E[ g(Y(1)) - (1/2) Int_0^1 ||u||^2 ds ],
        dY = -(x(s) Qdot(s))^{1/2} u ds + Qdot(s)^{1/2} dW,  Y(0) = 0,

    in 512 Euler-Maruyama steps.  ``control(t, y)`` takes the array of path
    positions at time t and returns the controls, for example
    ``PdeSolution.feedback``.

    Returns (estimate, std_error).  Any control's value lower-bounds the PDE
    solution; the feedback control attains it up to discretization error.
    """
    rng = np.random.default_rng(seed)
    steps = 512
    dt = 1.0 / steps
    yv = np.zeros(paths)
    cost = np.zeros(paths)
    for k in range(steps):
        t = k * dt
        _, _, qdot, xw = problem.segment_at(t)
        u = control(t, yv)
        cost += 0.5 * u**2 * dt
        noise = rng.standard_normal(paths)
        yv = yv - np.sqrt(max(xw * qdot, 0.0)) * u * dt + np.sqrt(max(qdot, 0.0) * dt) * noise
    payoff = np.asarray(problem.terminal(yv.reshape(-1, 1))).reshape(paths) - cost
    est = float(payoff.mean())
    se = float(payoff.std(ddof=1) / np.sqrt(paths))
    return est, se


@dataclass(frozen=True)
class ConvexityReport:
    gammas: np.ndarray
    values: np.ndarray
    chord: np.ndarray
    margins: np.ndarray          # chord - value, >= 0 under convexity
    numeric_error: float

    @property
    def min_interior_margin(self) -> float:
        inner = self.margins[1:-1]
        return float(inner.min()) if inner.size else 0.0


def convexity_probe(
    total_variance: float,
    x_profile_1,
    x_profile_2,
    gammas,
    terminal,
    cfg: EvalConfig | None = None,
) -> ConvexityReport:
    """Midpoint-convexity probe of x -> f_{Q,x}(0, 0) in d = 1.

    The diffusion path is the straight line Q(t) = total_variance * t; the two
    step weight profiles are given on a common time grid as (times, values)
    with values in [0, 1].  Values along gamma*x1 + (1-gamma)*x2 are computed
    with the deterministic quadrature engine; the reported numeric error is
    the change under one grid refinement.
    """
    from parisi_lab.recursion import Level, recursion_from_levels

    cfg = cfg or EvalConfig()
    t1, v1 = x_profile_1
    t2, v2 = x_profile_2
    grid = np.unique(np.concatenate((np.asarray(t1, float), np.asarray(t2, float), [0.0, 1.0])))

    def profile_on(grid_pts, tt, vv):
        idx = np.searchsorted(np.asarray(tt, float), grid_pts[:-1], side="right") - 1
        return np.asarray(vv, float)[np.clip(idx, 0, len(vv) - 1)]

    p1 = profile_on(grid, t1, v1)
    p2 = profile_on(grid, t2, v2)
    seg_var = total_variance * np.diff(grid)

    def value(weights, config) -> float:
        levels = [Level(float(w), np.array([[dv]])) for w, dv in zip(weights, seg_var)]
        return recursion_from_levels(terminal, levels, config).value

    gs = np.asarray(gammas, dtype=float)
    vals = np.array([value(g * p1 + (1.0 - g) * p2, cfg) for g in gs])
    v_at_1 = value(p1, cfg)
    v_at_0 = value(p2, cfg)
    chord = gs * v_at_1 + (1.0 - gs) * v_at_0
    fine = replace(cfg, nodes=cfg.nodes + 8, grid_points=2 * cfg.grid_points - 1)
    probe_g = gs[len(gs) // 2]
    err = abs(value(probe_g * p1 + (1.0 - probe_g) * p2, fine) - vals[len(gs) // 2])
    return ConvexityReport(gs, vals, chord, chord - vals, float(err + 1e-14))
