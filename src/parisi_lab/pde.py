"""Independent PDE and control oracles for the recursion.

The level structure of the recursion is equivalent to the terminal-value
problem for the semi-linear parabolic equation

    df/dt + (Qdot(t)/2) * (d2f/dy2 + x(t) * (df/dy)^2) = 0,   f(1, y) = g(y),

with the diffusion coefficient Qdot the slope of the linear interpolant of
the step path and x(t) the step profile of weights, matched continuously at
the jump times.  Three independent routes are implemented:

* solve_parisi_pde: backward Crank-Nicolson finite differences in d = 1 with
  a lagged-gradient fixed point for the quadratic nonlinearity;
* hopf_cole_segment: the exact Gaussian-convolution propagator for a single
  segment (any d the grid machinery supports), i.e. the substitution that
  linearizes the quadratic-gradient term;
* simulate_control_value: Euler-Maruyama simulation of the controlled
  diffusion whose value function solves the same equation
  (dY = -(x Qdot)^{1/2} u dt + Qdot^{1/2} dW, payoff g(Y_1) - int ||u||^2/2),
  with the optimal feedback control u* = -(x Qdot)^{1/2} df/dy read off the
  finite-difference solution.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_banded

from parisi_lab.measures import EvalConfig
from parisi_lab.paths import DiscretePath, PiecewiseLinearPath, linear_interpolant
from parisi_lab.recursion import GridFunction, propagate_segment


class PdeError(RuntimeError):
    """Raised when the nonlinear solve fails to converge."""


@dataclass(frozen=True)
class PdeProblem:
    """Finite-difference problem data for the d = 1 solver."""

    coeff: PiecewiseLinearPath           # diffusion path, nodes (n+2, 1, 1)
    x_weights: np.ndarray                # weight on each segment, len n+1
    terminal: object                     # vectorized g(y)
    spacing: float = 0.01
    extent: float | None = None          # half-width; default 6 accumulated stds
    steps_per_unit: int | None = None    # default: dt ~ spacing
    fixpoint_tol: float = 1e-10
    max_fixpoint_iters: int = 50

    @classmethod
    def from_path(cls, path: DiscretePath, terminal, spacing: float = 0.01, **kw) -> "PdeProblem":
        if path.dim != 1:
            raise ValueError("finite-difference problems are one-dimensional")
        interp = linear_interpolant(path)
        weights = path.partition.values[:-1]
        return cls(coeff=interp, x_weights=np.asarray(weights, dtype=float),
                   terminal=terminal, spacing=spacing, **kw)

    def grid(self) -> np.ndarray:
        if self.extent is not None:
            half = self.extent
        else:
            total_var = float(self.coeff.nodes[-1].reshape(()))
            half = 6.0 * np.sqrt(max(total_var, 1e-12)) + 1.0
        m = int(np.ceil(half / self.spacing))
        return np.linspace(-m * self.spacing, m * self.spacing, 2 * m + 1)


@dataclass(frozen=True)
class PdeSolution:
    y: np.ndarray
    times: np.ndarray
    values: np.ndarray        # (len(times), len(y)), values[0] is t=0
    fixpoint_iters: int

    def at_origin(self) -> float:
        j = int(np.argmin(np.abs(self.y)))
        return float(self.values[0, j])

    def _row(self, t: float) -> np.ndarray:
        """Values on the y grid at time t, linear in t between stored rows."""
        ti = np.searchsorted(self.times, t, side="right") - 1
        ti = min(max(ti, 0), len(self.times) - 2)
        w = (t - self.times[ti]) / (self.times[ti + 1] - self.times[ti])
        return (1.0 - w) * self.values[ti] + w * self.values[ti + 1]

    def interp(self, t: float, y: np.ndarray) -> np.ndarray:
        """Bilinear interpolation in (t, y) used by the feedback policy."""
        return np.interp(y, self.y, self._row(t))

    def gradient(self, t: float, y: np.ndarray) -> np.ndarray:
        return np.interp(y, self.y, np.gradient(self._row(t), self.y))

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
    time step; failure to converge raises PdeError with the residual.
    """
    y = problem.grid()
    m = y.size
    h = problem.spacing
    d2 = _second_diff_banded(m, h)
    times = problem.coeff.times
    f = np.asarray(problem.terminal(y.reshape(-1, 1)), dtype=float).reshape(m)
    all_t = [1.0]
    all_f = [f.copy()]
    worst_iters = 0
    steps_per_unit = problem.steps_per_unit or max(int(round(1.0 / problem.spacing)), 8)
    for seg in range(problem.coeff.segments - 1, -1, -1):
        t0, t1 = times[seg], times[seg + 1]
        qdot = float(problem.coeff.slope(seg).reshape(()))
        xw = float(problem.x_weights[seg])
        steps = max(int(np.ceil((t1 - t0) * steps_per_unit)), 2)
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
                if delta <= problem.fixpoint_tol:
                    break
                if it >= problem.max_fixpoint_iters:
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
    return PdeSolution(y, times_arr, vals, worst_iters)


def hopf_cole_segment(f_next, weight: float, cov, axes, cfg: EvalConfig | None = None) -> GridFunction:
    """Exact one-segment propagator (any d <= 2 on grids):

        f(y) = (1/w) log E exp(w * f_next(y + z)),  z ~ N(0, cov).

    With w = 1 this is the plain log E e^f linearization; with cov = 0 the
    identity.  Composing segments reproduces the recursion engine exactly,
    by construction.
    """
    cfg = cfg or EvalConfig()
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    return propagate_segment(f_next, weight, cov, [np.asarray(a, dtype=float) for a in axes], cfg)


@dataclass(frozen=True)
class ControlPolicy:
    """Control for the simulated diffusion: zero, feedback from a PDE
    solution, or a custom callable u(t, y)."""

    kind: str = "zero"
    solution: PdeSolution | None = None
    custom: object | None = None

    def values(self, t: float, y: np.ndarray, xw: float, qdot: float) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(y)
        if self.kind == "feedback":
            # Optimal control of the verification argument: the Hamiltonian
            # sup_u [-(x qdot)^{1/2} u f_y - u^2/2] peaks at u = -(x qdot)^{1/2} f_y.
            return -np.sqrt(max(xw * qdot, 0.0)) * self.solution.gradient(t, y)
        if self.kind == "custom":
            return np.asarray(self.custom(t, y))
        raise ValueError(f"unknown policy kind {self.kind!r}")


def simulate_control_value(
    problem: PdeProblem,
    policy: ControlPolicy,
    paths: int = 4096,
    seed: int = 0,
    steps: int = 512,
    y0: float = 0.0,
):
    """Monte Carlo value of a control policy on [0, 1]:

        E[ g(Y(1)) - (1/2) Int_0^1 ||u||^2 ds ],
        dY = -(x(s) Qdot(s))^{1/2} u ds + Qdot(s)^{1/2} dW.

    Returns (estimate, std_error).  Any policy value lower-bounds the PDE
    solution; the feedback policy attains it up to discretization error.
    """
    rng = np.random.default_rng(seed)
    dt = 1.0 / steps
    times = problem.coeff.times
    yv = np.full(paths, float(y0))
    cost = np.zeros(paths)
    for k in range(steps):
        t = k * dt
        seg = min(max(int(np.searchsorted(times, t, side="right") - 1), 0), problem.coeff.segments - 1)
        qdot = float(problem.coeff.slope(seg).reshape(()))
        xw = float(problem.x_weights[seg])
        u = policy.values(t, yv, xw, qdot)
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
