"""Spin a priori measures and the terminal condition of the recursion.

Two measure families are first class: finite discrete measures on R^d
(weights need not be normalized) and centered-quadratic Gaussian densities
mu(ds) = (det C / (2 pi)^d)^(1/2) * exp(-<C s, s>/2 + <h, s>) ds.

The terminal condition bundles (beta, tilt, mu) and evaluates

    g(y) = log Integral exp(sqrt(2) * beta * <y, s> + <tilt s, s>) mu(ds)

by one formula per measure, from the scaled coordinates sqrt(2) beta y_i:
point columns or per-axis tables of tensor grids, so g on a grid needs no
point array, equals g at the stacked grid points bit for bit, and is the g
that the derivatives reweight with.  For discrete mu this is a max-shifted
log-sum-exp over the support, taken support-major: one logit array per
support point, built one axis at a time.  For Gaussian mu the integral is
exact: completing the square with the quadratic tilt turns the precision
matrix C into C - 2*tilt (the tilt enters the exponent as a full quadratic
form, hence the factor 2), giving

    g(y) = log det(C (C - 2 tilt)^-1) / 2 + <(C - 2 tilt)^-1 w, w> / 2,

with w = h + sqrt(2) beta y, valid while C - 2 tilt stays positive definite;
its quadratic form is summed over the broadcast coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from parisi_lab.matrices import MatrixError, as_sym, eigh_jacobi


class MeasureError(ValueError):
    """Raised on invalid measure parameters."""


def _logsumexp_columns(cols: list[np.ndarray]) -> np.ndarray:
    """max + log sum_j exp(cols[j] - max) elementwise over K arrays of one
    shape, summed left to right in place (the arrays are consumed).  A
    maximum that is not finite counts as 0, as in scipy's ``logsumexp``, so
    entries with an infinite or NaN term give scipy's inf, -inf or NaN."""
    top = cols[0].copy()
    for c in cols[1:]:
        np.maximum(top, c, out=top)
    top[~np.isfinite(top)] = 0.0
    total = cols[0]
    for c in cols:
        c -= top
        np.exp(c, out=c)
        if c is not total:
            total += c
    with np.errstate(divide="ignore"):
        np.log(total, out=total)
    total += top
    return total


def shifted_grid_points(axes: list[np.ndarray], shifts: np.ndarray) -> np.ndarray:
    """The points of the tensor grids {axes + s} for each row s of shifts,
    shape (len(shifts),) + grid shape + (d,).  Coordinate i of every point is
    the single sum axes[i] + s[i], so the points are the same floats as a
    meshgrid of ``axes`` plus each shift."""
    d = len(axes)
    shape = tuple(a.size for a in axes)
    pts = np.empty((len(shifts),) + shape + (d,))
    for i, a in enumerate(axes):
        view = [1] * (d + 1)
        view[i + 1] = a.size
        pts[..., i] = a.reshape(view) + shifts[:, i].reshape((-1,) + (1,) * d)
    return pts


def _quadratic_form(w, a: np.ndarray) -> np.ndarray:
    """sum_jk (w_j a_jk) w_k for components w_j that broadcast together.

    The terms are added in the order of np.einsum("ij,jk,ik->i", w, a, w)
    (j outer, k inner), so the result agrees with it bit for bit.  A term
    that involves one component only, such as the j = k terms when the
    components are tables along different grid axes, costs a table, not a
    grid."""
    total = None
    for j, wj in enumerate(w):
        for k, wk in enumerate(w):
            term = (wj * a[j, k]) * wk
            if total is None:
                total = term
                continue
            # Sum into whichever operand already has the result's shape;
            # addition commutes, so either order gives the same bits.
            shape = np.broadcast_shapes(total.shape, term.shape)
            if total.shape == shape:
                total += term
            elif term.shape == shape:
                term += total
                total = term
            else:
                total = total + term
    return total


@dataclass(frozen=True)
class AprioriMeasure:
    """Finite a priori spin measure: discrete support or Gaussian density."""

    kind: str
    points: np.ndarray | None = None
    weights: np.ndarray | None = None
    precision: np.ndarray | None = None
    shift: np.ndarray | None = None

    @classmethod
    def discrete(cls, points, weights=None) -> "AprioriMeasure":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 1 and pts.shape[1] > 1 and np.asarray(points).ndim == 1:
            pts = pts.T
        if weights is None:
            w = np.ones(pts.shape[0])
        else:
            w = np.asarray(weights, dtype=float)
        if w.shape != (pts.shape[0],) or np.any(w <= 0.0):
            raise MeasureError("weights must be positive, one per support point")
        return cls(kind="discrete", points=pts, weights=w)

    @classmethod
    def rademacher(cls) -> "AprioriMeasure":
        """d=1 counting measure on {-1, +1} (total mass 2)."""
        return cls.discrete(np.array([[-1.0], [1.0]]))

    @classmethod
    def hypercube(cls, d: int) -> "AprioriMeasure":
        """Counting measure on {-1, +1}^d."""
        pts = np.array(np.meshgrid(*([[-1.0, 1.0]] * d), indexing="ij")).reshape(d, -1).T
        return cls.discrete(pts)

    @classmethod
    def gaussian(cls, precision, shift=None) -> "AprioriMeasure":
        c = as_sym(precision)
        w, _ = eigh_jacobi(c)
        if w[0] <= 0.0:
            raise MeasureError("Gaussian precision matrix must be positive definite")
        h = np.zeros(c.shape[0]) if shift is None else np.asarray(shift, dtype=float)
        if h.shape != (c.shape[0],):
            raise MeasureError("shift must be a length-d vector")
        return cls(kind="gaussian", precision=c, shift=h)

    @property
    def dim(self) -> int:
        if self.kind == "discrete":
            return self.points.shape[1]
        return self.precision.shape[0]

    @property
    def size(self) -> int:
        """Number of support points (discrete only)."""
        if self.kind != "discrete":
            raise MeasureError("support size is defined for discrete measures")
        return self.points.shape[0]

    def support_radius(self) -> float:
        """Largest Euclidean norm on the support (discrete only)."""
        if self.kind != "discrete":
            raise MeasureError("support radius is defined for discrete measures")
        return float(np.sqrt((self.points**2).sum(axis=1).max()))

    def to_json_dict(self) -> dict:
        if self.kind == "discrete":
            return {
                "kind": "discrete",
                "points": self.points.tolist(),
                "weights": self.weights.tolist(),
            }
        return {
            "kind": "gaussian",
            "precision": self.precision.tolist(),
            "shift": self.shift.tolist(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "AprioriMeasure":
        if payload["kind"] == "discrete":
            return cls.discrete(np.asarray(payload["points"]), np.asarray(payload["weights"]))
        return cls.gaussian(np.asarray(payload["precision"]), np.asarray(payload["shift"]))


@dataclass(frozen=True)
class TerminalCondition:
    """Terminal data (beta, tilt matrix, measure) of the recursion."""

    beta: float
    tilt: np.ndarray
    mu: AprioriMeasure

    def __post_init__(self) -> None:
        if self.beta < 0.0:
            raise MeasureError("beta must be nonnegative")
        t = as_sym(self.tilt)
        if t.shape[0] != self.mu.dim:
            raise MatrixError("tilt dimension does not match the measure")
        object.__setattr__(self, "tilt", t)

    @property
    def dim(self) -> int:
        return self.mu.dim

    @cached_property
    def _gaussian_data(self) -> tuple[float, np.ndarray]:
        """(log det(C (C - 2 tilt)^-1) / 2, (C - 2 tilt)^-1), computed once."""
        c = self.mu.precision
        m = c - 2.0 * self.tilt
        w, _ = eigh_jacobi(m)
        if w[0] <= 0.0:
            raise MeasureError("tilted Gaussian integral diverges: precision - 2*tilt not positive definite")
        sign_c, logdet_c = np.linalg.slogdet(c)
        sign_m, logdet_m = np.linalg.slogdet(m)
        return 0.5 * (logdet_c - logdet_m), np.linalg.inv(m)

    def _scaled_tables(self, axes: list[np.ndarray], shifts: np.ndarray) -> list[np.ndarray]:
        """Coordinate i of the grids {axes + s}, scaled by sqrt(2) beta, as a
        (len(shifts), n_i) table along grid axis i; the tables broadcast
        into the grids and equal the scaled columns of
        ``shifted_grid_points(axes, shifts)`` bit for bit."""
        root2b = np.sqrt(2.0) * self.beta
        tables = []
        for i, a in enumerate(axes):
            table = root2b * (a[None, :] + shifts[:, i : i + 1])
            tables.append(table.reshape((len(shifts),) + tuple(a.size if j == i else 1 for j in range(len(axes)))))
        return tables

    def _logits(self, coords: list[np.ndarray]) -> list[np.ndarray]:
        """For discrete mu, the logit array of each support point s_j,
        (coords[0] s_j0 + coords[1] s_j1 + ...) + c_j added left to right
        with c_j = log w_j + <tilt s_j, s_j>, from the scaled coordinates
        coords[i] = sqrt(2) beta y_i, arrays that broadcast together.

        A logit array has the broadcast shape of the coordinates, so grid
        tables give logits on the grid and no (points, K) block is formed.
        Every step is elementwise: equal coordinates give equal logits.
        """
        sigma = self.mu.points
        consts = np.log(self.mu.weights) + np.einsum("ij,jk,ik->i", sigma, self.tilt, sigma)
        logits = []
        for s_j, c_j in zip(sigma, consts):
            acc = coords[0] * s_j[0]
            for coord, s_ji in zip(coords[1:], s_j[1:]):
                acc = acc + coord * s_ji
            acc += c_j
            logits.append(acc)
        return logits

    def _values(self, coords: list[np.ndarray]) -> np.ndarray:
        """g from the scaled coordinates coords[i] = sqrt(2) beta y_i: the
        one evaluator behind ``__call__``, ``on_shifted_grids`` and
        ``derivatives``."""
        if self.mu.kind == "discrete":
            return _logsumexp_columns(self._logits(coords))
        const, minv = self._gaussian_data
        vals = _quadratic_form([h_i + c for h_i, c in zip(self.mu.shift, coords)], minv)
        vals *= 0.5
        vals += const
        return vals

    def __call__(self, y) -> np.ndarray | float:
        """g(y) for y of shape (..., d); scalar input allowed at d = 1.

        One call evaluates any number of points, so callers stack all their
        points into one array instead of calling once per point.  The
        columns sqrt(2) beta y_i go to ``_values``, the evaluator that
        ``on_shifted_grids`` runs on grid tables, so the two agree bit for
        bit for every measure.
        """
        pts = np.asarray(y, dtype=float)
        scalar_in = pts.ndim == 0
        if self.dim == 1 and (scalar_in or pts.shape[-1] != 1):
            pts = pts.reshape(pts.shape + (1,)) if not scalar_in else pts.reshape(1, 1)
        flat = pts.reshape(-1, self.dim)
        root2b = np.sqrt(2.0) * self.beta
        vals = self._values([root2b * flat[:, i] for i in range(self.dim)])
        if scalar_in:
            return float(vals[0])
        return vals.reshape(pts.shape[:-1])

    def on_shifted_grids(self, axes: list[np.ndarray], shifts: np.ndarray) -> np.ndarray:
        """g on the tensor grids {axes + s} for each row s of shifts, shape
        (len(shifts),) + grid shape, bit-identical to ``__call__`` on
        ``shifted_grid_points(axes, shifts)``.  No point array is built:
        ``_values`` reads the per-axis ``_scaled_tables``."""
        return self._values(self._scaled_tables(axes, shifts))

    def derivatives(self, axes: list[np.ndarray], shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """g, grad g and the tilted second moment <s s^T>, which is the
        derivative of g in the tilt, on the grids {axes + s}; the shapes are
        (len(shifts),) + grid shape, then that + (d,) and + (d, d).

        Under the tilted measure nu_y(ds) ~ exp(sqrt(2) beta <y, s> +
        <tilt s, s>) mu(ds), grad g = sqrt(2) beta <s>.  The grid tables are
        those of ``on_shifted_grids`` and g is taken by the same formula, so
        the two agree bit for bit.  For discrete mu the Gibbs weight of s_j
        is exp(logit_j - g).  For Gaussian mu, nu_y is Gaussian with
        covariance (C - 2 tilt)^-1 and mean (C - 2 tilt)^-1 w.
        """
        coords = self._scaled_tables(axes, shifts)
        root2b = np.sqrt(2.0) * self.beta
        if self.mu.kind == "discrete":
            logits = self._logits(coords)
            value = _logsumexp_columns([logit.copy() for logit in logits])
            gibbs = np.stack([np.exp(logit - value) for logit in logits], axis=-1)
            sigma = self.mu.points
            mean = gibbs @ sigma
            outer = sigma[:, :, None] * sigma[:, None, :]
            moment = (gibbs @ outer.reshape(len(sigma), -1)).reshape(mean.shape + (self.dim,))
        else:
            value = self._values(coords)
            minv = self._gaussian_data[1]
            w = np.broadcast_arrays(*(h_i + c for h_i, c in zip(self.mu.shift, coords)))
            mean = np.stack(w, axis=-1) @ minv
            moment = minv + mean[..., :, None] * mean[..., None, :]
        return value, root2b * mean, moment

    def gradient_sup_bound(self) -> float:
        """Computable sup-norm-squared bound on grad g: 2 beta^2 r^2 d for
        discrete measures with support radius r."""
        r = self.mu.support_radius()
        return 2.0 * self.beta**2 * r**2 * self.dim


@dataclass(frozen=True)
class EvalConfig:
    """Engine configuration for recursion evaluations.

    engine "quadrature": deterministic Gauss-Hermite node sets propagated on
    uniform grids read through not-a-knot cubic B-splines (d <= 2).  engine
    "monte_carlo": nested sampling with antithetic pairs and half-sample
    debiasing (any d), std errors over independent replicas.
    """

    engine: str = "quadrature"
    nodes: int = 32
    grid_points: int = 1601
    grid_points_2d: int = 161
    samples: int = 128
    replicas: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.engine not in ("quadrature", "monte_carlo"):
            raise MeasureError(f"unknown engine {self.engine!r}")
        if self.nodes < 8:
            raise MeasureError("need at least 8 quadrature nodes per axis")
        if min(self.grid_points, self.grid_points_2d) < 33:
            raise MeasureError("grid too coarse")
        if self.samples < 8:
            raise MeasureError("need at least 8 Monte Carlo samples per level")
        if self.replicas < 2:
            raise MeasureError("need at least 2 replicas for a standard error")
