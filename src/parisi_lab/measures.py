"""Spin a priori measures and the terminal condition of the recursion.

Two measure families are first class: finite discrete measures on R^d
(weights need not be normalized) and centered-quadratic Gaussian densities
mu(ds) = (det C / (2 pi)^d)^(1/2) * exp(-<C s, s>/2 + <h, s>) ds.

The terminal condition bundles (beta, tilt, mu) and evaluates

    g(y) = log Integral exp(sqrt(2) * beta * <y, s> + <tilt s, s>) mu(ds).

For discrete mu this is a max-shifted log-sum-exp over the support, taken
support-major: one logit array per support point s_j, built from the
coordinates of y one axis at a time, reduced elementwise.  The coordinates
may be per-axis tables of a tensor grid, so g on a grid needs no point
array and equals g at the stacked grid points bit for bit.  For Gaussian mu
the integral is exact: completing the square with the quadratic tilt turns
the precision matrix C into C - 2*tilt (the tilt enters the exponent as a
full quadratic form, hence the factor 2), giving

    g(y) = log det(C (C - 2 tilt)^-1) / 2 + <(C - 2 tilt)^-1 w, w> / 2,

with w = h + sqrt(2) beta y, valid while C - 2 tilt stays positive definite;
on a grid its quadratic form is summed over broadcast per-axis tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

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

    def _discrete_values(self, coords: list[np.ndarray]) -> np.ndarray:
        """g for discrete mu from the scaled coordinates coords[i] =
        sqrt(2) beta y_i, arrays that broadcast together.

        Support point s_j gives the logit array
        (coords[0] s_j0 + coords[1] s_j1 + ...) + c_j, added left to right,
        with c_j = log w_j + <tilt s_j, s_j>; ``_logsumexp_columns`` reduces
        the K arrays.  A logit array has the broadcast shape of the
        coordinates, so per-axis tables of a grid give logits on the grid
        and no point array or (points, K) block is formed.  Every step is
        elementwise, so equal coordinates give equal values bit for bit.
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
        return _logsumexp_columns(logits)

    def __call__(self, y) -> np.ndarray | float:
        """g(y) for y of shape (..., d); scalar input allowed at d = 1.

        One call evaluates any number of points, so callers stack all their
        points into one array instead of calling once per point.  For
        discrete mu the columns sqrt(2) beta y_i go to ``_discrete_values``,
        a log-sum-exp over the support.  For a +-1 support every product
        y_i s_ji is exact, so the logits equal the matrix product
        sqrt(2) beta y sigma^T bit for bit.  The Gaussian quadratic form is
        ``_quadratic_form``.  ``on_shifted_grids`` runs the same formulas on
        grid tables, so the two agree bit for bit for every measure.
        """
        pts = np.asarray(y, dtype=float)
        scalar_in = pts.ndim == 0
        if self.dim == 1 and (scalar_in or pts.shape[-1] != 1):
            pts = pts.reshape(pts.shape + (1,)) if not scalar_in else pts.reshape(1, 1)
        flat = pts.reshape(-1, self.dim)
        root2b = np.sqrt(2.0) * self.beta
        if self.mu.kind == "discrete":
            vals = self._discrete_values([root2b * flat[:, i] for i in range(self.dim)])
        else:
            const, minv = self._gaussian_data
            w = self.mu.shift[None, :] + root2b * flat
            vals = const + 0.5 * _quadratic_form(w.T, minv)
        if scalar_in:
            return float(vals[0])
        return vals.reshape(pts.shape[:-1])

    def on_shifted_grids(self, axes: list[np.ndarray], shifts: np.ndarray) -> np.ndarray:
        """g on the tensor grids {axes + s} for each row s of shifts, shape
        (len(shifts),) + grid shape, bit-identical to ``__call__`` on
        ``shifted_grid_points(axes, shifts)``.

        No point array is built.  Coordinate i of the points, scaled by
        sqrt(2) beta, is a (len(shifts), n_i) table along grid axis i, and
        the tables broadcast into the grid.  Gaussian mu adds h_i to each
        table and takes ``_quadratic_form``; discrete mu passes the tables
        to ``_discrete_values``, whose logits are the same left-to-right
        sums as in ``__call__``.  For a +-1 support the products are exact,
        so the logits equal the matrix product of the stacked points with
        the support bit for bit.
        """
        root2b = np.sqrt(2.0) * self.beta
        d = self.dim
        tables = []
        for i, a in enumerate(axes):
            table = root2b * (a[None, :] + shifts[:, i : i + 1])
            tables.append(table.reshape((len(shifts),) + tuple(a.size if j == i else 1 for j in range(d))))
        if self.mu.kind == "discrete":
            return self._discrete_values(tables)
        const, minv = self._gaussian_data
        vals = _quadratic_form([h_i + t for h_i, t in zip(self.mu.shift, tables)], minv)
        vals *= 0.5
        vals += const
        return vals

    def derivatives(self, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """g, grad g and the tilted second moment <s s^T>, which is the
        derivative of g in the tilt, at the rows of y (shape (m, d)); the
        shapes are (m,), (m, d) and (m, d, d).

        Under the tilted measure nu_y(ds) ~ exp(sqrt(2) beta <y, s> +
        <tilt s, s>) mu(ds), grad g = sqrt(2) beta <s>.  For Gaussian mu,
        nu_y is Gaussian with covariance (C - 2 tilt)^-1 and mean
        (C - 2 tilt)^-1 w.  The value of g agrees with ``__call__`` to
        rounding, not bit for bit: it comes out of the same exponentials as
        the derivatives.
        """
        flat = np.asarray(y, dtype=float).reshape(-1, self.dim)
        root2b = np.sqrt(2.0) * self.beta
        if self.mu.kind == "discrete":
            sigma = self.mu.points
            quad = np.einsum("ij,jk,ik->i", sigma, self.tilt, sigma)
            logits = root2b * flat @ sigma.T + (np.log(self.mu.weights) + quad)[None, :]
            # Column-wise max and a matrix-vector row sum: faster than row
            # reductions over the few support points.
            top = reduce(np.maximum, logits.T)
            gibbs = np.exp(logits - top[:, None])
            total = gibbs @ np.ones(len(sigma))
            gibbs /= total[:, None]
            value = top + np.log(total)
            mean = gibbs @ sigma
            outer = sigma[:, :, None] * sigma[:, None, :]
            moment = (gibbs @ outer.reshape(len(sigma), -1)).reshape(-1, self.dim, self.dim)
        else:
            const, minv = self._gaussian_data
            w = self.mu.shift[None, :] + root2b * flat
            mean = w @ minv
            value = const + 0.5 * np.einsum("ij,ij->i", w, mean)
            moment = minv[None] + mean[:, :, None] * mean[:, None, :]
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
    cubic-spline grids (d <= 2).  engine "monte_carlo": nested sampling with
    antithetic pairs and half-sample debiasing (any d), std errors over
    independent replicas.
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
