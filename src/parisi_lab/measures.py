"""Spin a priori measures and the terminal condition of the recursion.

Two measure families are first class: finite discrete measures on R^d
(weights need not be normalized) and centered-quadratic Gaussian densities
mu(ds) = (det C / (2 pi)^d)^(1/2) * exp(-<C s, s>/2 + <h, s>) ds.

The terminal condition bundles (beta, tilt, mu) and evaluates

    g(y) = log Integral exp(sqrt(2) * beta * <y, s> + <tilt s, s>) mu(ds).

For discrete mu this is a stabilized log-sum-exp over the support.  For
Gaussian mu the integral is exact: completing the square with the quadratic
tilt turns the precision matrix C into C - 2*tilt (the tilt enters the
exponent as a full quadratic form, hence the factor 2), giving

    g(y) = log det(C (C - 2 tilt)^-1) / 2 + <(C - 2 tilt)^-1 w, w> / 2,

with w = h + sqrt(2) beta y, valid while C - 2 tilt stays positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from parisi_lab.matrices import MatrixError, as_sym, eigh_jacobi
from scipy.special import logsumexp


class MeasureError(ValueError):
    """Raised on invalid measure parameters."""


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log sum_j exp(a[i, j]) for each row of a real 2-D array.

    Bit-identical to ``scipy.special.logsumexp(a, axis=1)`` without its
    per-call array-API overhead, because it repeats scipy's formula step by
    step: the row maximum is split off and its ties counted (m), the other
    entries are shifted, exponentiated and summed (s), and the value is
    log1p(s / m) + log m + max.  The shorter max + log(sum exp(a - max)) is
    not bit-identical.  The sum of exponentials is a numpy row sum over the
    same array shape as scipy's, so its order matches for every support size.
    The maximum and the tie count are exact in any order, so the maximum is
    taken one column at a time (faster than a row reduction on short rows)
    and the ties are counted rather than summed.
    Rows whose result is not finite (an infinite or NaN entry) go to scipy's
    own logsumexp.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        top = reduce(np.maximum, a.T)
        ties = a == top[:, None]
        m = np.count_nonzero(ties, axis=1).astype(a.dtype)
        s = np.exp(np.where(ties, -np.inf, a) - top[:, None]).sum(axis=1)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + top
    bad = ~np.isfinite(out)
    if bad.any():
        out[bad] = logsumexp(a[bad], axis=1)
    return out


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
    def log_mass(self) -> float:
        """log mu(R^d); 0 for a probability measure."""
        if self.kind == "discrete":
            return float(np.log(self.weights.sum()))
        # Gaussian with shift h integrates to exp(<C^-1 h, h>/2).
        cinv_h = np.linalg.solve(self.precision, self.shift)
        return float(0.5 * np.dot(cinv_h, self.shift))

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
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

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

    def _gaussian_data(self):
        data = self._cache.get("gaussian")
        if data is None:
            c = self.mu.precision
            m = c - 2.0 * self.tilt
            w, _ = eigh_jacobi(m)
            if w[0] <= 0.0:
                raise MeasureError(
                    "tilted Gaussian integral diverges: precision - 2*tilt not positive definite"
                )
            sign_c, logdet_c = np.linalg.slogdet(c)
            sign_m, logdet_m = np.linalg.slogdet(m)
            const = 0.5 * (logdet_c - logdet_m)
            minv = np.linalg.inv(m)
            data = (const, minv)
            self._cache["gaussian"] = data
        return data

    def __call__(self, y) -> np.ndarray | float:
        """g(y) for y of shape (..., d); scalar input allowed at d = 1.

        One call evaluates any number of points, so callers stack all their
        points into one array instead of calling once per quadrature node
        (``recursion.propagate_segment`` passes blocks of up to 2**16
        points).  The discrete log-sum-exp over the support is
        ``_logsumexp_rows``: it replicates scipy's ``logsumexp`` formula so
        that every value stays bit-identical to scipy's, at a fraction of
        its per-call cost.
        """
        pts = np.asarray(y, dtype=float)
        scalar_in = pts.ndim == 0
        if self.dim == 1 and (scalar_in or pts.shape[-1] != 1):
            pts = pts.reshape(pts.shape + (1,)) if not scalar_in else pts.reshape(1, 1)
        flat = pts.reshape(-1, self.dim)
        root2b = np.sqrt(2.0) * self.beta
        if self.mu.kind == "discrete":
            sigma = self.mu.points
            quad = np.einsum("ij,jk,ik->i", sigma, self.tilt, sigma)
            logits = np.log(self.mu.weights) + quad
            vals = _logsumexp_rows(root2b * flat @ sigma.T + logits[None, :])
        else:
            const, minv = self._gaussian_data()
            w = self.mu.shift[None, :] + root2b * flat
            vals = const + 0.5 * np.einsum("ij,jk,ik->i", w, minv, w)
        if scalar_in:
            return float(vals[0])
        return vals.reshape(pts.shape[:-1])

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
    grid_pad: float = 1.0
    samples: int = 128
    replicas: int = 8
    seed: int = 0
    small_x_threshold: float = 1e-6

    def __post_init__(self) -> None:
        if self.engine not in ("quadrature", "monte_carlo"):
            raise MeasureError(f"unknown engine {self.engine!r}")
        if self.nodes < 8:
            raise MeasureError("need at least 8 quadrature nodes per axis")
        if self.grid_points < 33:
            raise MeasureError("grid too coarse")
