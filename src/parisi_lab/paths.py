"""Order-parameter containers: unit-interval partitions, Loewner-monotone
matrix chains, and the piecewise-constant matrix paths they define.

A path is the right-continuous step function rho(t) = Q[k] on [x_k, x_{k+1})
with a final jump to the terminal matrix U at t = 1.  The distance between
inverse profiles is computed exactly on merged value grids; no quadrature is
involved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from parisi_lab.matrices import PSD_TOL, MatrixError, as_sym, eigmin, frobenius_norm


class PathError(ValueError):
    """Raised on invalid partitions, chains, or paths."""


@dataclass(frozen=True)
class UnitPartition:
    """Strictly increasing grid 0 = x_0 < x_1 < ... < x_{n+1} = 1."""

    values: np.ndarray

    def __init__(self, values) -> None:
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise PathError("partition needs at least the two endpoints")
        if v[0] != 0.0 or v[-1] != 1.0:
            raise PathError("partition must start at 0 and end at 1")
        if np.any(np.diff(v) <= 0.0):
            raise PathError("partition values must be strictly increasing")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_interior(cls, interior) -> "UnitPartition":
        return cls(np.concatenate(([0.0], np.asarray(interior, dtype=float), [1.0])))

    @property
    def levels(self) -> int:
        return self.values.size - 2

    @property
    def interior(self) -> np.ndarray:
        return self.values[1:-1]


@dataclass(frozen=True)
class MonotoneChain:
    """Matrices 0 = Q[0] << Q[1] << ... << Q[n+1] = U, increasing in Loewner order.

    Increments must be PSD; consecutive equality is rejected unless
    ``allow_equal`` was set at construction (needed by level-collapse tests).
    """

    matrices: np.ndarray
    allow_equal: bool = field(default=False, compare=False)

    def __init__(self, matrices, allow_equal: bool = False) -> None:
        mats = np.asarray([as_sym(m) for m in matrices], dtype=float)
        if mats.shape[0] < 2:
            raise PathError("chain needs at least Q[0] = 0 and the terminal U")
        if frobenius_norm(mats[0]) > 1e-12:
            raise PathError("chain must start at the zero matrix")
        for k in range(mats.shape[0] - 1):
            inc = mats[k + 1] - mats[k]
            lo = eigmin(inc)
            if lo < -PSD_TOL * (1.0 + frobenius_norm(inc)):
                raise PathError(f"increment {k} is not PSD (eigmin={lo:.3e})")
            if not allow_equal and lo <= PSD_TOL:
                raise PathError(f"increment {k} is not strictly positive definite")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "allow_equal", allow_equal)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def levels(self) -> int:
        return self.matrices.shape[0] - 2

    @property
    def terminal(self) -> np.ndarray:
        return self.matrices[-1]

    def increments(self) -> np.ndarray:
        return np.diff(self.matrices, axis=0)


@dataclass(frozen=True)
class DiscretePath:
    """Piecewise-constant matrix path: partition plus chain sharing n levels."""

    partition: UnitPartition
    chain: MonotoneChain

    def __post_init__(self) -> None:
        if self.partition.levels != self.chain.levels:
            raise PathError(
                f"partition has {self.partition.levels} levels, "
                f"chain has {self.chain.levels}"
            )

    @property
    def dim(self) -> int:
        return self.chain.dim

    @property
    def terminal(self) -> np.ndarray:
        return self.chain.terminal

    def value(self, t: float) -> np.ndarray:
        """rho(t): right-continuous step value; rho(1) is the terminal U."""
        if not 0.0 <= t <= 1.0:
            raise PathError(f"t={t} outside [0, 1]")
        if t >= 1.0:
            return self.chain.terminal
        k = int(np.searchsorted(self.partition.values, t, side="right") - 1)
        return self.chain.matrices[k]


def inverse_profile_distance(p1: DiscretePath, p2: DiscretePath) -> float:
    """L1 distance between the weight-versus-overlap profiles of two paths.

    The recursion pairs weight x_k with the overlap increment
    [Q[k], Q[k+1]); the functional is Lipschitz in the L1 distance between
    these inverse profiles, NOT in the time-integral distance of the matrix
    paths (two paths with tiny values but very different weights are close in
    time but far in effect).  For d = 1 the distance is computed exactly on
    the merged value grid; for d > 1 the pairing is only defined on a shared
    partition, where it reduces to sum_k (x_k - x_{k-1}) ||Q1[k] - Q2[k]||_F.
    """
    if p1.dim != p2.dim:
        raise MatrixError(f"dimension mismatch: {p1.dim} vs {p2.dim}")
    if p1.dim == 1:
        q1 = p1.chain.matrices[:, 0, 0]
        q2 = p2.chain.matrices[:, 0, 0]
        grid = np.unique(np.concatenate((q1, q2)))
        total = 0.0
        for a, b in zip(grid[:-1], grid[1:]):
            m1 = p1.partition.values[np.searchsorted(q1, a, side="right") - 1]
            m2 = p2.partition.values[np.searchsorted(q2, a, side="right") - 1]
            total += (b - a) * abs(m1 - m2)
        return float(total)
    if not np.array_equal(p1.partition.values, p2.partition.values):
        raise PathError("d > 1 profile distance needs a shared partition")
    x = p1.partition.values
    total = 0.0
    for k in range(1, p1.chain.matrices.shape[0]):
        total += (x[k] - x[k - 1]) * frobenius_norm(p1.chain.matrices[k] - p2.chain.matrices[k])
    return float(total)


@dataclass(frozen=True)
class PiecewiseLinearPath:
    """Linear interpolant of a step path: nodes at the jump times, constant
    PSD slope (Q[k+1] - Q[k]) / (x_{k+1} - x_k) on each segment.

    This is the diffusion coefficient path consumed by the PDE solvers.
    """

    times: np.ndarray
    nodes: np.ndarray

    @property
    def segments(self) -> int:
        return self.times.size - 1

    def slope(self, seg: int) -> np.ndarray:
        dt = self.times[seg + 1] - self.times[seg]
        return (self.nodes[seg + 1] - self.nodes[seg]) / dt

    def value(self, t: float) -> np.ndarray:
        if t >= 1.0:
            return self.nodes[-1]
        seg = int(np.searchsorted(self.times, t, side="right") - 1)
        dt = self.times[seg + 1] - self.times[seg]
        w = (t - self.times[seg]) / dt
        return (1.0 - w) * self.nodes[seg] + w * self.nodes[seg + 1]


def linear_interpolant(path: DiscretePath) -> PiecewiseLinearPath:
    """Piecewise-linear path through (x_k, Q[k]) with PSD slopes."""
    return PiecewiseLinearPath(path.partition.values.copy(), path.chain.matrices.copy())


def path_to_json(path: DiscretePath) -> str:
    """Serialize to JSON; round-trips bit-exactly (floats use shortest repr)."""
    payload = {
        "d": path.dim,
        "x": path.partition.values.tolist(),
        "Q": [q.tolist() for q in path.chain.matrices],
        "U": path.terminal.tolist(),
        "allow_equal": path.chain.allow_equal,
    }
    return json.dumps(payload)


def path_from_json(text: str) -> DiscretePath:
    payload = json.loads(text)
    part = UnitPartition(np.asarray(payload["x"], dtype=float))
    chain = MonotoneChain(
        np.asarray(payload["Q"], dtype=float),
        allow_equal=bool(payload.get("allow_equal", False)),
    )
    path = DiscretePath(part, chain)
    if frobenius_norm(path.terminal - np.asarray(payload["U"], dtype=float)) > 0.0:
        raise PathError("terminal matrix disagrees with chain")
    return path
