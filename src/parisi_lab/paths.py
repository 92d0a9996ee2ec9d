"""Order parameters: one container and one parameterization.

The container is ``DiscretePath``, a partition 0 = x_0 < ... < x_n <= x_{n+1}
= 1 paired with a Loewner-monotone chain 0 = Q[0] << ... << Q[n+1] = U.  It is
the right-continuous step path rho(t) = Q[k] on [x_k, x_{k+1}) with a final
jump to the terminal matrix U at t = 1.  The recursion, the closed forms and
the saddle solver read its two parts; the PDE reads the path whole.  The
distance between d = 1 inverse profiles is computed exactly on merged value
grids; no quadrature is involved.

The parameterization maps free reals to feasible order parameters:
``cumulative_fractions`` gives increasing weights in (0, 1] and the map
``chain_from_blocks(U)``, built once per U, a monotone chain that ends
exactly at U.  Each returns its value together with the pullback that
carries a gradient back to the free reals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from parisi_lab.matrices import PSD_TOL, as_sym, clip_psd, eigh_jacobi, frobenius_norm, sym_sqrt


class PathError(ValueError):
    """Raised on invalid partitions, chains, or paths."""


@dataclass(frozen=True)
class UnitPartition:
    """Grid 0 = x_0 < x_1 < ... < x_n <= x_{n+1} = 1, strictly increasing
    except at the top: x_n = 1 is a top level of weight 1, the closure that
    the saddle pins."""

    values: np.ndarray

    def __init__(self, values) -> None:
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise PathError("partition needs at least the two endpoints")
        if v[0] != 0.0 or v[-1] != 1.0:
            raise PathError("partition must start at 0 and end at 1")
        gaps = np.diff(v)
        if np.any(gaps[:-1] <= 0.0) or gaps[-1] < 0.0:
            raise PathError("partition values must be strictly increasing, except x_n = 1 at the top")
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
            # Clipping keeps the strict test: a rounding eigenvalue fails it either way.
            lo = clip_psd(eigh_jacobi(inc)[0], inc, PathError, f"increment {k} is not PSD")[0]
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


def cumulative_fractions(logits: np.ndarray):
    """Cumulative sums y_k = p_1 + ... + p_k of p = softmax(logits): increasing
    in (0, 1], the last exactly 1.  Returns (y, pullback), where pullback
    maps the gradient in y[:-1] to the gradient in the logits."""
    e = np.exp(logits - logits.max())
    y = np.cumsum(e) / e.sum()
    y[-1] = 1.0

    def pullback(g_y: np.ndarray) -> np.ndarray:
        # y_k = sum_{i<=k} p_i, and softmax has Jacobian diag(p) - p p^T.
        p = e / e.sum()
        g_p = np.append(np.cumsum(g_y[::-1])[::-1], 0.0)
        return p * (g_p - p @ g_p)

    return y, pullback


def chain_from_blocks(u: np.ndarray):
    """The map from positive-definite blocks B_0..B_n to the chain
    0 = Q[0] << Q[1] << ... << Q[n+1] = U with increments

        Q[k+1] - Q[k] = U^{1/2} S^{-1/2} B_k S^{-1/2} U^{1/2},  S = B_0 + ... + B_n:

    every increment is PSD and the increments sum to U, where the chain ends
    exactly.  U^{1/2} is taken once, when the map is made.  The map returns
    (chain, pullback); pullback maps the gradient in the interior matrices
    Q[1..n] to the gradients in the blocks."""
    d = u.shape[0]
    u_half = sym_sqrt(u)

    def to_chain(blocks):
        s = sum(blocks)
        w, v = eigh_jacobi(s)
        root = np.sqrt(np.maximum(w, 1e-14))
        s_inv_half = v @ np.diag(1.0 / root) @ v.T
        mats = [np.zeros((d, d))]
        for b in blocks:
            inc = u_half @ s_inv_half @ b @ s_inv_half @ u_half
            mats.append(mats[-1] + 0.5 * (inc + inc.T))
        mats[-1] = u  # exact terminal, kills accumulated rounding
        chain = MonotoneChain(mats, allow_equal=True)

        def pullback(g_chain: np.ndarray) -> list:
            # Q[k] = sum_{i<k} dQ_i, so dQ_i collects the gradients of Q[i+1..n].
            g_inc = np.concatenate((np.cumsum(g_chain[::-1], axis=0)[::-1], np.zeros((1, d, d))))
            g_inc = [u_half @ g @ u_half for g in g_inc]
            # S^{-1/2} pulls back through the Daleckii-Krein divided differences
            # of t^{-1/2}: (a^-1 - b^-1) / (a^2 - b^2) = -1 / (a b (a + b)).
            g_root = sum(g @ s_inv_half @ b + b @ s_inv_half @ g for g, b in zip(g_inc, blocks))
            divided = -1.0 / (root[:, None] * root[None, :] * (root[:, None] + root[None, :]))
            g_s = v @ (divided * (v.T @ g_root @ v)) @ v.T
            return [s_inv_half @ g @ s_inv_half + g_s for g in g_inc]

        return chain, pullback

    return to_chain


def inverse_profile_distance(p1: DiscretePath, p2: DiscretePath) -> float:
    """L1 distance between the weight-versus-overlap profiles of two d = 1
    paths; any other dimension raises PathError.

    The recursion pairs weight x_k with the overlap increment
    [Q[k], Q[k+1]); the functional is Lipschitz in the L1 distance between
    these inverse profiles, NOT in the time-integral distance of the paths
    (two paths with tiny values but very different weights are close in time
    but far in effect).  The distance is computed exactly on the merged
    value grid.
    """
    if p1.dim != 1 or p2.dim != 1:
        raise PathError(f"the profile distance is defined for d = 1 only, got d = {p1.dim} and {p2.dim}")
    q1 = p1.chain.matrices[:, 0, 0]
    q2 = p2.chain.matrices[:, 0, 0]
    grid = np.unique(np.concatenate((q1, q2)))
    total = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        m1 = p1.partition.values[np.searchsorted(q1, a, side="right") - 1]
        m2 = p2.partition.values[np.searchsorted(q2, a, side="right") - 1]
        total += (b - a) * abs(m1 - m2)
    return float(total)


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
