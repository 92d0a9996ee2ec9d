"""Exact small-dimension symmetric-matrix algebra.

Everything here operates on plain ``numpy`` arrays interpreted as d x d
symmetric matrices with d expected to stay small (<= 16).  Eigenvalue
problems go through a deterministic cyclic Jacobi sweep so that results are
bit-reproducible across platforms and independent of LAPACK builds; tests
cross-check against ``numpy.linalg.eigh``.
"""

from __future__ import annotations

import numpy as np

# Relative PSD tolerance: double-precision eigensolver noise floor for d <= 8.
PSD_TOL = 1e-10

# Residual target for spectral square roots.
SQRT_TOL = 1e-10


class MatrixError(ValueError):
    """Raised on shape mismatches or violated matrix preconditions."""


def as_sym(a) -> np.ndarray:
    """Validate and return a float64 symmetric matrix."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise MatrixError(f"expected a square matrix, got shape {m.shape}")
    scale = 1.0 + np.abs(m).max()
    if np.abs(m - m.T).max() > 1e-12 * scale:
        raise MatrixError("matrix is not symmetric")
    return 0.5 * (m + m.T)


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise MatrixError(f"dimension mismatch: {a.shape} vs {b.shape}")


def eigh_jacobi(a):
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps run over the strict upper triangle in fixed row-major order so the
    computation is deterministic.  Returns ``(w, v)`` with eigenvalues ``w``
    ascending and eigenvectors in the columns of ``v``.
    """
    m = as_sym(a)
    d = m.shape[0]
    if d == 1:
        return m[0, :1].copy(), np.ones((1, 1))
    v = np.eye(d)
    scale = np.abs(m).max() + 1.0
    for _ in range(50):
        off = np.sqrt(np.sum(np.tril(m, -1) ** 2))
        if off <= 1e-14 * scale:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = m[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = 0.5 * (m[q, q] - m[p, p]) / apq
                # sqrt(theta^2 + 1) rounds to |theta| for every |theta| > 1e8;
                # above 1e150 theta^2 could overflow, so take |theta| itself.
                root = abs(theta) if abs(theta) > 1e150 else np.sqrt(theta * theta + 1.0)
                t = np.sign(theta) / (abs(theta) + root)
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(d)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                m = rot.T @ m @ rot
                m = 0.5 * (m + m.T)
                v = v @ rot
    w = np.diag(m).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def eigmin(a) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    w, _ = eigh_jacobi(a)
    return float(w[0])


def frobenius_inner(a, b) -> float:
    """Trace inner product sum_{u,v} A[u,v] B[u,v] of two symmetric matrices."""
    ma, mb = as_sym(a), as_sym(b)
    _check_same_dim(ma, mb)
    return float(np.sum(ma * mb))


def frobenius_norm(a) -> float:
    m = np.asarray(a, dtype=float)
    return float(np.sqrt(np.sum(m * m)))


def sym_sqrt(a) -> np.ndarray:
    """Spectral square root of a PSD matrix.

    Eigenvalues inside the PSD tolerance band are clipped to zero; an
    eigenvalue below the band raises.  The residual ||S @ S - a||_F stays
    within SQRT_TOL * (1 + ||a||_F).
    """
    m = as_sym(a)
    w, v = eigh_jacobi(m)
    floor = -PSD_TOL * (1.0 + frobenius_norm(m))
    if w[0] < floor:
        raise MatrixError(f"matrix is not PSD within tolerance (eigmin={w[0]:.3e})")
    s = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return 0.5 * (s + s.T)


def project_psd(a) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (negative eigenvalues clipped)."""
    m = as_sym(a)
    w, v = eigh_jacobi(m)
    p = v @ np.diag(np.clip(w, 0.0, None)) @ v.T
    return 0.5 * (p + p.T)


def sqrt_factor(a):
    """Reduced square-root factor ``L`` with ``L @ L.T == a`` and full column rank.

    Columns corresponding to (numerically) zero eigenvalues are dropped, so a
    rank-r PSD matrix yields a (d, r) factor.  Used to sample Gaussian vectors
    with singular covariance.
    """
    m = as_sym(a)
    w, v = eigh_jacobi(m)
    floor = -PSD_TOL * (1.0 + frobenius_norm(m))
    if w[0] < floor:
        raise MatrixError(f"matrix is not PSD within tolerance (eigmin={w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    keep = w > PSD_TOL * (1.0 + w.max() if w.size else 1.0)
    if not np.any(keep):
        return np.zeros((m.shape[0], 0))
    return v[:, keep] * np.sqrt(w[keep])
