"""Exact small-dimension symmetric-matrix algebra.

Everything here operates on plain ``numpy`` arrays interpreted as d x d
symmetric matrices with d expected to stay small (<= 16).  Every
eigen-decomposition in the package is LAPACK's, through ``eigh_jacobi``,
like every other factorization the package uses (``slogdet``, ``inv``,
``pinv``, ``qr``).
"""

from __future__ import annotations

import numpy as np

# Relative PSD tolerance: double-precision eigensolver noise floor for d <= 8.
PSD_TOL = 1e-10


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
    """Eigen-decomposition ``(w, v)`` of a symmetric matrix by LAPACK's
    ``eigh``: eigenvalues ``w`` ascending, orthonormal eigenvectors in the
    columns of ``v``.  For d = 1 it is exactly ``(a[0, :1], [[1.0]])``.

    The name stays because ``perfbench/spans.py`` times this function under
    it in ``matrices``, ``saddle``, ``measures`` and ``gaussian``; a rename
    waits for ROADMAP item 1(b), which moves that tracing into the library.
    """
    return np.linalg.eigh(as_sym(a))


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


def _psd_spectrum(a):
    """Eigenvalues clipped at zero, and eigenvectors, of a PSD matrix.  An
    eigenvalue below -PSD_TOL (1 + ||a||_F) raises; one above it is rounding."""
    m = as_sym(a)
    w, v = eigh_jacobi(m)
    if w[0] < -PSD_TOL * (1.0 + frobenius_norm(m)):
        raise MatrixError(f"matrix is not PSD within tolerance (eigmin={w[0]:.3e})")
    return np.clip(w, 0.0, None), v


def sym_sqrt(a) -> np.ndarray:
    """Spectral square root of a PSD matrix.  Eigenvalues inside the PSD
    tolerance band are clipped to zero; one below the band raises."""
    w, v = _psd_spectrum(a)
    s = v @ np.diag(np.sqrt(w)) @ v.T
    return 0.5 * (s + s.T)


def sqrt_factor(a):
    """Reduced square-root factor ``L`` with ``L @ L.T == a`` and full column rank.

    Columns corresponding to (numerically) zero eigenvalues are dropped, so a
    rank-r PSD matrix yields a (d, r) factor, (d, 0) for the zero matrix.
    Used to sample Gaussian vectors with singular covariance.
    """
    w, v = _psd_spectrum(a)
    keep = w > PSD_TOL * (1.0 + w.max())
    return v[:, keep] * np.sqrt(w[keep])
