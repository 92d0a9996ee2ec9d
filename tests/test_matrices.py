import warnings

import numpy as np
import pytest

from parisi_lab.matrices import (
    MatrixError,
    eigh_jacobi,
    frobenius_inner,
    frobenius_norm,
    sqrt_factor,
    sym_sqrt,
)


def rand_sym(rng, d):
    a = rng.normal(size=(d, d))
    return 0.5 * (a + a.T)


def rand_psd(rng, d, lo=0.1, hi=2.0):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q @ np.diag(rng.uniform(lo, hi, d)) @ q.T


def test_frobenius_examples():
    assert frobenius_inner(np.eye(3), np.eye(3)) == 3.0
    assert frobenius_inner(rand_sym(np.random.default_rng(0), 2), np.zeros((2, 2))) == 0.0
    a = np.array([[1.0, 2.0], [2.0, 3.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert frobenius_inner(a, b) == 4.0


def test_frobenius_bilinear_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c = (rand_sym(rng, 4) for _ in range(3))
        s, t = rng.normal(size=2)
        assert frobenius_inner(a, b) == pytest.approx(frobenius_inner(b, a), abs=1e-14)
        assert frobenius_inner(s * a + t * b, c) == pytest.approx(
            s * frobenius_inner(a, c) + t * frobenius_inner(b, c), rel=1e-12, abs=1e-12
        )


def test_dimension_mismatch():
    with pytest.raises(MatrixError):
        frobenius_inner(np.eye(2), np.eye(3))


def test_sym_sqrt_examples():
    assert np.allclose(sym_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(sym_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    s = sym_sqrt(m)
    assert np.allclose(s @ s, m, atol=1e-12)


def test_sym_sqrt_residual_many():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        m = rand_psd(rng, d, 0.0, 3.0)
        s = sym_sqrt(m)
        assert frobenius_norm(s @ s - m) <= 1e-10 * (1.0 + frobenius_norm(m))


def test_sym_sqrt_rejects_indefinite():
    with pytest.raises(MatrixError):
        sym_sqrt(np.array([[-1.0]]))


def test_eigh_contract():
    # Eigenvalues ascending, eigenvectors orthonormal, and the decomposition
    # reconstructs the matrix, for every dimension the package uses.
    rng = np.random.default_rng(5)
    for d in range(1, 9):
        for _ in range(20):
            m = rand_sym(rng, d)
            w, v = eigh_jacobi(m)
            assert w.shape == (d,) and v.shape == (d, d)
            assert np.all(np.diff(w) >= 0.0)
            assert np.allclose(v.T @ v, np.eye(d), rtol=0.0, atol=1e-13)
            assert frobenius_norm(v @ np.diag(w) @ v.T - m) <= 1e-12 * frobenius_norm(m)
    # d = 1 is exact; every d = 1 route relies on it to stay bit-identical.
    for a in (-2.5, 0.0, 1e-300, 0.1, 3.0, 1e300):
        w, v = eigh_jacobi(np.array([[a]]))
        assert w.tolist() == [a] and v.tolist() == [[1.0]]


def test_jacobi_tiny_off_diagonal_does_not_overflow():
    # An off-diagonal entry far below the diagonal gap makes the rotation's
    # theta about 1e249, whose square overflowed.
    u = np.array([[1.0, 1.5e-249, 1.5e-249], [1.5e-249, 2.0, 1.0], [1.5e-249, 1.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w, v = eigh_jacobi(u)
    assert np.allclose(w, [1.0, 1.0, 3.0])
    assert np.allclose(v @ np.diag(w) @ v.T, u, atol=1e-14)


def test_sqrt_factor_rank():
    m = np.diag([2.0, 0.0])
    fac = sqrt_factor(m)
    assert fac.shape == (2, 1)
    assert np.allclose(fac @ fac.T, m)
    assert sqrt_factor(np.zeros((2, 2))).shape == (2, 0)
