import numpy as np
import pytest

from parisi_lab.matrices import (
    MatrixError,
    eigh_jacobi,
    eigmin,
    frobenius_inner,
    frobenius_norm,
    hadamard_power,
    loewner_leq,
    project_psd,
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
    with pytest.raises(MatrixError):
        loewner_leq(np.eye(2), np.eye(3))


def test_loewner_examples():
    assert loewner_leq(np.eye(2), 2 * np.eye(2))
    assert not loewner_leq(2 * np.eye(2), np.eye(2))
    assert loewner_leq(np.diag([1.0, 0.0]), np.eye(2))


def test_loewner_partial_order_properties():
    rng = np.random.default_rng(2)
    mats = [rand_sym(rng, 3) for _ in range(8)]
    for a in mats:
        assert loewner_leq(a, a)  # reflexive
    for a in mats:
        for b in mats:
            if loewner_leq(a, b) and loewner_leq(b, a):
                assert frobenius_norm(a - b) <= 1e-8 * (1 + frobenius_norm(a))
    psds = [rand_psd(rng, 3) for _ in range(6)]
    for a in psds:
        b = a + rand_psd(rng, 3, 0.0, 0.5)
        c = b + rand_psd(rng, 3, 0.0, 0.5)
        assert loewner_leq(a, b) and loewner_leq(b, c) and loewner_leq(a, c)


def test_hadamard_power():
    assert hadamard_power(np.array([[4.0]]), 0.5) == pytest.approx(np.array([[2.0]]))
    m = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert np.array_equal(hadamard_power(m, 1.0), m)
    assert np.array_equal(hadamard_power(m, 2.0), np.array([[1.0, 4.0], [4.0, 9.0]]))
    with pytest.raises(MatrixError):
        hadamard_power(np.array([[-1.0, 0.0], [0.0, 1.0]]), 0.5)


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


def test_project_psd():
    assert np.allclose(project_psd(np.eye(2)), np.eye(2))
    assert np.allclose(project_psd(np.array([[-1.0]])), np.array([[0.0]]))
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(project_psd(flip), np.full((2, 2), 0.5))
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = rand_sym(rng, 4)
        p = project_psd(m)
        assert eigmin(p) >= -1e-12
        assert np.allclose(project_psd(p), p, atol=1e-12)  # idempotent
        psd = rand_psd(rng, 4)
        assert np.allclose(project_psd(psd), psd, atol=1e-10)


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = int(rng.integers(1, 9))
        m = rand_sym(rng, d)
        w, v = eigh_jacobi(m)
        w_ref = np.linalg.eigvalsh(m)
        assert np.allclose(w, w_ref, atol=1e-10)
        assert np.allclose(v @ np.diag(w) @ v.T, m, atol=1e-10)


def test_sqrt_factor_rank():
    m = np.diag([2.0, 0.0])
    fac = sqrt_factor(m)
    assert fac.shape == (2, 1)
    assert np.allclose(fac @ fac.T, m)
    assert sqrt_factor(np.zeros((2, 2))).shape == (2, 0)
