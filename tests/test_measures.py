import numpy as np
import pytest
from scipy.special import logsumexp

from parisi_lab.measures import (
    AprioriMeasure,
    EvalConfig,
    MeasureError,
    TerminalCondition,
    _logsumexp_rows,
)


def test_discrete_constructor():
    mu = AprioriMeasure.rademacher()
    assert mu.dim == 1
    assert mu.log_mass == pytest.approx(np.log(2))
    assert mu.support_radius() == 1.0
    with pytest.raises(MeasureError):
        AprioriMeasure.discrete([[1.0]], [0.0])


def test_hypercube():
    mu = AprioriMeasure.hypercube(2)
    assert mu.points.shape == (4, 2)
    assert mu.support_radius() == pytest.approx(np.sqrt(2))


def test_terminal_beta_zero_gives_log_mass():
    mu = AprioriMeasure.discrete([[-1.0], [0.5], [1.0]], [0.5, 1.0, 2.0])
    tc = TerminalCondition(0.0, np.zeros((1, 1)), mu)
    assert tc(np.array([[0.7]]))[0] == pytest.approx(np.log(3.5))


def test_terminal_rademacher_closed_form():
    mu = AprioriMeasure.rademacher()
    beta = 0.8
    tc = TerminalCondition(beta, np.zeros((1, 1)), mu)
    ys = np.linspace(-3, 3, 11)
    expected = np.log(2) + np.log(np.cosh(np.sqrt(2) * beta * ys))
    assert np.allclose(tc(ys.reshape(-1, 1)), expected)


def test_terminal_symmetric_support_at_origin():
    mu = AprioriMeasure.discrete([[-1.2], [1.2]], [0.7, 0.7])
    tc = TerminalCondition(1.0, np.zeros((1, 1)), mu)
    assert tc(np.zeros((1, 1)))[0] == pytest.approx(np.log(1.4))


def test_gaussian_terminal_matches_quadrature():
    # The quadratic tilt doubles inside the completed square: the effective
    # precision is C - 2*tilt.  Verified against direct integration.
    C = np.array([[3.0, 0.4], [0.4, 4.0]])
    h = np.array([0.3, -0.2])
    tilt = np.array([[0.2, 0.1], [0.1, -0.15]])
    mu = AprioriMeasure.gaussian(C, h)
    tc = TerminalCondition(0.7, tilt, mu)
    s = np.linspace(-8, 8, 2001)
    s1, s2 = np.meshgrid(s, s, indexing="ij")
    pts = np.stack([s1.ravel(), s2.ravel()], axis=1)
    dens = np.sqrt(np.linalg.det(C) / (2 * np.pi) ** 2) * np.exp(
        -0.5 * np.einsum("ij,jk,ik->i", pts, C, pts) + pts @ h
    )
    y = np.array([0.4, -0.7])
    integrand = dens * np.exp(
        np.sqrt(2) * 0.7 * pts @ y + np.einsum("ij,jk,ik->i", pts, tilt, pts)
    )
    brute = np.log(np.sum(integrand) * (s[1] - s[0]) ** 2)
    assert tc(y.reshape(1, 2))[0] == pytest.approx(brute, abs=1e-8)


def test_gaussian_positivity_violation():
    mu = AprioriMeasure.gaussian(np.array([[1.0]]))
    tc = TerminalCondition(1.0, np.array([[0.6]]), mu)  # 1 - 2*0.6 < 0
    with pytest.raises(MeasureError):
        tc(np.zeros((1, 1)))


def test_gradient_bound_discrete_only():
    mu = AprioriMeasure.gaussian(np.array([[2.0]]))
    tc = TerminalCondition(1.0, np.zeros((1, 1)), mu)
    with pytest.raises(MeasureError):
        tc.gradient_sup_bound()


def test_eval_config_validation():
    with pytest.raises(MeasureError):
        EvalConfig(engine="magic")
    with pytest.raises(MeasureError):
        EvalConfig(nodes=4)


def test_measure_json_round_trip():
    mu = AprioriMeasure.discrete([[-1.0, 0.5], [1.0, -0.5]], [1.0, 2.0])
    back = AprioriMeasure.from_json_dict(mu.to_json_dict())
    assert np.array_equal(back.points, mu.points)
    assert np.array_equal(back.weights, mu.weights)
    g = AprioriMeasure.gaussian(np.array([[2.0, 0.1], [0.1, 3.0]]), np.array([0.2, 0.0]))
    back2 = AprioriMeasure.from_json_dict(g.to_json_dict())
    assert np.array_equal(back2.precision, g.precision)


@pytest.mark.parametrize("k", range(1, 17))
def test_discrete_terminal_matches_scipy_logsumexp(k):
    # Integer support points with repeats and a few shared weights make
    # exact ties at the row maximum; y = 0 ties every equal-logit entry.
    rng = np.random.default_rng(100 + k)
    points = rng.integers(-2, 3, size=(k, 1)).astype(float)
    weights = rng.choice([0.5, 1.0, 2.0], size=k)
    tc = TerminalCondition(0.9, np.array([[0.3]]), AprioriMeasure.discrete(points, weights))
    y = np.concatenate([rng.normal(scale=2.0, size=400), np.zeros(5), np.round(rng.normal(size=20))])
    logits = np.log(weights) + 0.3 * points[:, 0] ** 2
    expected = logsumexp(np.sqrt(2.0) * 0.9 * y[:, None] @ points.T + logits[None, :], axis=1)
    assert np.array_equal(tc(y[:, None]), expected)


@pytest.mark.parametrize("k", range(1, 17))
def test_logsumexp_rows_matches_scipy_with_ties(k):
    rng = np.random.default_rng(k)
    a = rng.normal(scale=5.0, size=(300, k))
    a[::3, -1] = a[::3, 0]
    a[::4] = np.round(a[::4])
    a[::7] = 1.5
    assert np.array_equal(_logsumexp_rows(a), logsumexp(a, axis=1))


def test_logsumexp_rows_non_finite_rows_match_scipy():
    a = np.array([[np.inf, 1.0], [-np.inf, -np.inf], [np.nan, 1.0], [1e308, 1e308], [0.0, -np.inf]])
    assert np.array_equal(_logsumexp_rows(a), logsumexp(a, axis=1), equal_nan=True)
