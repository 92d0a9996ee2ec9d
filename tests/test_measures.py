import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from parisi_lab.measures import (
    AprioriMeasure,
    EvalConfig,
    MeasureError,
    TerminalCondition,
    _logsumexp_columns,
    _quadratic_form,
    shifted_grid_points,
)


def test_discrete_constructor():
    mu = AprioriMeasure.rademacher()
    assert mu.dim == 1
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
    with pytest.raises(MeasureError, match="grid too coarse"):
        EvalConfig(grid_points_2d=32)
    with pytest.raises(MeasureError, match="samples"):
        EvalConfig(samples=7)
    with pytest.raises(MeasureError, match="replicas"):
        EvalConfig(replicas=1)
    EvalConfig(grid_points_2d=33, samples=8, replicas=2)


def test_measure_json_round_trip():
    mu = AprioriMeasure.discrete([[-1.0, 0.5], [1.0, -0.5]], [1.0, 2.0])
    back = AprioriMeasure.from_json_dict(mu.to_json_dict())
    assert np.array_equal(back.points, mu.points)
    assert np.array_equal(back.weights, mu.weights)
    g = AprioriMeasure.gaussian(np.array([[2.0, 0.1], [0.1, 3.0]]), np.array([0.2, 0.0]))
    back2 = AprioriMeasure.from_json_dict(g.to_json_dict())
    assert np.array_equal(back2.precision, g.precision)


# The bound on a plain log-sum-exp against scipy's, which splits the
# maximum off and sums the rest in pairwise order: a few rounding errors of
# the exponentials, the sum and the log, relative to 1 + |value|.
LOGSUMEXP_BOUND = 8.0 * np.finfo(float).eps


def _close_to_scipy(got, expected):
    return np.all(np.abs(got - expected) <= LOGSUMEXP_BOUND * (1.0 + np.abs(expected)))


@pytest.mark.parametrize("k", range(1, 17))
def test_discrete_terminal_matches_scipy_logsumexp(k):
    # Integer support points with repeats and a few shared weights make
    # exact ties at the row maximum; y = 0 ties every equal-logit entry.
    # Integer products are exact, so the per-axis logits equal the matrix
    # product bit for bit.
    rng = np.random.default_rng(100 + k)
    points = rng.integers(-2, 3, size=(k, 1)).astype(float)
    weights = rng.choice([0.5, 1.0, 2.0], size=k)
    tc = TerminalCondition(0.9, np.array([[0.3]]), AprioriMeasure.discrete(points, weights))
    y = np.concatenate([rng.normal(scale=2.0, size=400), np.zeros(5), np.round(rng.normal(size=20))])
    got = tc(y[:, None])
    assert np.array_equal(got, _matrix_product_formula(tc, y[:, None]))
    logits = np.log(weights) + 0.3 * points[:, 0] ** 2
    assert _close_to_scipy(got, logsumexp(np.sqrt(2.0) * 0.9 * y[:, None] @ points.T + logits[None, :], axis=1))


@pytest.mark.parametrize("k", range(1, 301))
def test_logsumexp_rows_matches_scipy_with_ties(k):
    rng = np.random.default_rng(k)
    a = rng.normal(scale=5.0, size=(300, k))
    a[::3, -1] = a[::3, 0]
    a[::4] = np.round(a[::4])
    a[::7] = 1.5
    assert _close_to_scipy(_logsumexp_columns(list(a.copy().T)), logsumexp(a, axis=1))


def _matrix_product_formula(tc, flat):
    """The discrete g as one BLAS product of the stacked points with the
    support, reduced over the support by ``_logsumexp_columns``."""
    sigma = tc.mu.points
    logits = np.log(tc.mu.weights) + np.einsum("ij,jk,ik->i", sigma, tc.tilt, sigma)
    block = np.sqrt(2.0) * tc.beta * flat @ sigma.T + logits[None, :]
    return _logsumexp_columns(list(np.ascontiguousarray(block.T)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hypercube_terminal_matches_matrix_product(d):
    # K = 2**d support points.  Products with +-1 coordinates are exact, so
    # the per-axis sums equal the matrix product bit for bit.
    rng = np.random.default_rng(30 + d)
    tilt = rng.normal(scale=0.2, size=(d, d))
    tc = TerminalCondition(0.8, tilt + tilt.T, AprioriMeasure.hypercube(d))
    flat = np.concatenate([rng.normal(scale=2.0, size=(2000, d)), np.zeros((3, d))])
    assert np.array_equal(tc(flat), _matrix_product_formula(tc, flat))


def test_logsumexp_rows_non_finite_rows_match_scipy():
    a = np.array([
        [np.inf, 1.0], [-np.inf, -np.inf], [np.nan, 1.0], [1e308, 1e308], [0.0, -np.inf],
        [np.inf, np.inf], [np.inf, -np.inf], [np.inf, np.nan], [-np.inf, 1.0],
    ])
    assert np.array_equal(_logsumexp_columns(list(a.copy().T)), logsumexp(a, axis=1), equal_nan=True)


def _shifted_grid_cases():
    tilt1 = np.array([[0.15]])
    tilt2 = np.array([[0.1, -0.05], [-0.05, 0.2]])
    gauss1 = AprioriMeasure.gaussian(np.array([[2.5]]), np.array([0.4]))
    gauss2 = AprioriMeasure.gaussian(np.array([[3.0, 0.4], [0.4, 4.0]]), np.array([0.3, -0.2]))
    uneven = AprioriMeasure.discrete(
        np.array([[1.0, 0.0], [-0.5, 2.0], [0.3, -1.2]]), np.array([0.2, 1.5, 0.7])
    )
    return {
        "gaussian_d1": TerminalCondition(0.8, tilt1, gauss1),
        "gaussian_d2": TerminalCondition(0.6, tilt2, gauss2),
        "gaussian_d2_untilted": TerminalCondition(1.1, np.zeros((2, 2)), gauss2),
        "rademacher": TerminalCondition(0.9, tilt1, AprioriMeasure.rademacher()),
        "uneven_discrete_d2": TerminalCondition(0.7, tilt2, uneven),
        "hypercube_d2": TerminalCondition(0.7, tilt2, AprioriMeasure.hypercube(2)),
    }


@pytest.mark.parametrize("case", sorted(_shifted_grid_cases()))
def test_on_shifted_grids_is_bit_identical_to_stacked_points(case):
    tc = _shifted_grid_cases()[case]
    rng = np.random.default_rng(7)
    axes = [np.linspace(-3.0, 3.0, 41), np.linspace(-2.5, 2.0, 37)][: tc.dim]
    shifts = rng.normal(scale=0.8, size=(5, tc.dim))
    got = tc.on_shifted_grids(axes, shifts)
    assert got.shape == (5,) + tuple(a.size for a in axes)
    assert np.array_equal(got, tc(shifted_grid_points(axes, shifts)))
    value, grad, moment = tc.derivatives(axes, shifts)
    assert np.array_equal(value, got)
    assert grad.shape == got.shape + (tc.dim,) and moment.shape == got.shape + (tc.dim, tc.dim)
    # The points are a meshgrid of the axes plus each shift.
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    stacked = mesh[None] + shifts.reshape((5,) + (1,) * tc.dim + (tc.dim,))
    assert np.array_equal(shifted_grid_points(axes, shifts), stacked)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_quadratic_form_is_bit_identical_to_einsum(d):
    rng = np.random.default_rng(d)
    w = rng.normal(scale=3.0, size=(5000, d))
    a = rng.normal(size=(d, d))
    a = a + a.T
    assert np.array_equal(_quadratic_form(w.T, a), np.einsum("ij,jk,ik->i", w, a, w))


@st.composite
def _discrete_terminals(draw):
    d = draw(st.sampled_from([1, 2]))
    k = draw(st.integers(1, 20))
    plus_minus_one = draw(st.booleans())
    coord = st.sampled_from([-1.0, 1.0]) if plus_minus_one else st.floats(-3.0, 3.0)
    points = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=k, max_size=k))
    weights = draw(st.lists(st.floats(0.05, 5.0), min_size=k, max_size=k))
    tilt = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=d * d, max_size=d * d))).reshape(d, d)
    beta = draw(st.floats(0.0, 2.0))
    shifts = draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d), min_size=1, max_size=4))
    tc = TerminalCondition(beta, tilt + tilt.T, AprioriMeasure.discrete(np.array(points), weights))
    return tc, plus_minus_one, np.array(shifts)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_discrete_terminals())
def test_discrete_on_shifted_grids_property(case):
    tc, plus_minus_one, shifts = case
    axes = [np.linspace(-3.0, 3.0, 9), np.linspace(-2.0, 2.5, 7)][: tc.dim]
    pts = shifted_grid_points(axes, shifts)
    got = tc.on_shifted_grids(axes, shifts)
    assert np.array_equal(got, tc(pts))
    assert np.array_equal(tc.derivatives(axes, shifts)[0], got)
    if plus_minus_one:
        flat = pts.reshape(-1, tc.dim)
        assert np.array_equal(got.ravel(), _matrix_product_formula(tc, flat))


def _level_sum_points(draws):
    """The stacked sums ((0 + z_1) + z_2) + ... of one row per level, the
    points nested Monte Carlo hands a terminal without ``on_level_sums``."""
    pts = np.zeros((1, draws[0].shape[1]))
    for z in draws:
        pts = (pts[:, None, :] + z[None, :, :]).reshape(-1, pts.shape[1])
    return pts


def _level_sum_draws(dim, levels, count=12):
    rng = np.random.default_rng(10 * dim + levels)
    return [rng.normal(scale=0.6, size=(count, dim)) for _ in range(levels)]


LEVEL_SUM_CASES = {
    "rademacher": (AprioriMeasure.rademacher(), np.zeros((1, 1))),
    "hypercube_d2": (AprioriMeasure.hypercube(2), np.zeros((2, 2))),
    "hypercube_d3": (AprioriMeasure.hypercube(3), np.zeros((3, 3))),
    "uneven_discrete_d2": (
        AprioriMeasure.discrete(np.array([[1.0, 0.0], [-0.5, 2.0], [0.3, -1.2]]), np.array([0.2, 1.5, 0.7])),
        np.array([[0.1, -0.05], [-0.05, 0.2]]),
    ),
}

# The factored sum scales and adds the coordinates in another order than the
# per-point log-sum-exp, which moves g by about eps * sqrt(2) beta |z| where
# the coordinates cancel: at most 1.3e-13 of max(1, |g|) on these draws, at
# beta = 3000.  An entry that underflowed in the matrix product would be -inf
# or far off.
LEVEL_SUM_BOUND = 1e-12


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("beta", [0.5, 5.0, 50.0, 300.0, 3000.0])
@pytest.mark.parametrize("case", sorted(LEVEL_SUM_CASES))
def test_discrete_on_level_sums_matches_stacked_points(case, beta, levels):
    mu, tilt = LEVEL_SUM_CASES[case]
    tc = TerminalCondition(beta, tilt, mu)
    draws = _level_sum_draws(mu.dim, levels)
    got = tc.on_level_sums(draws)
    assert got.shape == (12,) * levels
    expected = tc(_level_sum_points(draws)).reshape(got.shape)
    assert np.all(np.abs(got - expected) <= LEVEL_SUM_BOUND * np.maximum(1.0, np.abs(expected)))


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("case", ["gaussian_d1", "gaussian_d2", "gaussian_d2_untilted"])
def test_gaussian_on_level_sums_is_bit_identical_to_stacked_points(case, levels):
    tc = _shifted_grid_cases()[case]
    draws = _level_sum_draws(tc.dim, levels)
    got = tc.on_level_sums(draws)
    assert np.array_equal(got, tc(_level_sum_points(draws)).reshape(got.shape))
