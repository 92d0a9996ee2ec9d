import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss

from parisi_lab.acceptance import _random_gaussian_instance
from parisi_lab.gaussian import closed_form_recursion
from parisi_lab.measures import AprioriMeasure, EvalConfig, TerminalCondition
from parisi_lab.paths import DiscretePath, MonotoneChain, UnitPartition, chain_from_blocks
from parisi_lab.sk import BudgetError
from parisi_lab.recursion import (
    BLOCK_POINTS,
    MC_POINT_BUDGET,
    FunctionalGradient,
    GridFunction,
    Level,
    RecursionResult,
    _gauss_hermite,
    _gh_nodes,
    _log_avg_exp,
    _mc_value,
    functional_from_recursion,
    levels_from_order_params,
    lipschitz_witness,
    local_functional,
    local_functional_gradient,
    overlap_energy_term,
    propagate_segment,
    recursion_from_levels,
    recursion_value,
)

RADEMACHER = AprioriMeasure.rademacher()


def scalar_setup(x_int, qs, u=1.0, beta=0.5, allow_equal=False):
    x = UnitPartition.from_interior(x_int)
    chain = MonotoneChain(
        [np.zeros((1, 1))] + [[[q]] for q in qs] + [[[u]]], allow_equal=allow_equal
    )
    tc = TerminalCondition(beta, np.zeros((1, 1)), RADEMACHER)
    return x, chain, tc


class LinearProbe:
    dim = 1

    def __init__(self, slope):
        self.slope = slope

    def __call__(self, pts):
        return self.slope * np.asarray(pts)[:, 0]


def test_beta_zero_gives_log_mass():
    x, chain, _ = scalar_setup([0.3, 0.7], [0.2, 0.5])
    tc = TerminalCondition(0.0, np.zeros((1, 1)), RADEMACHER)
    val = recursion_value(x, chain, tc).value
    assert val == pytest.approx(np.log(2), abs=1e-12)


def test_linear_probe_closed_form():
    x, chain, _ = scalar_setup([0.3, 0.7], [0.2, 0.5])
    a = 0.7
    levels = levels_from_order_params(x, chain)
    val = recursion_from_levels(LinearProbe(a), levels, EvalConfig()).value
    expected = 0.3 * a**2 * 0.3 / 2 + 0.7 * a**2 * 0.5 / 2
    assert val == pytest.approx(expected, abs=1e-10)


def test_single_level_matches_nested_quadrature_oracle():
    # Independent high-precision oracle: brute nested 200-node Gauss-Hermite.
    beta = 0.5
    x, chain, tc = scalar_setup([0.6], [0.4], beta=beta)
    xs, ws = hermgauss(200)
    ws = ws / np.sqrt(np.pi)
    z0 = np.sqrt(2 * 0.4) * xs
    z1 = np.sqrt(2 * 0.6) * xs
    g = lambda y: np.log(2 * np.cosh(np.sqrt(2) * beta * y))
    inner = np.array(
        [(1 / 0.6) * np.log(np.sum(ws * np.exp(0.6 * g(z + z1)))) for z in z0]
    )
    oracle = float(np.sum(ws * inner))
    val = recursion_value(x, chain, tc).value
    assert val == pytest.approx(oracle, abs=1e-8)


def test_level_collapse_exact():
    # Inserting a zero-variance level (duplicate of the upper neighbor at a
    # new weight) leaves the value unchanged.  Duplicating the lower neighbor
    # instead would reassign the increment's weight and change the value.
    x1, chain1, tc = scalar_setup([0.4], [0.3], beta=0.6)
    cfg = EvalConfig(grid_points=3201)
    base = recursion_value(x1, chain1, tc, cfg).value
    x2 = UnitPartition.from_interior([0.4, 0.7])
    chain2 = MonotoneChain([[[0.0]], [[0.3]], [[1.0]], [[1.0]]], allow_equal=True)
    collapsed = recursion_value(x2, chain2, tc, cfg).value
    assert collapsed == pytest.approx(base, abs=1e-10)


def test_all_weights_one_collapses_nesting():
    tc = TerminalCondition(0.7, np.zeros((1, 1)), RADEMACHER)
    cfg = EvalConfig()
    levels = [Level(1.0, np.array([[v]])) for v in (0.2, 0.3, 0.5)]
    nested = recursion_from_levels(tc, levels, cfg).value
    single = recursion_from_levels(tc, [Level(1.0, np.array([[1.0]]))], cfg).value
    assert nested == pytest.approx(single, abs=1e-8)


def test_quadrature_vs_monte_carlo():
    x, chain, tc = scalar_setup([0.5], [0.4], beta=0.5)
    quad = recursion_value(x, chain, tc, EvalConfig()).value
    mc = recursion_value(
        x, chain, tc, EvalConfig(engine="monte_carlo", samples=256, replicas=24, seed=5)
    )
    assert abs(mc.value - quad) <= 3.0 * mc.std_error


def test_monte_carlo_reproducible():
    x, chain, tc = scalar_setup([0.5], [0.4], beta=0.5)
    cfg = EvalConfig(engine="monte_carlo", samples=64, replicas=4, seed=9)
    a = recursion_value(x, chain, tc, cfg)
    b = recursion_value(x, chain, tc, cfg)
    assert a.value == b.value and a.std_error == b.std_error


def test_monte_carlo_point_budget_raises_before_any_draw():
    x, chain, tc = scalar_setup([0.2, 0.5, 0.8], [0.1, 0.3, 0.6])
    levels = levels_from_order_params(x, chain)
    cfg = EvalConfig(engine="monte_carlo")
    assert cfg.samples ** len(levels) > MC_POINT_BUDGET
    # No generator: a draw would fail with AttributeError, not BudgetError.
    with pytest.raises(BudgetError, match="Monte Carlo points exceed the budget"):
        _mc_value(tc, levels, cfg, None)
    with pytest.raises(BudgetError):
        recursion_value(x, chain, tc, cfg)
    # One level fewer stays inside the budget.
    fewer = levels_from_order_params(*scalar_setup([0.5, 0.8], [0.3, 0.6])[:2])
    assert cfg.samples ** len(fewer) <= MC_POINT_BUDGET


def test_monte_carlo_d3():
    mu = AprioriMeasure.hypercube(3)
    tc = TerminalCondition(0.3, np.zeros((3, 3)), mu)
    x = UnitPartition.from_interior([0.5])
    chain = MonotoneChain([np.zeros((3, 3)), 0.4 * np.eye(3), np.eye(3)])
    res = recursion_value(x, chain, tc, EvalConfig(engine="monte_carlo", samples=128, replicas=8, seed=2))
    assert np.isfinite(res.value) and res.std_error > 0


@st.composite
def _weight_pairs(draw):
    """A d = 1 terminal (Rademacher, or up to 8 random support points), the
    variance increments of 1-3 levels and per level a weight pair lo <= hi."""
    if draw(st.booleans()):
        mu = RADEMACHER
    else:
        k = draw(st.integers(1, 8))
        points = draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k))
        weights = draw(st.lists(st.floats(0.1, 2.0), min_size=k, max_size=k))
        mu = AprioriMeasure.discrete(np.array(points)[:, None], weights)
    tc = TerminalCondition(draw(st.floats(0.0, 1.5)), np.zeros((1, 1)), mu)
    n = draw(st.integers(1, 3))
    seg = draw(st.lists(st.floats(0.05, 0.5), min_size=n, max_size=n))
    pairs = [sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))) for _ in range(n)]
    return tc, seg, pairs


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(_weight_pairs())
def test_monotone_in_weights(case):
    # (1/w) log E exp(w X) grows with w, and each level is monotone in the
    # next one's values, so raising any level's weight cannot lower X_0.
    tc, seg, pairs = case
    cfg = EvalConfig(grid_points=801)
    lo = [Level(w, np.array([[v]])) for (w, _), v in zip(pairs, seg)]
    hi = [Level(w, np.array([[v]])) for (_, w), v in zip(pairs, seg)]
    assert recursion_from_levels(tc, lo, cfg).value <= recursion_from_levels(tc, hi, cfg).value + 1e-9


def test_monotone_in_terminal():
    cfg = EvalConfig(grid_points=801)
    levels = [Level(0.0, np.array([[0.4]])), Level(0.5, np.array([[0.6]]))]
    g1 = LinearProbe(0.5)

    class Shifted:
        dim = 1

        def __call__(self, pts):
            return g1(pts) + 0.2

    v1 = recursion_from_levels(g1, levels, cfg).value
    v2 = recursion_from_levels(Shifted(), levels, cfg).value
    assert v1 <= v2 + 1e-10
    assert v2 == pytest.approx(v1 + 0.2, abs=1e-9)


def test_propagate_segment_identity_and_collapse():
    axes = [np.linspace(-6, 6, 801)]
    cfg = EvalConfig()
    tc = TerminalCondition(0.5, np.zeros((1, 1)), RADEMACHER)
    ident = propagate_segment(tc, 0.5, np.zeros((1, 1)), axes, cfg)
    assert np.allclose(ident.values, tc(axes[0].reshape(-1, 1)), atol=1e-12)
    # weight one is the plain log-average linearization
    full = propagate_segment(tc, 1.0, np.array([[0.3]]), axes, cfg)
    zs = np.sqrt(2 * 0.3) * hermgauss(cfg.nodes)[0]
    ws = hermgauss(cfg.nodes)[1] / np.sqrt(np.pi)
    direct = np.log(sum(w * np.exp(tc(np.array([[0.0 + z]]))[0]) for w, z in zip(ws, zs)))
    assert full.at_origin() == pytest.approx(float(direct), abs=1e-9)


def test_overlap_energy_term():
    x = UnitPartition.from_interior([0.5])
    chain = MonotoneChain([[[0.0]], [[0.5]], [[1.0]]])
    # norms squared: 0.25 and 1 -> 0.5 * 0.5 * (1 - 0.25) = 0.1875 at beta=1
    assert overlap_energy_term(x, chain, 1.0) == pytest.approx(0.1875)
    assert overlap_energy_term(x, chain, 0.0) == 0.0
    flat = MonotoneChain([[[0.0]], [[0.5]], [[0.5]]], allow_equal=True)
    assert overlap_energy_term(x, flat, 1.0) == 0.0


def test_local_functional_beta_zero():
    x, chain, _ = scalar_setup([0.5], [0.4])
    tc = TerminalCondition(0.0, np.zeros((1, 1)), RADEMACHER)
    assert local_functional(x, chain, tc).value == pytest.approx(np.log(2), abs=1e-12)


def test_level_collapse_in_functional():
    # A chain with Q[1] = Q[2] = U drops the energy term and reduces to the
    # zero-level evaluation.
    x = UnitPartition.from_interior([0.5])
    chain = MonotoneChain([[[0.0]], [[1.0]], [[1.0]]], allow_equal=True)
    tc = TerminalCondition(0.5, np.zeros((1, 1)), RADEMACHER)
    val = local_functional(x, chain, tc).value
    x0 = UnitPartition(np.array([0.0, 1.0]))
    chain0 = MonotoneChain([[[0.0]], [[1.0]]])
    base = local_functional(x0, chain0, tc).value
    assert val == pytest.approx(base, abs=1e-10)


def test_lipschitz_witness():
    x, chain, tc = scalar_setup([0.5], [0.5])
    p = DiscretePath(x, chain)
    lhs, rhs = lipschitz_witness(p, p, tc)
    assert lhs == 0.0 and rhs == 0.0
    x2, chain2, _ = scalar_setup([0.5], [0.7])
    p2 = DiscretePath(x2, chain2)
    lhs, rhs = lipschitz_witness(p, p2, tc, EvalConfig(grid_points=801))
    assert lhs <= rhs
    # refining a path's representation with a zero-variance top level keeps
    # the value, so the witness lhs vanishes
    x3 = UnitPartition.from_interior([0.5, 0.8])
    chain3 = MonotoneChain([[[0.0]], [[0.5]], [[1.0]], [[1.0]]], allow_equal=True)
    p3 = DiscretePath(x3, chain3)
    lhs3, _ = lipschitz_witness(p, p3, tc, EvalConfig(grid_points=3201))
    assert lhs3 <= 1e-9


def per_node_segment(f_next, weight, cov, axes, cfg):
    """propagate_segment's values with one f_next evaluation per node."""
    shifts, wgt = _gh_nodes(cov, cfg.nodes)
    shape = tuple(a.size for a in axes)
    vals = np.empty((len(shifts),) + shape)
    if isinstance(f_next, GridFunction):
        for i, s in enumerate(shifts):
            vals[i] = f_next._spline(*[a + si for a, si in zip(axes, s)])
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        base = np.stack([m.ravel() for m in mesh], axis=1)
        for i, s in enumerate(shifts):
            vals[i] = np.asarray(f_next(base + s[None, :])).reshape(shape)
    return _log_avg_exp(weight, vals, wgt)


def _segment_cases():
    cov1 = np.array([[0.4]])
    cov2 = np.array([[0.5, 0.15], [0.15, 0.3]])
    line = [np.linspace(-4.0, 4.0, 801)]
    plane = [np.linspace(-3.0, 3.0, 61), np.linspace(-2.5, 2.5, 57)]
    tilt2 = np.array([[0.1, -0.05], [-0.05, 0.2]])
    gauss2 = AprioriMeasure.gaussian(np.array([[3.0, 0.4], [0.4, 4.0]]), np.array([0.3, -0.2]))
    cube = TerminalCondition(0.7, tilt2, AprioriMeasure.hypercube(2))
    wide = [np.linspace(-6.0, 6.0, 4001)]
    g1 = TerminalCondition(0.8, np.zeros((1, 1)), RADEMACHER)
    gauss1 = AprioriMeasure.gaussian(np.array([[2.5]]), np.array([0.4]))
    return {
        "rademacher": (g1, 0.5, cov1, line),
        "hypercube_d2": (cube, 0.4, cov2, plane),
        "gaussian_d1": (TerminalCondition(0.8, np.array([[0.15]]), gauss1), 0.5, cov1, line),
        "gaussian_d2": (TerminalCondition(0.6, tilt2, gauss2), 0.7, cov2, plane),
        "linear_probe": (LinearProbe(0.7), 0.3, cov1, line),
        "grid_d1": (GridFunction(wide, g1(wide[0][:, None])), 0.6, cov1, line),
        "grid_d2": (GridFunction([2 * a for a in plane], cube(np.stack(np.meshgrid(
            *[2 * a for a in plane], indexing="ij"), axis=-1))), 0.5, cov2, plane),
        "multi_block_terminal": (g1, 0.5, cov1, wide),
        "multi_block_grid": (GridFunction([1.5 * wide[0]], g1(1.5 * wide[0][:, None])), 0.5, cov1, wide),
    }


@pytest.mark.parametrize("case", sorted(_segment_cases()))
def test_batched_segment_is_bit_identical_to_per_node(case):
    f_next, weight, cov, axes = _segment_cases()[case]
    cfg = EvalConfig(nodes=32 if len(axes) == 1 else 8)
    batched = propagate_segment(f_next, weight, cov, axes, cfg).values
    assert np.array_equal(batched, per_node_segment(f_next, weight, cov, axes, cfg))
    if case.startswith("multi_block"):
        assert cfg.nodes * axes[0].size > BLOCK_POINTS


@pytest.mark.parametrize("measure", ["gaussian", "hypercube"])
def test_segment_reduces_its_value_block_in_place(measure):
    # One d=2 level, 16 nodes per axis on a 161^2 grid: besides the value
    # block of all 256 nodes, only per-block temporaries are allocated.
    tilt = np.array([[0.1, -0.05], [-0.05, 0.2]])
    mu = {
        "gaussian": AprioriMeasure.gaussian(np.array([[3.0, 0.4], [0.4, 4.0]]), np.array([0.3, -0.2])),
        "hypercube": AprioriMeasure.hypercube(2),
    }[measure]
    tc = TerminalCondition(0.6, tilt, mu)
    cov = np.array([[0.5, 0.15], [0.15, 0.3]])
    axes = [np.linspace(-3.0, 3.0, 161), np.linspace(-2.5, 2.5, 161)]
    value_block = 16**2 * 161**2 * 8
    tracemalloc.start()
    try:
        propagate_segment(tc, 0.7, cov, axes, EvalConfig(nodes=16, grid_points_2d=161))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * value_block


def test_gauss_hermite_table_cached_read_only():
    pts, wgt = _gauss_hermite(16, 2)
    assert _gauss_hermite(16, 2)[0] is pts
    assert pts.shape == (256, 2) and wgt.shape == (256,)
    assert not pts.flags.writeable and not wgt.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0
    shifts, weights = _gh_nodes(np.array([[0.5]]), 16)
    assert not weights.flags.writeable
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Gradient of the local functional against central differences

D1 = EvalConfig(grid_points=801)
D2 = EvalConfig(nodes=12, grid_points_2d=81)


def central_gradient(value, x, chain, tilt, h=1e-5):
    """Central differences of value(x values, chain matrices, tilt) in
    x_1..x_n, Q_1..Q_n and the tilt, as a FunctionalGradient: each symmetric
    matrix entry is moved together with its mirror, and an off-diagonal
    difference is halved to match the Frobenius pairing."""
    xv, mats = x.values, chain.matrices
    n, d = chain.levels, chain.dim
    grad_x = []
    for k in range(1, n + 1):
        step = min(h, 0.25 * min(xv[k] - xv[k - 1], xv[k + 1] - xv[k]))
        up, dn = xv.copy(), xv.copy()
        up[k] += step
        dn[k] -= step
        grad_x.append((value(up, mats, tilt) - value(dn, mats, tilt)) / (2 * step))

    def matrix_gradient(shift):
        out = np.zeros((d, d))
        for i in range(d):
            for j in range(i, d):
                e = np.zeros((d, d))
                e[i, j] = e[j, i] = h
                diff = (shift(e) - shift(-e)) / (2 * h)
                out[i, j] = out[j, i] = diff if i == j else 0.5 * diff
        return out

    def moved(k, e):
        out = mats.copy()
        out[k] += e
        return out

    grad_chain = [matrix_gradient(lambda e, k=k: value(xv, moved(k, e), tilt)) for k in range(1, n + 1)]
    grad_tilt = matrix_gradient(lambda e: value(xv, mats, tilt + e))
    return FunctionalGradient(np.array(grad_x), np.array(grad_chain), grad_tilt)


def recursion_functional(mu, beta, cfg):
    def value(xv, mats, tilt):
        tc = TerminalCondition(beta, tilt, mu)
        return local_functional(UnitPartition(xv), MonotoneChain(mats, allow_equal=True), tc, cfg).value

    return value


def random_point(rng, d, n, u, tilt_scale=0.1):
    x = UnitPartition.from_interior(np.sort(rng.uniform(0.05, 0.95, n)))
    chain, _ = chain_from_blocks(u, [w @ w.T + 0.05 * np.eye(d) for w in rng.normal(size=(n + 1, d, d))])
    tilt = rng.normal(scale=tilt_scale, size=(d, d))
    return x, chain, 0.5 * (tilt + tilt.T)


def max_gradient_error(grad, ref):
    return max(np.abs(grad.x - ref.x).max(), np.abs(grad.chain - ref.chain).max(),
               np.abs(grad.tilt - ref.tilt).max())


def gradient_case(mu, beta, x, chain, tilt, cfg):
    tc = TerminalCondition(beta, tilt, mu)
    result, grad = local_functional_gradient(x, chain, tc, cfg)
    assert np.array_equal(result.value, local_functional(x, chain, tc, cfg).value)
    ref = central_gradient(recursion_functional(mu, beta, cfg), x, chain, tc.tilt)
    return max_gradient_error(grad, ref)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gradient_matches_central_differences_rademacher(n):
    rng = np.random.default_rng(100 + n)
    x, chain, tilt = random_point(rng, 1, n, np.array([[1.0]]))
    if n == 3:
        # The first weight sits below SMALL_WEIGHT, in the variance branch.
        x = UnitPartition(np.concatenate(([0.0, 5e-7], x.values[2:])))
    for beta in (0.5, 1.5):
        assert gradient_case(RADEMACHER, beta, x, chain, tilt, D1) <= 2e-4


def test_gradient_matches_central_differences_gaussian_d1():
    rng = np.random.default_rng(7)
    mu = AprioriMeasure.gaussian(np.array([[3.0]]), np.array([0.2]))
    x, chain, tilt = random_point(rng, 1, 2, np.array([[0.6]]))
    assert gradient_case(mu, 1.0, x, chain, tilt, D1) <= 2e-4


# At d = 2 (12 nodes per axis, 81 x 81 grids) the measured differences are
# up to 7e-4 on these points: the spline second derivatives and the bilinear
# deposit are coarser than at d = 1.
@pytest.mark.parametrize(
    "mu, u",
    [
        (AprioriMeasure.hypercube(2), np.array([[1.0, 0.2], [0.2, 1.0]])),
        (AprioriMeasure.gaussian(np.array([[3.0, 0.4], [0.4, 4.0]]), np.array([0.1, -0.2])),
         np.array([[0.5, 0.1], [0.1, 0.6]])),
    ],
    ids=["hypercube", "gaussian"],
)
def test_gradient_matches_central_differences_d2(mu, u):
    rng = np.random.default_rng(11)
    x, chain, tilt = random_point(rng, 2, 1, u)
    assert gradient_case(mu, 0.8, x, chain, tilt, D2) <= 2e-3


@pytest.mark.parametrize("d, n", [(1, 1), (1, 3), (2, 2)])
def test_gradient_matches_closed_form_differences(d, n):
    # Independent route: central differences of the Gaussian closed form
    # for X_0, plus the explicit terms of the local functional.
    from parisi_lab.acceptance import _random_gaussian_instance
    from parisi_lab.gaussian import closed_form_recursion

    rng = np.random.default_rng(20 + 10 * d + n)
    x, chain, tilt, c, h, beta = _random_gaussian_instance(rng, d, n)

    def closed(xv, mats, tl):
        part, ch = UnitPartition(xv), MonotoneChain(mats, allow_equal=True)
        tc = TerminalCondition(beta, tl, AprioriMeasure.gaussian(c, h))
        rec = RecursionResult(closed_form_recursion(part, ch, tl, c, h, beta), 0.0, "closed")
        return functional_from_recursion(part, ch, tc, rec).value

    tc = TerminalCondition(beta, tilt, AprioriMeasure.gaussian(c, h))
    _, grad = local_functional_gradient(x, chain, tc, D1 if d == 1 else D2)
    error = max_gradient_error(grad, central_gradient(closed, x, chain, tc.tilt))
    assert error <= (2e-4 if d == 1 else 2e-3)


def test_gradient_needs_quadrature():
    x, chain, tc = scalar_setup([0.5], [0.5])
    with pytest.raises(ValueError, match="quadrature"):
        local_functional_gradient(x, chain, tc, EvalConfig(engine="monte_carlo"))


def test_terminal_derivatives_match_differences():
    # g from derivatives() agrees with __call__, and grad g and
    # <s s^T> = dg/dtilt agree with central differences of __call__.
    tilt = np.array([[0.1, -0.05], [-0.05, 0.2]])
    pts = np.array([[0.3, -0.4], [1.2, 0.5], [-0.7, 0.0]])
    gauss = AprioriMeasure.gaussian(np.array([[3.0, 0.4], [0.4, 4.0]]), np.array([0.3, -0.2]))
    uneven = AprioriMeasure.discrete([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]], [1.0, 0.5, 2.0])
    h = 1e-5
    for mu in (AprioriMeasure.hypercube(2), gauss, uneven):
        tc = TerminalCondition(0.7, tilt, mu)
        value, grad, moment = tc.derivatives(pts)
        assert np.allclose(value, tc(pts), rtol=0.0, atol=1e-13)
        for i, e in enumerate(np.eye(2)):
            assert np.allclose(grad[:, i], (tc(pts + h * e) - tc(pts - h * e)) / (2 * h), atol=1e-8)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2))
                e[i, j] = e[j, i] = h
                diff = TerminalCondition(0.7, tilt + e, mu)(pts) - TerminalCondition(0.7, tilt - e, mu)(pts)
                assert np.allclose(moment[:, i, j], diff / (2 * h) / (1 if i == j else 2), atol=1e-8)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_d1_quadrature_matches_closed_form_property(seed, n):
    # Check 2's instances, engine settings and tolerance, at drawn seeds.
    x, chain, tilt, c, h, beta = _random_gaussian_instance(np.random.default_rng(seed), 1, n)
    tc = TerminalCondition(beta, tilt, AprioriMeasure.gaussian(c, h))
    rec = recursion_value(x, chain, tc, EvalConfig(nodes=24, grid_points=1601, grid_points_2d=161))
    assert rec.value == pytest.approx(closed_form_recursion(x, chain, tilt, c, h, beta), abs=1e-6)
