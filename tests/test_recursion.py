import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from scipy.interpolate import CubicSpline, RectBivariateSpline

from parisi_lab import recursion
from parisi_lab.acceptance import _random_gaussian_instance
from parisi_lab.gaussian import closed_form_recursion
from parisi_lab.matrices import sqrt_factor
from parisi_lab.measures import AprioriMeasure, EvalConfig, TerminalCondition
from parisi_lab.paths import DiscretePath, MonotoneChain, UnitPartition, chain_from_blocks, inverse_profile_distance
from parisi_lab.sk import BudgetError
from parisi_lab.recursion import (
    BLOCK_POINTS,
    MC_POINT_BUDGET,
    SMALL_WEIGHT,
    FunctionalGradient,
    GridFunction,
    Level,
    RecursionResult,
    _backward_pass,
    _gauss_hermite,
    _gh_nodes,
    _log_avg_exp,
    _mc_value,
    functional_from_recursion,
    levels_from_order_params,
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
    # Nesting is tested through a terminal that is no TerminalCondition,
    # which the quadrature engine does not fold.
    tc = TerminalCondition(0.7, np.zeros((1, 1)), RADEMACHER)
    cfg = EvalConfig()
    levels = [Level(1.0, np.array([[v]])) for v in (0.2, 0.3, 0.5)]
    unfolded = Raised(tc, lambda y: 0.0 * y)
    nested = recursion_from_levels(unfolded, levels, cfg).value
    single = recursion_from_levels(unfolded, [Level(1.0, np.array([[1.0]]))], cfg).value
    assert nested == pytest.approx(single, abs=1e-8)
    # A TerminalCondition folds every level: g_{beta^2 U}(0) = log 2 + beta^2.
    exact = np.log(2.0) + 0.7**2
    assert recursion_from_levels(tc, levels, cfg).value == pytest.approx(exact, abs=1e-14)
    assert recursion_from_levels(tc, [Level(1.0, np.array([[1.0]]))], cfg).value == pytest.approx(exact, abs=1e-14)
    assert nested == pytest.approx(exact, abs=1e-8)


@pytest.mark.parametrize("beta", [0.5, 1.0])
@pytest.mark.parametrize("xs, qs", [([], [0.5]), ([0.4], [0.3, 0.6])])
def test_folded_top_level_matches_the_unfolded_quadrature(beta, xs, qs):
    # The quadrature engine folds the weight-1 top level into the terminal's
    # tilt; through a terminal it does not fold, it integrates that level on
    # a grid.  The two differ by the quadrature error of the unfolded level
    # (measured up to 2.2e-10 on these instances at the default grid).
    x, chain, tc = scalar_setup(xs + [1.0], qs, beta=beta)
    levels = levels_from_order_params(x, chain)
    folded = recursion_from_levels(tc, levels, EvalConfig()).value
    unfolded = recursion_from_levels(Raised(tc, lambda y: 0.0 * y), levels, EvalConfig()).value
    assert abs(folded - unfolded) <= 3e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_folded_d2_gaussian_matches_closed_form(seed, n):
    # Check 2's instances with the top weight pinned at 1, against the
    # closed form at check 2's tolerance, on a coarse engine.
    x, chain, tilt, c, h, beta = _random_gaussian_instance(np.random.default_rng(seed), 2, n)
    x = UnitPartition(np.append(x.values[:-2], [1.0, 1.0]))
    tc = TerminalCondition(beta, tilt, AprioriMeasure.gaussian(c, h))
    rec = recursion_value(x, chain, tc, EvalConfig(nodes=12, grid_points_2d=61))
    assert rec.value == pytest.approx(closed_form_recursion(x, chain, tilt, c, h, beta), abs=1e-6)


def test_folded_quadrature_matches_unfolded_monte_carlo_d2():
    # Monte Carlo never folds, so it checks the fold's identity independently.
    u = np.array([[1.0, 0.2], [0.2, 1.0]])
    x = UnitPartition([0.0, 0.5, 1.0, 1.0])
    chain = MonotoneChain([np.zeros((2, 2)), 0.3 * u, 0.6 * u, u])
    tc = TerminalCondition(0.7, np.array([[0.1, -0.05], [-0.05, 0.2]]), AprioriMeasure.hypercube(2))
    quad = recursion_value(x, chain, tc, EvalConfig(nodes=12, grid_points_2d=81)).value
    mc = recursion_value(x, chain, tc, EvalConfig(engine="monte_carlo", samples=32, replicas=16, seed=3))
    assert abs(mc.value - quad) <= 3.0 * mc.std_error
    # Pinned to the engine that evaluated stacked points once per sample
    # size: reading the terminal from per-level draw tables only rounds.
    assert (mc.value, mc.std_error) == pytest.approx((2.574313819410001, 0.06463826455908286), abs=1e-12)


def test_quadrature_vs_monte_carlo():
    x, chain, tc = scalar_setup([0.5], [0.4], beta=0.5)
    quad = recursion_value(x, chain, tc, EvalConfig()).value
    mc = recursion_value(
        x, chain, tc, EvalConfig(engine="monte_carlo", samples=256, replicas=24, seed=5)
    )
    assert abs(mc.value - quad) <= 3.0 * mc.std_error
    assert (mc.value, mc.std_error) == pytest.approx((0.9133480015140168, 0.005705343444664528), abs=1e-12)


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
    assert (res.value, res.std_error) == pytest.approx((2.327269100080053, 0.003561202403766488), abs=1e-12)


def test_monte_carlo_d3_hypercube_is_three_rademacher_recursions():
    # With zero tilt and increments dQ = q I the hypercube terminal is a sum
    # of three Rademacher terminals of independent coordinates, so every
    # level, and X_0, is three times its d = 1 value.
    qs, beta = [0.25, 0.6], 0.5
    x, chain1, tc1 = scalar_setup([0.3, 0.7], qs, beta=beta)
    quad = recursion_value(x, chain1, tc1, EvalConfig()).value
    chain3 = MonotoneChain([q * np.eye(3) for q in [0.0] + qs + [1.0]])
    tc3 = TerminalCondition(beta, np.zeros((3, 3)), AprioriMeasure.hypercube(3))
    mc = recursion_value(x, chain3, tc3, EvalConfig(engine="monte_carlo", samples=48, replicas=32, seed=4))
    assert abs(mc.value - 3.0 * quad) <= 3.0 * mc.std_error


def test_monte_carlo_gaussian_d2_matches_closed_form():
    # Gaussian mu goes through the broadcast sums of on_level_sums; a
    # non-diagonal precision, a shift and a tilt exercise every term.
    u = np.array([[1.0, 0.3], [0.3, 1.0]])
    c, h = np.array([[3.0, 0.5], [0.5, 2.5]]), np.array([0.2, -0.3])
    tilt, beta = np.array([[0.1, 0.02], [0.02, 0.05]]), 0.6
    x = UnitPartition.from_interior([0.5])
    chain = MonotoneChain([np.zeros((2, 2)), 0.4 * u, u])
    tc = TerminalCondition(beta, tilt, AprioriMeasure.gaussian(c, h))
    mc = recursion_value(x, chain, tc, EvalConfig(engine="monte_carlo", samples=128, replicas=16, seed=6))
    assert abs(mc.value - closed_form_recursion(x, chain, tilt, c, h, beta)) <= 3.0 * mc.std_error


def _d1_terminal(draw) -> TerminalCondition:
    """A d = 1 terminal: Rademacher, or up to 8 random support points."""
    if draw(st.booleans()):
        mu = RADEMACHER
    else:
        k = draw(st.integers(1, 8))
        points = draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k))
        weights = draw(st.lists(st.floats(0.1, 2.0), min_size=k, max_size=k))
        mu = AprioriMeasure.discrete(np.array(points)[:, None], weights)
    return TerminalCondition(draw(st.floats(0.0, 1.5)), np.zeros((1, 1)), mu)


@st.composite
def _weight_pairs(draw):
    """A d = 1 terminal, the variance increments of 1-3 levels and per level
    a weight pair lo <= hi."""
    tc = _d1_terminal(draw)
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


class Raised:
    """The terminal ``base`` plus the function ``bump`` of the coordinate."""

    dim = 1

    def __init__(self, base, bump):
        self.base, self.bump = base, bump

    def __call__(self, pts):
        return self.base(pts) + self.bump(np.asarray(pts)[:, 0])


def test_monte_carlo_stacks_the_points_of_other_terminals():
    # A terminal without on_level_sums is evaluated at the stacked points of
    # the full sample only; the half sample reads the leading block of those
    # values.  Pinned to the bits of the engine that evaluated each sample
    # size's points separately.
    x, chain, tc = scalar_setup([0.3, 0.6], [0.2, 0.5], beta=0.8)
    levels = levels_from_order_params(x, chain)
    cfg = EvalConfig(engine="monte_carlo", samples=24, replicas=4, seed=7)
    res = recursion_from_levels(Raised(tc, lambda y: 0.3 * np.tanh(y)), levels, cfg)
    assert res.value == float.fromhex("0x1.1760a19f01482p+0")
    assert res.std_error == float.fromhex("0x1.010a937aa5299p-4")


@st.composite
def _terminal_bumps(draw):
    """A d = 1 terminal, 1-3 levels (weight, variance increment) and a
    nonnegative, nonconstant bump b (1 + tanh(a y)) / 2."""
    tc = _d1_terminal(draw)
    n = draw(st.integers(1, 3))
    levels = [Level(draw(st.floats(0.0, 1.0)), np.array([[draw(st.floats(0.05, 0.5))]])) for _ in range(n)]
    a = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 3.0))
    b = draw(st.floats(0.01, 1.0))
    return tc, levels, lambda y: b * (1.0 + np.tanh(a * y)) / 2.0


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(_terminal_bumps())
def test_monotone_in_terminal(case):
    # Every level is monotone in the next one's values, so raising the
    # terminal anywhere cannot lower X_0.
    tc, levels, bump = case
    cfg = EvalConfig(grid_points=801)
    low = recursion_from_levels(Raised(tc, lambda y: 0.0 * y), levels, cfg).value
    high = recursion_from_levels(Raised(tc, bump), levels, cfg).value
    assert low <= high + 1e-9


def test_constant_terminal_shift_shifts_the_value():
    cfg = EvalConfig(grid_points=801)
    levels = [Level(0.0, np.array([[0.4]])), Level(0.5, np.array([[0.6]]))]
    g1 = LinearProbe(0.5)
    v1 = recursion_from_levels(g1, levels, cfg).value
    v2 = recursion_from_levels(Raised(g1, lambda y: 0.2), levels, cfg).value
    assert v2 == pytest.approx(v1 + 0.2, abs=1e-9)


def test_propagate_segment_identity_and_collapse():
    axes = [np.linspace(-6, 6, 801)]
    cfg = EvalConfig()
    tc = TerminalCondition(0.5, np.zeros((1, 1)), RADEMACHER)
    ident = propagate_segment(tc, 0.5, sqrt_factor(np.zeros((1, 1))), axes, cfg.nodes)
    assert np.allclose(ident.values, tc(axes[0].reshape(-1, 1)), atol=1e-12)
    # weight one is the plain log-average linearization
    full = propagate_segment(tc, 1.0, sqrt_factor(np.array([[0.3]])), axes, cfg.nodes)
    zs = np.sqrt(2 * 0.3) * hermgauss(cfg.nodes)[0]
    ws = hermgauss(cfg.nodes)[1] / np.sqrt(np.pi)
    direct = np.log(sum(w * np.exp(tc(np.array([[0.0 + z]]))[0]) for w, z in zip(ws, zs)))
    assert full([0.0])[0] == pytest.approx(float(direct), abs=1e-9)


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
    # |X_0(p) - X_0(q)| <= (C/2) d(p, q), with C the sup |grad g|^2 bound and
    # d the inverse-profile distance, as acceptance check 10 tests it.
    x, chain, tc = scalar_setup([0.5], [0.5])
    p = DiscretePath(x, chain)

    def gap(q, cfg):
        return abs(recursion_value(x, chain, tc, cfg).value - recursion_value(q.partition, q.chain, tc, cfg).value)

    assert gap(p, EvalConfig()) == 0.0 and inverse_profile_distance(p, p) == 0.0
    x2, chain2, _ = scalar_setup([0.5], [0.7])
    p2 = DiscretePath(x2, chain2)
    assert gap(p2, EvalConfig(grid_points=801)) <= 0.5 * tc.gradient_sup_bound() * inverse_profile_distance(p, p2)
    # refining a path's representation with a zero-variance top level keeps
    # the value, so the difference vanishes
    x3 = UnitPartition.from_interior([0.5, 0.8])
    chain3 = MonotoneChain([[[0.0]], [[0.5]], [[1.0]], [[1.0]]], allow_equal=True)
    assert gap(DiscretePath(x3, chain3), EvalConfig(grid_points=3201)) <= 1e-9


def test_linear_terminal_is_affine_in_the_weights():
    # For g(y) = a y each level adds w_k a^2 dQ_k / 2, so X_0 is affine in the
    # level weights and lies on every chord between two weight profiles.
    steps = np.linspace(0.0, 1.0, 11)
    prof1, prof2, variances = steps[:-1], steps[:-1] ** 2, np.diff(steps)
    cfg = EvalConfig(grid_points=801)

    def value(weights):
        levels = [Level(float(w), np.array([[v]])) for w, v in zip(weights, variances)]
        return recursion_from_levels(LinearProbe(0.7), levels, cfg).value

    gammas = np.linspace(0.0, 1.0, 5)
    vals = np.array([value(g * prof1 + (1.0 - g) * prof2) for g in gammas])
    chord = gammas * vals[-1] + (1.0 - gammas) * vals[0]
    assert np.max(np.abs(chord - vals)) <= 1e-8


def per_node_segment(f_next, weight, cov, axes, cfg):
    """propagate_segment's values with one f_next evaluation per node,
    reduced by the streaming reducer in the blocks propagate_segment uses."""
    shifts, wgt = _gh_nodes(sqrt_factor(cov), cfg.nodes)
    shape = tuple(a.size for a in axes)
    vals = np.empty((len(shifts),) + shape)
    if isinstance(f_next, GridFunction):
        for i, s in enumerate(shifts):
            vals[i] = f_next.on_shifted_grids(axes, s[None])[0]
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        base = np.stack([m.ravel() for m in mesh], axis=1)
        for i, s in enumerate(shifts):
            vals[i] = np.asarray(f_next(base + s[None, :])).reshape(shape)
    step = max(1, BLOCK_POINTS // vals[0].size)
    blocks = [(vals[i : i + step], wgt[i : i + step]) for i in range(0, len(vals), step)]
    return _log_avg_exp(weight, blocks)


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
    batched = propagate_segment(f_next, weight, sqrt_factor(cov), axes, cfg.nodes).values
    assert np.array_equal(batched, per_node_segment(f_next, weight, cov, axes, cfg))
    if case.startswith("multi_block"):
        assert cfg.nodes * axes[0].size > BLOCK_POINTS


def spline_case(d, points):
    """A smooth function on uniform grids of ``points`` per axis, with
    query axes that stay a little inside them."""
    grids = [np.linspace(-4.0, 4.0, points), np.linspace(-3.0, 3.5, points)][:d]
    mesh = np.meshgrid(*grids, indexing="ij")
    values = np.log(2.0 * np.cosh(1.3 * mesh[0] + 0.4 * mesh[-1])) + 0.1 * np.sin(3.0 * mesh[-1])
    axes = [np.linspace(-3.8, 3.8, 157), np.linspace(-2.8, 3.3, 131)][:d]
    return GridFunction(grids, values), axes


@pytest.mark.parametrize("d", [1, 2])
def test_grid_function_matches_scipy_splines(d):
    # Inside the grid the engine is the not-a-knot interpolant scipy builds:
    # CubicSpline at d = 1 and RectBivariateSpline (kx = ky = 3, s = 0) at
    # d = 2, values and gradients.  Past the edge every axis reads the cubic
    # of its end interval, as a CubicSpline along each axis in turn does
    # (RectBivariateSpline clamps there instead).  Measured: values 3.6e-15
    # and 8.0e-15, gradients 6.2e-13 and 2.1e-13, and past the edge 1.1e-11
    # (20 cells out at d = 1) and 5.6e-13.
    f, axes = spline_case(d, 1601 if d == 1 else 161)
    grids, values = f.axes, f.values
    inside = np.random.default_rng(60 + d).uniform(-0.15, 0.15, size=(6, d))
    value, grad = f.derivatives(axes, inside)
    if d == 1:
        spline = CubicSpline(grids[0], values)
        refs = [spline(axes[0][None, :] + inside, nu) for nu in (0, 1)]
    else:
        spline = RectBivariateSpline(*grids, values, kx=3, ky=3)
        refs = [np.stack([spline(axes[0] + s[0], axes[1] + s[1], dx=dx, dy=dy) for s in inside])
                for dx, dy in ((0, 0), (1, 0), (0, 1))]
    assert np.abs(value - refs[0]).max() <= 1e-11
    assert np.abs(grad - np.stack(refs[1:], axis=-1)).max() <= 5e-12
    past = np.array([[0.3] * d, [-0.3] * d])
    expected = []
    for s in past:
        along = values
        for k in range(d):
            along = CubicSpline(grids[k], along, axis=k)(axes[k] + s[k])
        expected.append(along)
    assert np.abs(f.on_shifted_grids(axes, past) - np.array(expected)).max() <= 5e-11


@pytest.mark.parametrize("d", [1, 2])
def test_adjoint_is_the_transpose_of_the_read(d):
    # <mass, E v> = <E^T mass, v> for E = on_shifted_grids and E^T = adjoint,
    # with shifts that put points past either edge of the grid.  Measured
    # 3.3e-16 (d = 1) and 5.6e-16 (d = 2) relative.
    rng = np.random.default_rng(70 + d)
    f, axes = spline_case(d, 161)
    f = GridFunction(f.axes, rng.normal(size=f.values.shape))
    shifts = np.concatenate([rng.normal(scale=0.1, size=(3, d)), np.full((1, d), 0.3), np.full((1, d), -0.3)])
    mass = rng.normal(size=(len(shifts),) + tuple(a.size for a in axes))
    back = f.adjoint(axes, shifts, mass)
    assert back.shape == f.values.shape
    assert np.vdot(back, f.values) == pytest.approx(np.vdot(mass, f.on_shifted_grids(axes, shifts)), rel=1e-13)


def one_shot_log_avg_exp(weight, vals, wgt):
    """(1/w) log sum_i wgt_i exp(w vals_i) over all nodes at once, or the
    small-weight expansion mean + (w/2) variance: the formulas _log_avg_exp
    streams, with the operations it applies to a single block."""
    if weight < SMALL_WEIGHT:
        mean = np.tensordot(wgt, vals, axes=(0, 0))
        var = np.maximum(np.tensordot(wgt, vals * vals, axes=(0, 0)) - mean * mean, 0.0)
        return mean + 0.5 * weight * var
    top = vals.max(axis=0)
    return top + np.log(np.tensordot(wgt, np.exp(weight * (vals - top)), axes=(0, 0))) / weight


@pytest.mark.parametrize("weight", [0.05, 0.7, 1.0, 0.5 * SMALL_WEIGHT, 0.0])
def test_streaming_reducer_matches_one_shot(weight):
    # Blocks of uneven size whose maxima rise block after block at some grid
    # points and fall at others, so the running sum is rescaled pointwise.
    # A single block is reduced exactly as in one shot, bit for bit.
    rng = np.random.default_rng(3)
    vals = rng.normal(2.0, 1.0, size=(40, 7, 5))
    vals += np.linspace(-3.0, 3.0, 40)[:, None, None] * np.sign(rng.normal(size=(7, 5)))
    wgt = rng.uniform(0.1, 1.0, size=40)
    wgt /= wgt.sum()
    expected = one_shot_log_avg_exp(weight, vals, wgt)
    assert np.array_equal(_log_avg_exp(weight, [(vals.copy(), wgt)]), expected)
    cuts = [0, 1, 3, 10, 11, 25, 40]
    blocks = [(vals[a:b].copy(), wgt[a:b]) for a, b in zip(cuts, cuts[1:])]
    assert np.allclose(_log_avg_exp(weight, blocks), expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("measure", ["gaussian", "hypercube"])
def test_segment_streams_its_value_blocks(measure):
    # One d=2 level, 16 nodes per axis on a 161^2 grid: the 256 nodes are
    # reduced block by block, so only per-block temporaries are allocated,
    # never the 53 MB value block of all nodes.
    tilt = np.array([[0.1, -0.05], [-0.05, 0.2]])
    mu = {
        "gaussian": AprioriMeasure.gaussian(np.array([[3.0, 0.4], [0.4, 4.0]]), np.array([0.3, -0.2])),
        "hypercube": AprioriMeasure.hypercube(2),
    }[measure]
    tc = TerminalCondition(0.6, tilt, mu)
    cov = np.array([[0.5, 0.15], [0.15, 0.3]])
    axes = [np.linspace(-3.0, 3.0, 161), np.linspace(-2.5, 2.5, 161)]
    tracemalloc.start()
    try:
        propagate_segment(tc, 0.7, sqrt_factor(cov), axes, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * BLOCK_POINTS * 8


def test_d2_recursion_memory_stays_at_a_few_blocks():
    # A default-config d=2 evaluation: 32^2 nodes on a 161^2 grid would be a
    # 212 MB value block if the nodes were not streamed.
    x = UnitPartition.from_interior([0.4])
    u = np.array([[1.0, 0.3], [0.3, 1.0]])
    chain = MonotoneChain([np.zeros((2, 2)), u / 2, u])
    tc = TerminalCondition(0.9, np.array([[0.1, -0.05], [-0.05, 0.2]]), AprioriMeasure.hypercube(2))
    tracemalloc.start()
    try:
        value = recursion_value(x, chain, tc).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "measure, beta, weight, bound",
    # The Gaussian terminal is quadratic, and so is every level function,
    # which the cubic splines reproduce: only rounding is left (measured
    # 2.7e-15).  The hypercube pays for the spline of the intermediate level
    # function: measured 7.2e-6 at 12 nodes on 61^2 grids.
    [("gaussian", 0.6, 0.7, 1e-12), ("hypercube", 0.7, 0.4, 2e-5)],
)
def test_split_level_matches_one_full_rank_segment(measure, beta, weight, bound):
    # At d = 2 the backward pass runs a full-rank level as two rank-1
    # sub-steps.  X_1 on its grid must match one propagate_segment over the
    # level's whole covariance, which C does not commute with.
    tilt = np.array([[0.1, -0.05], [-0.05, 0.2]])
    mu = {
        "gaussian": AprioriMeasure.gaussian(np.array([[3.0, 0.4], [0.4, 4.0]]), np.array([0.3, -0.2])),
        "hypercube": AprioriMeasure.hypercube(2),
    }[measure]
    tc = TerminalCondition(beta, tilt, mu)
    cov = np.array([[0.5, 0.15], [0.15, 0.3]])
    cfg = EvalConfig(nodes=12, grid_points_2d=61)
    plan, _ = _backward_pass(tc, [Level(0.0, 0.5 * cov), Level(weight, cov)], cfg)
    x1 = plan[0][2]  # the function the outermost step reads
    full = propagate_segment(tc, weight, sqrt_factor(cov), x1.axes, cfg.nodes)
    assert np.abs(x1.values - full.values).max() <= bound


@pytest.mark.parametrize("d", [1, 2])
def test_backward_pass_segment_calls_and_grids(d, monkeypatch):
    # Two propagate_segment calls per full-rank d = 2 level, one per rank-1
    # d = 2 level and one per d = 1 level; the outermost level makes none.
    # Every point a call evaluates, and so every intermediate grid, lies
    # inside the grid of the function it reads.
    cfg = EvalConfig(nodes=8, grid_points=101, grid_points_2d=33)
    if d == 1:
        covs = [np.array([[v]]) for v in (0.2, 0.3, 0.5)]
        expected = 2
    else:
        covs = [
            np.array([[0.3, 0.1], [0.1, 0.2]]),
            np.array([[0.5, 0.15], [0.15, 0.3]]),
            np.outer([0.3, -0.5], [0.3, -0.5]),
            np.array([[0.2, -0.1], [-0.1, 0.6]]),
        ]
        expected = 2 + 1 + 2
    levels = [Level(w, c) for w, c in zip((0.0, 0.3, 0.6, 0.8), covs)]
    tc = TerminalCondition(0.7, np.zeros((d, d)), AprioriMeasure.hypercube(d))
    calls = []
    original = recursion.propagate_segment

    def counted(f_next, weight, fac, axes, nodes):
        calls.append((f_next, fac, axes))
        return original(f_next, weight, fac, axes, nodes)

    monkeypatch.setattr(recursion, "propagate_segment", counted)
    recursion_from_levels(tc, levels, cfg)
    assert len(calls) == expected
    for f_next, fac, axes in calls:
        if isinstance(f_next, GridFunction):
            reach = np.abs(_gh_nodes(fac, cfg.nodes)[0]).max(axis=0)
            for a, inside, r in zip(axes, f_next.axes, reach):
                assert a[-1] + r <= inside[-1] * (1.0 + 1e-12)
                assert a[0] - r >= inside[0] * (1.0 + 1e-12)


@pytest.mark.parametrize("outer", [0.3, 0.0])
def test_d1_two_level_eval_reads_x1_at_the_outer_nodes(outer, monkeypatch):
    # With the top point pinned, a d = 1 eval integrates one level onto the
    # outermost level's nodes, not onto a grid, and the value and the
    # forward pass read X_1 there: no spline is built.  A rank-0 outermost
    # level (Q_1 = 0) has one node, the origin, and X_0 = X_1(0).
    x = UnitPartition(np.array([0.0, 0.4, 1.0, 1.0]))
    chain = MonotoneChain([np.zeros((1, 1)), [[outer]], [[0.7]], [[1.0]]], allow_equal=True)
    tc = TerminalCondition(1.2, np.array([[0.1]]), RADEMACHER)
    cfg = EvalConfig(nodes=16, grid_points=801)
    calls, splines = [], []
    original_segment, original_solve = recursion.propagate_segment, recursion._interpolate

    def segment(*args):
        calls.append(args)
        return original_segment(*args)

    def solve(*args, **kwargs):
        splines.append(args)
        return original_solve(*args, **kwargs)

    monkeypatch.setattr(recursion, "propagate_segment", segment)
    monkeypatch.setattr(recursion, "_interpolate", solve)
    result, grad = local_functional_gradient(x, chain, tc, cfg)
    assert len(calls) == 1 and not splines
    (axis,) = calls[0][3]
    assert axis.size == (cfg.nodes if outer else 1)
    assert np.all(np.isfinite(grad.chain)) and np.isfinite(grad.x[0])
    if not outer:
        levels = levels_from_order_params(x, chain)
        inner = recursion_from_levels(tc, levels[1:], cfg).value
        assert result.value == pytest.approx(functional_from_recursion(
            x, chain, tc, RecursionResult(inner, 0.0, "quadrature")).value, abs=1e-14)


@pytest.mark.parametrize("d", [1, 2])
def test_gradient_factors_each_level_once(d, monkeypatch):
    # The backward pass, the d = 2 split, the outermost level and the forward
    # pass all read Level.fac: one sqrt_factor per level per gradient eval.
    # At d = 2 both increments are full rank, so both interior levels split.
    x = UnitPartition.from_interior([0.3, 0.7])
    if d == 1:
        chain = MonotoneChain([np.zeros((1, 1)), [[0.2]], [[0.5]], [[1.0]]])
        cfg = EvalConfig(nodes=8, grid_points=101)
    else:
        u = np.array([[1.0, 0.3], [0.3, 0.8]])
        chain = MonotoneChain([np.zeros((2, 2)), 0.2 * u, np.array([[0.6, 0.1], [0.1, 0.4]]), u])
        cfg = EvalConfig(nodes=8, grid_points_2d=33)
    tc = TerminalCondition(0.7, np.zeros((d, d)), AprioriMeasure.hypercube(d))
    calls = []
    original = recursion.sqrt_factor

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(recursion, "sqrt_factor", counted)
    local_functional_gradient(x, chain, tc, cfg)
    assert len(calls) == chain.levels + 1
    if d == 2:
        assert all(original(c).shape[1] == 2 for c in calls)


def test_forward_pass_walks_the_backward_pass_steps(monkeypatch):
    # One d = 2 gradient eval over a full-rank outermost level, a rank-1
    # level and a full-rank last level.  The forward pass reads nodes**2
    # shifts only at the outermost level: a rank-1 level reads nodes, and a
    # full-rank interior level reads nodes for the intermediate function and
    # nodes for the terminal.  It builds no grid function of its own.
    x = UnitPartition.from_interior([0.3, 0.7])
    u = np.array([[1.0, 0.3], [0.3, 0.8]])
    rank1 = np.outer([0.3, -0.5], [0.3, -0.5])
    chain = MonotoneChain([np.zeros((2, 2)), 0.2 * u, 0.2 * u + rank1, u], allow_equal=True)
    cfg = EvalConfig(nodes=8, grid_points_2d=33)
    tc = TerminalCondition(0.7, np.zeros((2, 2)), AprioriMeasure.hypercube(2))
    reads, builds, segments = [], [], []

    def counting(cls):
        original = cls.derivatives

        def derivatives(self, axes, block):
            if not reads or reads[-1][0] is not self:
                reads.append([self, 0])
            reads[-1][1] += len(block)
            return original(self, axes, block)

        monkeypatch.setattr(cls, "derivatives", derivatives)

    counting(GridFunction)
    counting(TerminalCondition)
    original_init, original_segment = GridFunction.__init__, recursion.propagate_segment

    def init(self, *args):
        builds.append(self)
        original_init(self, *args)

    def segment(*args):
        segments.append(args)
        return original_segment(*args)

    monkeypatch.setattr(GridFunction, "__init__", init)
    monkeypatch.setattr(recursion, "propagate_segment", segment)
    local_functional_gradient(x, chain, tc, cfg)
    assert [count for _, count in reads] == [cfg.nodes**2, cfg.nodes, cfg.nodes, cfg.nodes]
    assert reads[-1][0] is tc
    assert len(builds) == len(segments) == 3


def test_gauss_hermite_table_cached_read_only():
    pts, wgt = _gauss_hermite(16, 2)
    assert _gauss_hermite(16, 2)[0] is pts
    assert pts.shape == (256, 2) and wgt.shape == (256,)
    assert not pts.flags.writeable and not wgt.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0
    shifts, weights = _gh_nodes(sqrt_factor(np.array([[0.5]])), 16)
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
        if xv[k] == xv[k + 1]:
            grad_x.append(np.nan)  # the pinned top point x_n = 1 cannot move
            continue
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
    chain, _ = chain_from_blocks(u)([w @ w.T + 0.05 * np.eye(d) for w in rng.normal(size=(n + 1, d, d))])
    tilt = rng.normal(scale=tilt_scale, size=(d, d))
    return x, chain, 0.5 * (tilt + tilt.T)


def max_gradient_error(grad, ref):
    return max(np.abs(grad.x - ref.x).max(initial=0.0), np.abs(grad.chain - ref.chain).max(),
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
# up to 4.9e-5 on these points; this bound is looser than needed, and
# test_gradient_is_the_derivative_of_the_computed_value holds the same points
# to bounds set from that measurement.
@pytest.mark.parametrize(
    "mu, u, n",
    [
        (AprioriMeasure.hypercube(2), np.array([[1.0, 0.2], [0.2, 1.0]]), 1),
        (AprioriMeasure.gaussian(np.array([[3.0, 0.4], [0.4, 4.0]]), np.array([0.1, -0.2])),
         np.array([[0.5, 0.1], [0.1, 0.6]]), 1),
        (AprioriMeasure.hypercube(2), np.array([[1.0, 0.2], [0.2, 1.0]]), 2),
    ],
    ids=["hypercube", "gaussian", "hypercube-small-weight"],
)
def test_gradient_matches_central_differences_d2(mu, u, n):
    rng = np.random.default_rng(11)
    x, chain, tilt = random_point(rng, 2, n, u)
    if n == 2:
        # The first weight sits below SMALL_WEIGHT, and its level splits.
        x = UnitPartition(np.concatenate(([0.0, 5e-7], x.values[2:])))
    assert gradient_case(mu, 0.8, x, chain, tilt, D2) <= 2e-3


# The forward pass moves its mass through the exact transpose of every
# spline read, so the gradient is the derivative of the computed value but
# for two terms it leaves out: the grids' dependence on the chain (their
# half-widths follow the diagonal of each dQ_k), and at d = 2 the turn of
# the node directions with the eigenvectors of dQ_k (see _forward_pass).
# Measured before the bounds were set: 2.4e-5 (hypercube), 1.4e-11
# (Gaussian, whose level functions the splines reproduce), 4.9e-5 (small
# weight), and at d = 1 2.2e-8 and 2.7e-7 (n = 2), 5.4e-9 and 2.0e-8
# (n = 3).  With the half-widths frozen, d = 1 fell to 1e-10 and d = 2 kept
# 1.9e-5 and 3.2e-5, all of it in the chain entries.
@pytest.mark.parametrize(
    "mu, u, n, seed, small, betas, cfg, bound",
    [
        (AprioriMeasure.hypercube(2), np.array([[1.0, 0.2], [0.2, 1.0]]), 1, 11, False, (0.8,), D2, 5e-5),
        (AprioriMeasure.gaussian(np.array([[3.0, 0.4], [0.4, 4.0]]), np.array([0.1, -0.2])),
         np.array([[0.5, 0.1], [0.1, 0.6]]), 1, 11, False, (0.8,), D2, 1e-9),
        (AprioriMeasure.hypercube(2), np.array([[1.0, 0.2], [0.2, 1.0]]), 2, 11, True, (0.8,), D2, 1e-4),
        (RADEMACHER, np.array([[1.0]]), 2, 102, False, (0.5, 1.5), D1, 5e-7),
        (RADEMACHER, np.array([[1.0]]), 3, 103, True, (0.5, 1.5), D1, 5e-7),
    ],
    ids=["hypercube", "gaussian", "hypercube-small-weight", "rademacher-2", "rademacher-3"],
)
def test_gradient_is_the_derivative_of_the_computed_value(mu, u, n, seed, small, betas, cfg, bound):
    # The points of test_gradient_matches_central_differences_d2 and of the
    # Rademacher test at n = 2 and 3, where X_2 and deeper live on grids.
    x, chain, tilt = random_point(np.random.default_rng(seed), u.shape[0], n, u)
    if small:
        x = UnitPartition(np.concatenate(([0.0, 5e-7], x.values[2:])))
    for beta in betas:
        assert gradient_case(mu, beta, x, chain, tilt, cfg) <= bound


@pytest.mark.parametrize(
    "mu, u, n, betas, cfg, bound",
    [
        (RADEMACHER, np.array([[1.0]]), 1, (0.5, 1.5), D1, 2e-4),
        (RADEMACHER, np.array([[1.0]]), 2, (0.5, 1.5), D1, 2e-4),
        # The d = 2 bound and beta of test_gradient_matches_central_differences_d2.
        (AprioriMeasure.hypercube(2), np.array([[1.0, 0.2], [0.2, 1.0]]), 2, (0.8,), D2, 2e-3),
    ],
    ids=["rademacher-rs", "rademacher", "hypercube"],
)
def test_gradient_at_pinned_points_matches_central_differences(mu, u, n, betas, cfg, bound):
    # x_n = 1 is pinned and its level folds into the tilt: dX_0/ddQ_n is
    # beta^2 dX_0/dtilt, and the pinned x_n has no derivative (NaN).
    rng = np.random.default_rng(31 + n)
    x, chain, tilt = random_point(rng, u.shape[0], n, u)
    x = UnitPartition(np.append(x.values[:-2], [1.0, 1.0]))
    for beta in betas:
        tc = TerminalCondition(beta, tilt, mu)
        _, grad = local_functional_gradient(x, chain, tc, cfg)
        ref = central_gradient(recursion_functional(mu, beta, cfg), x, chain, tc.tilt)
        assert np.isnan(grad.x[-1]) and np.isnan(ref.x[-1])
        free = [FunctionalGradient(g.x[:-1], g.chain, g.tilt) for g in (grad, ref)]
        assert max_gradient_error(*free) <= bound


@pytest.mark.parametrize(
    "mu, u, beta, x1",
    [
        (RADEMACHER, 1.0, 1.0, None),
        (RADEMACHER, 1.0, 1.5, None),
        (AprioriMeasure.discrete([[-1.0], [0.5], [2.0]], [0.3, 0.5, 0.2]), 1.2, 1.0, None),
        (AprioriMeasure.gaussian(np.array([[3.0]]), np.array([0.2])), 0.6, 1.0, None),
        (RADEMACHER, 1.0, 1.0, 5e-7),
    ],
    ids=["rademacher-1", "rademacher-1.5", "three-point", "gaussian", "small-weight"],
)
def test_two_level_d1_gradient_is_exact(mu, u, beta, x1):
    # At d = 1 with the top point pinned, X_1 lives on the outermost level's
    # nodes and the folded terminal is exact: the value is a finite node sum
    # and the forward pass returns its derivative, so central differences
    # agree up to their own truncation and rounding (1e-5 with X_1 on a
    # spline grid).
    rng = np.random.default_rng(41)
    x, chain, tilt = random_point(rng, 1, 2, np.array([[u]]))
    x = UnitPartition(np.array([0.0, x.values[1] if x1 is None else x1, 1.0, 1.0]))
    tc = TerminalCondition(beta, tilt, mu)
    _, grad = local_functional_gradient(x, chain, tc, D1)
    ref = central_gradient(recursion_functional(mu, beta, D1), x, chain, tc.tilt)
    free = [FunctionalGradient(g.x[:-1], g.chain, g.tilt) for g in (grad, ref)]
    assert max_gradient_error(*free) <= 1e-8


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
    # g from derivatives() equals __call__ bit for bit, and grad g and
    # <s s^T> = dg/dtilt agree with central differences of __call__.  The
    # points are the shifts of a one-point grid at the origin.
    tilt = np.array([[0.1, -0.05], [-0.05, 0.2]])
    pts = np.array([[0.3, -0.4], [1.2, 0.5], [-0.7, 0.0]])
    axes = [np.zeros(1)] * 2
    gauss = AprioriMeasure.gaussian(np.array([[3.0, 0.4], [0.4, 4.0]]), np.array([0.3, -0.2]))
    uneven = AprioriMeasure.discrete([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]], [1.0, 0.5, 2.0])
    h = 1e-5
    for mu in (AprioriMeasure.hypercube(2), gauss, uneven):
        tc = TerminalCondition(0.7, tilt, mu)
        value, grad, moment = (a.reshape((len(pts),) + a.shape[3:]) for a in tc.derivatives(axes, pts))
        assert np.array_equal(value, tc(pts))
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


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_d2_quadrature_matches_closed_form_property(seed, n):
    # Check 2's instances at d = 2 and its tolerance, on a coarse engine.
    x, chain, tilt, c, h, beta = _random_gaussian_instance(np.random.default_rng(seed), 2, n)
    tc = TerminalCondition(beta, tilt, AprioriMeasure.gaussian(c, h))
    rec = recursion_value(x, chain, tc, EvalConfig(nodes=12, grid_points_2d=61))
    assert rec.value == pytest.approx(closed_form_recursion(x, chain, tilt, c, h, beta), abs=1e-6)
