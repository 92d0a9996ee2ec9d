import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from parisi_lab.measures import AprioriMeasure, EvalConfig, TerminalCondition
from parisi_lab.paths import DiscretePath, MonotoneChain, UnitPartition
from parisi_lab.recursion import (
    BLOCK_POINTS,
    GridFunction,
    Level,
    _gauss_hermite,
    _gh_nodes,
    _log_avg_exp,
    levels_from_order_params,
    lipschitz_witness,
    local_functional,
    overlap_energy_term,
    path_functional,
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


def test_monte_carlo_d3():
    mu = AprioriMeasure.hypercube(3)
    tc = TerminalCondition(0.3, np.zeros((3, 3)), mu)
    x = UnitPartition.from_interior([0.5])
    chain = MonotoneChain([np.zeros((3, 3)), 0.4 * np.eye(3), np.eye(3)])
    res = recursion_value(x, chain, tc, EvalConfig(engine="monte_carlo", samples=128, replicas=8, seed=2))
    assert np.isfinite(res.value) and res.std_error > 0


def test_monotone_in_weights():
    tc = TerminalCondition(0.8, np.zeros((1, 1)), RADEMACHER)
    cfg = EvalConfig(grid_points=801)
    seg = [0.25, 0.35, 0.4]
    lo = [Level(w, np.array([[v]])) for w, v in zip([0.1, 0.2, 0.5], seg)]
    hi = [Level(w, np.array([[v]])) for w, v in zip([0.3, 0.6, 0.9], seg)]
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


def test_path_functional_identity():
    # The path form and the (x, Q) form are the same formula by construction.
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        x_int = np.sort(rng.uniform(0.1, 0.9, n))
        qs = np.sort(rng.uniform(0.05, 0.95, n))
        x, chain, tc = scalar_setup(list(x_int), list(qs), beta=float(rng.uniform(0.2, 1.0)))
        path = DiscretePath(x, chain)
        a = path_functional(path, tc, EvalConfig(grid_points=801)).value
        b = local_functional(x, chain, tc, EvalConfig(grid_points=801)).value
        assert a == b


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
    return _log_avg_exp(weight, vals, wgt, cfg.small_x_threshold)


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
    return {
        "rademacher": (g1, 0.5, cov1, line),
        "hypercube_d2": (cube, 0.4, cov2, plane),
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
