import numpy as np
import pytest

from parisi_lab.measures import AprioriMeasure, EvalConfig, TerminalCondition
from parisi_lab.paths import DiscretePath, MonotoneChain, UnitPartition
from parisi_lab.pde import (
    ControlPolicy,
    PdeProblem,
    convexity_probe,
    hopf_cole_segment,
    simulate_control_value,
    solve_parisi_pde,
)
from parisi_lab.recursion import GridFunction, recursion_value

RADEMACHER = AprioriMeasure.rademacher()


def sk_path(x_int=(0.25, 0.6), qs=(0.3, 0.7)):
    part = UnitPartition.from_interior(list(x_int))
    chain = MonotoneChain([np.zeros((1, 1))] + [[[q]] for q in qs] + [np.ones((1, 1))])
    return DiscretePath(part, chain)


class Const:
    dim = 1

    def __call__(self, pts):
        return np.full(np.asarray(pts).shape[0], 1.7)


class Linear:
    dim = 1

    def __init__(self, a):
        self.a = a

    def __call__(self, pts):
        return self.a * np.asarray(pts)[:, 0]


def test_constant_terminal_is_fixed_point():
    sol = solve_parisi_pde(PdeProblem.from_path(sk_path(), Const(), spacing=0.02))
    assert sol.at_origin() == pytest.approx(1.7, abs=1e-10)
    assert np.allclose(sol.values, 1.7, atol=1e-10)


def test_linear_terminal_closed_form():
    a = 0.8
    sol = solve_parisi_pde(PdeProblem.from_path(sk_path(), Linear(a), spacing=0.01))
    expected = 0.25 * a**2 * 0.4 / 2 + 0.6 * a**2 * 0.3 / 2
    assert sol.at_origin() == pytest.approx(expected, abs=1e-8)


def test_sk_terminal_matches_recursion_and_refines():
    path = sk_path()
    tc = TerminalCondition(0.5, np.zeros((1, 1)), RADEMACHER)
    rec = recursion_value(path.partition, path.chain, tc).value
    e1 = abs(solve_parisi_pde(PdeProblem.from_path(path, tc, spacing=0.01)).at_origin() - rec)
    e2 = abs(solve_parisi_pde(PdeProblem.from_path(path, tc, spacing=0.005)).at_origin() - rec)
    assert e1 <= 1e-3
    assert e2 <= e1 / 3.0


def test_hopf_cole_composition_equals_recursion():
    # Composing the per-segment propagators is the recursion engine itself.
    path = sk_path()
    tc = TerminalCondition(0.5, np.zeros((1, 1)), RADEMACHER)
    cfg = EvalConfig()
    rec = recursion_value(path.partition, path.chain, tc, cfg).value
    incs = path.chain.increments()
    weights = path.partition.values[:-1]
    reach = [2.0 * np.sqrt(inc[0, 0]) * 7.2 for inc in incs]
    w1 = cfg.grid_pad + reach[0]
    w2 = w1 + reach[1]
    f = hopf_cole_segment(tc, weights[2], incs[2], [np.linspace(-w2, w2, cfg.grid_points)], cfg)
    f = hopf_cole_segment(f, weights[1], incs[1], [np.linspace(-w1, w1, cfg.grid_points)], cfg)
    f = hopf_cole_segment(f, weights[0], incs[0], [np.linspace(-1.0, 1.0, 33)], cfg)
    assert f.at_origin() == pytest.approx(rec, abs=1e-9)


def test_grid_refinement_second_order():
    path = sk_path()
    tc = TerminalCondition(0.7, np.zeros((1, 1)), RADEMACHER)
    rec = recursion_value(path.partition, path.chain, tc).value
    errs = [
        abs(solve_parisi_pde(PdeProblem.from_path(path, tc, spacing=h)).at_origin() - rec)
        for h in (0.02, 0.01)
    ]
    assert errs[1] <= errs[0] / 3.0


def test_control_values():
    a = 0.8
    path = sk_path()
    problem = PdeProblem.from_path(path, Linear(a), spacing=0.01)
    sol = solve_parisi_pde(problem)
    expected = 0.25 * a**2 * 0.4 / 2 + 0.6 * a**2 * 0.3 / 2

    # zero control: linear payoff is a martingale, value g(y0) = 0
    est0, se0 = simulate_control_value(problem, ControlPolicy("zero"), paths=20000, seed=1)
    assert abs(est0 - 0.0) <= 3 * se0

    # feedback policy attains the solution value
    estf, sef = simulate_control_value(
        problem, ControlPolicy("feedback", solution=sol), paths=20000, seed=2
    )
    assert abs(estf - expected) <= 3 * sef

    # any bounded policy is suboptimal
    bump = ControlPolicy("custom", custom=lambda t, y: 0.4 * np.sin(3 * y + t))
    estb, seb = simulate_control_value(problem, bump, paths=20000, seed=3)
    assert estb <= estf + 3 * np.hypot(sef, seb)


def test_sk_feedback_attains_pde_value():
    path = sk_path()
    tc = TerminalCondition(0.5, np.zeros((1, 1)), RADEMACHER)
    problem = PdeProblem.from_path(path, tc, spacing=0.01)
    sol = solve_parisi_pde(problem)
    est, se = simulate_control_value(
        problem, ControlPolicy("feedback", solution=sol), paths=30000, seed=4
    )
    assert abs(est - sol.at_origin()) <= 3 * se + 5e-3


class SoftPlus:
    dim = 1

    def __call__(self, pts):
        return np.logaddexp(0.0, np.asarray(pts)[:, 0])


def test_convexity_probe_trivial_and_strict():
    steps = np.linspace(0.0, 1.0, 11)
    prof = (steps, steps[:-1])
    gammas = np.linspace(0.0, 1.0, 5)
    same = convexity_probe(1.0, prof, prof, gammas, SoftPlus(), EvalConfig(grid_points=801))
    assert np.max(np.abs(same.margins)) <= 1e-10

    prof2 = (steps, steps[:-1] ** 2)
    rep = convexity_probe(1.0, prof, prof2, gammas, SoftPlus(), EvalConfig(grid_points=801))
    assert rep.min_interior_margin > 3 * rep.numeric_error

    # linear terminal: value is linear in the weights, margin ~ 0
    lin = convexity_probe(1.0, prof, prof2, gammas, Linear(0.7), EvalConfig(grid_points=801))
    assert np.max(np.abs(lin.margins)) <= 1e-8


def test_csv_export():
    sol = solve_parisi_pde(PdeProblem.from_path(sk_path(), Const(), spacing=0.05))
    text = sol.to_csv()
    assert text.startswith("t,y,f\n")
    assert len(text.splitlines()) == 1 + sol.values.size
    parsed = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]])
    tt, yy = np.meshgrid(sol.times, sol.y, indexing="ij")
    assert np.array_equal(parsed, np.column_stack([tt.ravel(), yy.ravel(), sol.values.ravel()]))
    # Byte for byte the line-by-line format.
    lines = (f"{t!r},{y!r},{f!r}\n" for t, row in zip(sol.times.tolist(), sol.values.tolist())
             for y, f in zip(sol.y.tolist(), row))
    assert text == "t,y,f\n" + "".join(lines)
